// Package striped is the native CPU serving engine. Groups of 32 pairs of
// one shape are scored in the byte lanes of an AVX2 register, the source
// paper's bitwise parallel bulk layout at byte granularity; every other
// pair goes to a Farrar-style striped Smith–Waterman scorer with a
// precomputed query profile. Both use saturating 8-bit arithmetic and
// widen automatically on overflow. The engine exists so the alignment
// service can serve real traffic at wall-clock GCUPS while the
// cudasim/bpbc stack stays the paper-faithful research path.
//
// # Byte lanes
//
// The byte-lane kernel (amd64 with AVX2) puts pair l in byte lane l of
// every YMM register. Lanes never interact, so a cell is a handful of
// saturating byte ops: compare the two bases, add match+mismatch to the
// diagonal where they agree, subtract the mismatch, take the max with
// max(left, up) − gap, and track the best. There is no lane wrap and no
// query profile. Before the kernel runs, the patterns and texts are
// transposed into lane-interleaved rows (the paper's W2B stage, at byte
// width). scoreBatch sends each run of 32 consecutive pairs sharing one
// non-empty (len X, len Y) to it; shorter runs and leftovers go to the
// striped kernels.
//
// # Striped layout and the lazy-F loop
//
// The query is split into V vertical stripes ("lanes"): query position
// q = v·segLen + s lives in lane v, segment s, with segLen = ⌈m/V⌉ and the
// tail lanes padded with an all-zero profile (a padded position can never
// beat a real score, so the padding is exact). One pass over a text column
// updates all segments with the diagonal and left terms; the vertical F
// dependency that crosses the lane wrap is resolved afterwards without
// Farrar's data-dependent lazy-F loop, following Snytsar ("De(con)struction
// of the lazy-F loop", PAPERS.md): the wrapped F vector is folded with
// log₂V decayed prefix-max steps (each shift decays by the gap cost it
// skips, saturating at zero), then at most one corrective sweep re-applies
// the settled F — skipped entirely when the wrapped F is already zero,
// which is the common case.
//
// The striped kernels are:
//
//   - an SSE2 assembly kernel (amd64) with 16 full-range 8-bit lanes per
//     XMM register, scoring two independent pairs per call to hide latency;
//   - a portable 8-bit kernel packing V=8 lanes into a uint64 with
//     branch-free saturating SWAR arithmetic (values ≤ 0x7f);
//   - a portable 16-bit kernel packing V=4 lanes into a uint64
//     (values ≤ 0x7fff).
//
// # The widening ladder
//
// Every kernel tracks a sticky overflow accumulator instead of clamping:
// when any lane may have saturated, the pair is re-scored by the next
// wider kernel, and past 16 bits by the scalar swa.Score reference. The
// byte-lane kernel flags each lane on its own, so only the flagged pairs
// of a group widen. Scores are therefore exact by construction on every
// path; the engine never returns a clamped value.
//
// Scratch buffers (profiles, H/G rows and columns, text copies and
// transposes) are pooled, so scoring a warm batch allocates nothing (see
// the CI allocation gate).
package striped

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/dna"
	"repro/internal/swa"
)

// Config tunes the engine. The zero value selects the fastest correct path
// for the host.
type Config struct {
	// ForcePortable bypasses the assembly kernel so the portable
	// uint64-SWAR kernels serve even on amd64. Tests use it for
	// cross-architecture parity; production configs leave it false.
	ForcePortable bool
	// ForceWide routes every pair straight to the 16-bit-lane kernel,
	// skipping the 8-bit first pass. Tests use it to exercise the wide
	// kernel on inputs that would otherwise be served at 8 bits.
	ForceWide bool
}

// Stats is a snapshot of the engine's cumulative counters.
type Stats struct {
	// Pairs is how many pairs the engine scored (on any path).
	Pairs int64 `json:"pairs"`
	// KernelCalls counts pairs served by a kernel pass (byte-lane, SSE2 or
	// portable), wide re-passes included.
	KernelCalls int64 `json:"kernel_calls"`
	// LanePairs counts pairs scored in a lane of the byte-lane kernel.
	LanePairs int64 `json:"lane_pairs"`
	// Overflows counts pairs whose narrow pass may have saturated and was
	// discarded.
	Overflows int64 `json:"overflows"`
	// WideRepasses counts pairs re-scored by the 16-bit kernel after an
	// 8-bit overflow.
	WideRepasses int64 `json:"wide_repasses"`
	// ScalarFallbacks counts pairs served by the scalar swa.Score reference
	// (16-bit overflow, or scoring parameters too large for the lanes).
	ScalarFallbacks int64 `json:"scalar_fallbacks"`
}

// BatchInfo reports what one ScoreBatch call did.
type BatchInfo struct {
	KernelPairs     int // pairs served by a striped kernel
	LanePairs       int // pairs served by the byte-lane kernel
	Overflows       int // narrow passes discarded for possible saturation
	WideRepasses    int // pairs re-scored at 16 bits
	ScalarFallbacks int // pairs served by the scalar reference
}

// Engine is a reusable striped scorer. Create with New; ScoreBatch is safe
// for concurrent use (scratch state is pooled per call).
type Engine struct {
	cfg  Config
	pool sync.Pool

	pairs, kernelCalls, lanePairs            atomic.Int64
	overflows, wideRepasses, scalarFallbacks atomic.Int64
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.pool.New = func() any { return &scratch{} }
	return e
}

// Stats snapshots the cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Pairs:           e.pairs.Load(),
		KernelCalls:     e.kernelCalls.Load(),
		LanePairs:       e.lanePairs.Load(),
		Overflows:       e.overflows.Load(),
		WideRepasses:    e.wideRepasses.Load(),
		ScalarFallbacks: e.scalarFallbacks.Load(),
	}
}

// ScoreBatch scores every pair exactly, allocating the result slice.
func (e *Engine) ScoreBatch(ctx context.Context, pairs []dna.Pair, sc swa.Scoring) ([]int, BatchInfo, error) {
	dst := make([]int, len(pairs))
	info, err := e.ScoreBatchInto(ctx, dst, pairs, sc)
	if err != nil {
		return nil, info, err
	}
	return dst, info, nil
}

// pollCells bounds how many cells a kernel computes between context polls,
// so a cancelled request aborts within a fraction of a millisecond even on
// a single enormous pair.
const pollCells = 4 << 20

// ScoreBatchInto scores pairs[i] into dst[i]. It allocates nothing in
// steady state (pooled scratch, caller-owned dst) and polls ctx between
// pair groups and between column chunks of large pairs.
func (e *Engine) ScoreBatchInto(ctx context.Context, dst []int, pairs []dna.Pair, sc swa.Scoring) (BatchInfo, error) {
	var info BatchInfo
	if err := sc.Validate(); err != nil {
		return info, err
	}
	if len(dst) != len(pairs) {
		return info, errDstLen(len(dst), len(pairs))
	}
	sr := e.pool.Get().(*scratch)
	defer e.pool.Put(sr)
	err := e.scoreBatch(ctx, sr, dst, pairs, sc, &info)
	e.pairs.Add(int64(len(pairs)))
	e.kernelCalls.Add(int64(info.KernelPairs))
	e.lanePairs.Add(int64(info.LanePairs))
	e.overflows.Add(int64(info.Overflows))
	e.wideRepasses.Add(int64(info.WideRepasses))
	e.scalarFallbacks.Add(int64(info.ScalarFallbacks))
	return info, err
}

// fitsNarrow reports whether the scoring parameters fit the 8-bit lanes of
// the given capacity: the profile entry (match+mismatch) and the gap cost
// must each be representable without clamping.
func fitsNarrow(sc swa.Scoring, lim int) bool {
	return sc.Match+sc.Mismatch <= lim && sc.Gap <= lim
}

// scoreBatch walks the batch. Each run of laneWidth consecutive pairs
// that share one non-empty shape goes to the byte-lane kernel when the
// host has it; each stretch of pairs between such runs goes to scoreEach
// whole, so its adjacent equal-n pairs still share SSE2 calls.
func (e *Engine) scoreBatch(ctx context.Context, sr *scratch, dst []int, pairs []dna.Pair, sc swa.Scoring, info *BatchInfo) error {
	useAsm := haveAsm && !e.cfg.ForcePortable && !e.cfg.ForceWide && fitsNarrow(sc, asmCap)
	useU16 := fitsNarrow(sc, cap16/2)
	for i := 0; i < len(pairs); {
		g := len(pairs)
		if useAsm && haveLanes {
			g = nextLaneGroup(pairs, i)
		}
		if err := e.scoreEach(ctx, sr, dst[i:g], pairs[i:g], sc, useAsm, useU16, info); err != nil {
			return err
		}
		if g == len(pairs) {
			break
		}
		if err := e.scoreLanes(ctx, sr, dst[g:g+laneWidth], pairs[g:g+laneWidth], sc, useU16, info); err != nil {
			return err
		}
		i = g + laneWidth
	}
	return nil
}

// scoreEach scores pairs one at a time, grouping adjacent equal-n pairs
// for the two-problem assembly kernel and widening per pair on overflow.
func (e *Engine) scoreEach(ctx context.Context, sr *scratch, dst []int, pairs []dna.Pair, sc swa.Scoring, useAsm, useU16 bool, info *BatchInfo) error {
	useU8 := !e.cfg.ForceWide && fitsNarrow(sc, cap8)
	for i := 0; i < len(pairs); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := pairs[i]
		if len(p.X) == 0 || len(p.Y) == 0 {
			dst[i] = 0
			continue
		}
		switch {
		case useAsm:
			// Pair two adjacent problems with equal text length so the
			// kernel's second problem slot does real work; otherwise it
			// re-scores the same pair (correct, half throughput).
			j := i
			if k := i + 1; k < len(pairs) &&
				len(pairs[k].X) > 0 && len(pairs[k].Y) == len(p.Y) {
				j = k
			}
			q := pairs[j]
			s0, s1, ovf0, ovf1, err := e.runAsmPair(ctx, sr, p, q, sc)
			if err != nil {
				return err
			}
			info.KernelPairs++
			if j != i {
				info.KernelPairs++
			}
			if err := e.settle(ctx, sr, dst, i, p, s0, ovf0, sc, useU16, info); err != nil {
				return err
			}
			if j != i {
				if err := e.settle(ctx, sr, dst, j, q, s1, ovf1, sc, useU16, info); err != nil {
					return err
				}
				i = j
			}
		case useU8:
			s, ovf, err := e.runPortable(ctx, sr, p, sc, false)
			if err != nil {
				return err
			}
			info.KernelPairs++
			if err := e.settle(ctx, sr, dst, i, p, s, ovf, sc, useU16, info); err != nil {
				return err
			}
		case useU16:
			s, ovf, err := e.runPortable(ctx, sr, p, sc, true)
			if err != nil {
				return err
			}
			info.KernelPairs++
			if ovf {
				info.Overflows++
				info.ScalarFallbacks++
				dst[i] = swa.Score(p.X, p.Y, sc)
			} else {
				dst[i] = s
			}
		default:
			info.ScalarFallbacks++
			dst[i] = swa.Score(p.X, p.Y, sc)
		}
	}
	return nil
}

// settle commits a narrow-kernel result, or widens: a flagged 8-bit pass is
// discarded and the pair re-scored at 16 bits, and a flagged 16-bit pass by
// the scalar reference. Exactness is unconditional — a flagged pass is
// never trusted.
func (e *Engine) settle(ctx context.Context, sr *scratch, dst []int, i int, p dna.Pair, s int, ovf bool, sc swa.Scoring, useU16 bool, info *BatchInfo) error {
	if !ovf {
		dst[i] = s
		return nil
	}
	info.Overflows++
	if useU16 {
		ws, wovf, err := e.runPortable(ctx, sr, p, sc, true)
		if err != nil {
			return err
		}
		info.KernelPairs++
		info.WideRepasses++
		if !wovf {
			dst[i] = ws
			return nil
		}
		info.Overflows++
	}
	info.ScalarFallbacks++
	dst[i] = swa.Score(p.X, p.Y, sc)
	return nil
}

type dstLenError struct{ got, want int }

func errDstLen(got, want int) error { return &dstLenError{got, want} }

func (e *dstLenError) Error() string {
	return "striped: dst has " + itoa(e.got) + " slots for " + itoa(e.want) + " pairs"
}

// itoa avoids importing fmt on the hot path's error type.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
