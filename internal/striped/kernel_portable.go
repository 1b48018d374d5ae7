package striped

import (
	"context"

	"repro/internal/dna"
	"repro/internal/swa"
)

// The portable kernels pack V saturating lanes into one uint64 and run the
// striped column pass with branch-free SWAR arithmetic. Lane values must
// stay at or below the lane capacity (0x7f for 8-bit lanes, 0x7fff for
// 16-bit): instead of clamping, each add ORs into a sticky overflow
// accumulator whose top lane bits reveal whether any value may have left
// the safe range — in which case the whole pass is discarded and the pair
// re-scored wider. This keeps the saturating subtract at six operations:
//
//	d := (x | hi) - y         // borrow-proof subtract
//	s := d & hi               // per-lane no-borrow flags
//	d & (s - (s >> shift))    // 0x7f.. mask per no-borrow lane, 0 otherwise
//
// and max(x, y) = y + subs(x, y) at seven.
const (
	lo8  = 0x0101010101010101
	hi8  = 0x8080808080808080
	cap8 = 0x7f

	lo16  = 0x0001000100010001
	hi16  = 0x8000800080008000
	cap16 = 0x7fff
)

func subs8(x, y uint64) uint64 {
	d := (x | hi8) - y
	s := d & hi8
	return d & (s - (s >> 7))
}

func max8(x, y uint64) uint64 { return y + subs8(x, y) }

func subs16(x, y uint64) uint64 {
	d := (x | hi16) - y
	s := d & hi16
	return d & (s - (s >> 15))
}

func max16(x, y uint64) uint64 { return y + subs16(x, y) }

// scratch is the pooled per-call state: kernel rows, query profiles and
// byte copies of the texts. Buffers only ever grow.
type scratch struct {
	// portable-kernel state
	prof [4][]uint64 // per-base striped query profile, segLen words each
	vhg  []uint64    // interleaved H and G=subs(H,gap) rows, 2·segLen words
	yb   []byte      // text copy (dna.Base values are already 0..3)

	// assembly-kernel state (amd64)
	arena []byte // constants + outputs, arenaSize bytes
	prof2 []byte // two problems × four bases × segLen×16 bytes
	vh    []byte // two H rows, segLen×16 bytes each
	yb2   []byte // second text copy

	// byte-lane-kernel state (amd64 with AVX2)
	lanes []byte // constants + best/ovf rows, laneArena bytes
	xt    []byte // lane-interleaved patterns, m×32 bytes
	yt    []byte // lane-interleaved texts, n×32 bytes
	hcol  []byte // H column, m×32 bytes
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

func copySeq(dst []byte, s dna.Seq) []byte {
	dst = growBytes(dst, len(s))
	for i, b := range s {
		dst[i] = byte(b)
	}
	return dst
}

// laneKernel is one portable lane-width instantiation: V lanes of `bits`
// bits in a uint64, with a width-specialised column pass (concrete per
// width so the 6-op SWAR primitives inline into the inner loop). The two
// instances below are the "uint64-lane" (8-bit × 8) and "uint16-lane"
// (16-bit × 4) kernels of the engine's widening ladder.
type laneKernel struct {
	lanes, bits int
	lo, hi      uint64
	capv        int
	run         func(sr *scratch, segLen int, y []byte, sc swa.Scoring, vm, ovfAcc uint64) (uint64, uint64)
}

var kern8 = laneKernel{lanes: 8, bits: 8, lo: lo8, hi: hi8, capv: cap8, run: runColumns8}
var kern16 = laneKernel{lanes: 4, bits: 16, lo: lo16, hi: hi16, capv: cap16, run: runColumns16}

// buildProfile fills sr.prof with the striped query profile for x: lane v,
// segment s covers query position v·segLen+s, holding match+mismatch where
// x matches the base and zero elsewhere (zero also pads positions ≥ m,
// which can never beat a real score).
func buildProfile(sr *scratch, k *laneKernel, x dna.Seq, segLen int, sc swa.Scoring) {
	pv := uint64(sc.Match + sc.Mismatch)
	for c := 0; c < 4; c++ {
		p := growU64(sr.prof[c], segLen)
		for s := range p {
			p[s] = 0
		}
		sr.prof[c] = p
	}
	for q, b := range x {
		v := q / segLen
		s := q % segLen
		sr.prof[b][s] |= pv << (uint(v) * uint(k.bits))
	}
}

// runPortable scores one pair with the portable kernel at the requested
// width, returning the score and whether the pass may have saturated. The
// column loop is chunked so ctx is honoured even on a single huge pair.
func (e *Engine) runPortable(ctx context.Context, sr *scratch, p dna.Pair, sc swa.Scoring, wide bool) (score int, ovf bool, err error) {
	k := &kern8
	if wide {
		k = &kern16
	}
	m := len(p.X)
	segLen := (m + k.lanes - 1) / k.lanes
	buildProfile(sr, k, p.X, segLen, sc)
	sr.vhg = growU64(sr.vhg, 2*segLen)
	for i := range sr.vhg {
		sr.vhg[i] = 0
	}
	sr.yb = copySeq(sr.yb, p.Y)

	var vm, ovfAcc uint64
	chunk := max(1, pollCells/(segLen*k.lanes))
	for at := 0; at < len(sr.yb); at += chunk {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		end := min(at+chunk, len(sr.yb))
		vm, ovfAcc = k.run(sr, segLen, sr.yb[at:end], sc, vm, ovfAcc)
	}
	if ovfAcc&k.hi != 0 {
		return 0, true, nil
	}
	mask := uint64(1)<<uint(k.bits) - 1
	for v := 0; v < k.lanes; v++ {
		if s := int(vm >> (uint(v) * uint(k.bits)) & mask); s > score {
			score = s
		}
	}
	return score, false, nil
}

// runColumns8 advances the striped recurrence over one chunk of text
// columns at 8-bit lane width. vhg interleaves H at 2s with
// G = subs(H, gap) at 2s+1: the stored G doubles as the next column's
// "left" term (H ≥ E always, so one gap step from the newest H dominates
// the decayed E chain), which saves a subtract per segment.
//
// runColumns16 is a mechanical copy at 16-bit width — kept concrete
// (rather than dispatching subs/max through function values) so the SWAR
// primitives inline, which is worth ~5× on this loop.
func runColumns8(sr *scratch, segLen int, y []byte, sc swa.Scoring, vm, ovfAcc uint64) (uint64, uint64) {
	biasv := lo8 * uint64(sc.Mismatch)
	gapv := lo8 * uint64(sc.Gap)
	segGap := segLen * sc.Gap
	vhg := sr.vhg
	last := 2 * (segLen - 1)
	for _, c := range y {
		p := sr.prof[c]
		// The diagonal term enters through prev, the previous column's H
		// shifted down one lane (query position q-1 of lane v is position
		// q of lane v-1 at the same segment... i.e. the lane-wrap shift).
		prev := vhg[last] << 8
		var f uint64
		for s := 0; s < segLen; s++ {
			t := prev + p[s]
			ovfAcc |= t
			h := subs8(t, biasv) // diagonal: H(q-1,j-1) + match/-mismatch
			hp := vhg[2*s]
			h = max8(h, vhg[2*s+1]) // left: stored G from column j-1
			h = max8(h, f)          // up: running in-column F chain
			vm = max8(vm, h)
			prev = hp
			f = subs8(h, gapv)
			vhg[2*s] = h
			vhg[2*s+1] = f
		}
		// Lane wrap (lazy-F elimination): fold the wrapped F with decayed
		// prefix-max steps, then at most one corrective sweep — skipped
		// when the settled F is already all zero.
		f <<= 8
		for sh := 1; sh < 8; sh <<= 1 {
			dec := segGap * sh
			if dec >= cap8 {
				break // saturating subtract would zero every lane anyway
			}
			f = max8(f, subs8(f<<(8*uint(sh)), lo8*uint64(dec)))
		}
		if f != 0 {
			for s := 0; s < segLen; s++ {
				h := max8(vhg[2*s], f)
				vhg[2*s] = h
				f = subs8(h, gapv)
				vhg[2*s+1] = f
			}
		}
	}
	return vm, ovfAcc
}

// runColumns16 is runColumns8 at 16-bit lane width; see that function for
// the commentary.
func runColumns16(sr *scratch, segLen int, y []byte, sc swa.Scoring, vm, ovfAcc uint64) (uint64, uint64) {
	biasv := lo16 * uint64(sc.Mismatch)
	gapv := lo16 * uint64(sc.Gap)
	segGap := segLen * sc.Gap
	vhg := sr.vhg
	last := 2 * (segLen - 1)
	for _, c := range y {
		p := sr.prof[c]
		prev := vhg[last] << 16
		var f uint64
		for s := 0; s < segLen; s++ {
			t := prev + p[s]
			ovfAcc |= t
			h := subs16(t, biasv)
			hp := vhg[2*s]
			h = max16(h, vhg[2*s+1])
			h = max16(h, f)
			vm = max16(vm, h)
			prev = hp
			f = subs16(h, gapv)
			vhg[2*s] = h
			vhg[2*s+1] = f
		}
		f <<= 16
		for sh := 1; sh < 4; sh <<= 1 {
			dec := segGap * sh
			if dec >= cap16 {
				break
			}
			f = max16(f, subs16(f<<(16*uint(sh)), lo16*uint64(dec)))
		}
		if f != 0 {
			for s := 0; s < segLen; s++ {
				h := max16(vhg[2*s], f)
				vhg[2*s] = h
				f = subs16(h, gapv)
				vhg[2*s+1] = f
			}
		}
	}
	return vm, ovfAcc
}
