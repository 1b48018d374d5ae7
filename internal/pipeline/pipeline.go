// Package pipeline orchestrates the paper's five-step GPU flow (§V) on the
// cudasim substrate:
//
//	Step 1  H2G   copy wordwise inputs to device global memory
//	Step 2  W2B   bit-transpose kernel
//	Step 3  SWA   BPBC wavefront Smith-Waterman kernel
//	Step 4  B2W   bit-untranspose kernel
//	Step 5  G2H   copy wordwise maximum scores back to the host
//
// Every run is functionally exact — the returned scores are validated
// against the CPU reference in the tests — and produces the per-stage
// simulated-time breakdown of the paper's Table IV GPU columns via the
// perfmodel cost conversion.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bitslice"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/swa"
	"repro/internal/word"
)

// Config selects the scoring scheme and lane width behaviour.
type Config struct {
	Scoring swa.Scoring // zero value = swa.PaperScoring
	SBits   int         // 0 = bitslice.RequiredBits
	Device  perfmodel.DeviceSpec
	PCIe    perfmodel.PCIeLink
	// UseShuffle enables the §V warp-shuffle handoff in the SWA kernel.
	UseShuffle bool
	// GlobalBytes overrides the device global-memory capacity (0 = size
	// automatically for the batch). Small values force allocation failures,
	// which the alignsvc fallback and OOM tests rely on.
	GlobalBytes int64
	// Faults, when non-nil, is attached to the simulated device so
	// transfers, allocations and launches can fail (or flip bits)
	// deterministically. See cudasim.FaultConfig.
	Faults *cudasim.FaultInjector
	// Metrics receives the per-stage latency histograms, run counters and
	// GCUPS figures (nil = obs.Default()). Tests pass a private registry.
	Metrics *obs.Registry
}

func (c Config) metrics() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default()
}

func (c Config) withDefaults() Config {
	if c.Scoring == (swa.Scoring{}) {
		c.Scoring = swa.PaperScoring
	}
	if c.Device.SMs == 0 {
		c.Device = perfmodel.TitanX
	}
	if c.PCIe.Bandwidth == 0 {
		c.PCIe = perfmodel.PaperPCIe
	}
	return c
}

// StageTimes is the Table IV GPU breakdown.
type StageTimes struct {
	H2G, W2B, SWA, B2W, G2H time.Duration
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.H2G + s.W2B + s.SWA + s.B2W + s.G2H
}

// Result is the outcome of a simulated GPU run.
type Result struct {
	Scores []int
	Times  StageTimes
	// Wall is the measured host wall-clock per stage: the time the
	// functional simulator itself took, as opposed to Times, the modelled
	// device time. Both distributions are exported as histograms.
	Wall StageTimes
	// Stats exposes the exact kernel work tallies (W2B covers both input
	// arrays; launches are summed).
	W2BStats, SWAStats, B2WStats cudasim.LaunchStats
	Lanes, SBits                 int
	// Pairs, M, N record the batch shape, so GCUPS is computable from the
	// result alone.
	Pairs, M, N int
}

// GCUPS returns the modelled throughput of the run in billions of cell
// updates per second (the paper's headline metric), based on the modelled
// device time.
func (r *Result) GCUPS() float64 {
	return perfmodel.GCUPS(r.Pairs, r.M, r.N, r.Times.Total())
}

// stageRecorder observes one pipeline run's per-stage wall and modelled
// durations into the registry's histograms and the context's trace.
type stageRecorder struct {
	reg  *obs.Registry
	tr   *obs.Trace
	pipe string // "bitwise" or "wordwise"
}

func newStageRecorder(ctx context.Context, cfg Config, pipe string) stageRecorder {
	reg := cfg.metrics()
	reg.Help("pipeline_stage_wall_seconds", "host wall-clock per pipeline stage")
	reg.Help("pipeline_stage_sim_seconds", "modelled device time per pipeline stage")
	reg.Help("pipeline_runs_total", "pipeline runs by outcome")
	reg.Help("pipeline_gcups", "modelled GCUPS per completed run")
	return stageRecorder{reg: reg, tr: obs.FromContext(ctx), pipe: pipe}
}

// stage records one completed stage given its host start time and modelled
// duration, and returns the wall time it measured.
func (s stageRecorder) stage(name string, begin time.Time, sim time.Duration) time.Duration {
	wall := time.Since(begin)
	s.reg.Histogram(obs.L("pipeline_stage_wall_seconds", "pipeline", s.pipe, "stage", name),
		obs.LatencyBuckets).ObserveDuration(wall)
	s.reg.Histogram(obs.L("pipeline_stage_sim_seconds", "pipeline", s.pipe, "stage", name),
		obs.LatencyBuckets).ObserveDuration(sim)
	s.tr.AddSpan("pipeline."+name, begin, wall)
	return wall
}

// finish records the run counter and, on success, the run's GCUPS.
func (s stageRecorder) finish(res *Result, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	s.reg.Counter(obs.L("pipeline_runs_total", "pipeline", s.pipe, "result", outcome)).Inc()
	if err == nil && res != nil {
		g := res.GCUPS()
		s.reg.Histogram(obs.L("pipeline_gcups", "pipeline", s.pipe), obs.GCUPSBuckets).Observe(g)
		s.reg.Gauge(obs.L("pipeline_last_gcups", "pipeline", s.pipe)).Set(g)
	}
}

// RunBitwise executes the full BPBC pipeline for a uniform batch of pairs
// with lane width W, returning exact scores and modelled stage times. The
// context is observed before every stage and between kernel blocks, so
// cancellation and deadlines propagate with block-level latency.
func RunBitwise[W word.Word](ctx context.Context, pairs []dna.Pair, cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	rec := newStageRecorder(ctx, cfg, "bitwise")
	defer func() { rec.finish(res, err) }()
	lanes := word.Lanes[W]()
	l, err := layoutFor(pairs, lanes, cfg)
	if err != nil {
		return nil, err
	}
	par := bitslice.Params{
		S:        l.S,
		Match:    uint(cfg.Scoring.Match),
		Mismatch: uint(cfg.Scoring.Mismatch),
		Gap:      uint(cfg.Scoring.Gap),
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}

	dev := newDevice(cfg, l)
	bufs, err := kernels.AllocBuffers(dev, l)
	if err != nil {
		return nil, err
	}

	res = &Result{Lanes: lanes, SBits: l.S, Pairs: l.Pairs, M: l.M, N: l.N}

	// Step 1: H2G. Wordwise chars, one byte each (what cudaMemcpy moves).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	begin := time.Now()
	if err := uploadWordwise(dev, bufs, pairs, l); err != nil {
		return nil, fmt.Errorf("pipeline: H2G: %w", err)
	}
	res.Times.H2G = cfg.PCIe.Transfer(int64(l.Pairs) * int64(l.M+l.N))
	res.Wall.H2G = rec.stage("h2g", begin, res.Times.H2G)

	// Step 2: W2B, one launch per input array.
	begin = time.Now()
	kx := &kernels.W2BKernel[W]{L: l, Src: bufs.XWord, DstH: bufs.XH, DstL: bufs.XL, Length: l.M}
	sx, err := dev.LaunchCtx(ctx, kx.GridDim(), kernels.TransposeThreads, kx)
	if err != nil {
		return nil, wrapStage("W2B", err)
	}
	ky := &kernels.W2BKernel[W]{L: l, Src: bufs.YWord, DstH: bufs.YH, DstL: bufs.YL, Length: l.N}
	sy, err := dev.LaunchCtx(ctx, ky.GridDim(), kernels.TransposeThreads, ky)
	if err != nil {
		return nil, wrapStage("W2B", err)
	}
	res.W2BStats = *sx
	mergeInto(&res.W2BStats, sy)
	regsT := kernels.TransposeRegs(lanes)
	res.Times.W2B = sx.Cost(true, regsT).Time(cfg.Device) + sy.Cost(true, regsT).Time(cfg.Device)
	res.Wall.W2B = rec.stage("w2b", begin, res.Times.W2B)

	// Step 3: the BPBC wavefront kernel, one block per lane group.
	begin = time.Now()
	ks := &kernels.SWAKernel[W]{L: l, B: bufs, Par: par, UseShuffle: cfg.UseShuffle}
	ss, err := dev.LaunchCtx(ctx, l.Groups(), l.M, ks)
	if err != nil {
		return nil, wrapStage("SWA", err)
	}
	res.SWAStats = *ss
	res.Times.SWA = ss.Cost(true, kernels.SWARegs(l.S, lanes)).Time(cfg.Device)
	res.Wall.SWA = rec.stage("swa", begin, res.Times.SWA)

	// Step 4: B2W.
	begin = time.Now()
	kb := &kernels.B2WKernel[W]{L: l, B: bufs}
	sb, err := dev.LaunchCtx(ctx, kb.GridDim(), kernels.TransposeThreads, kb)
	if err != nil {
		return nil, wrapStage("B2W", err)
	}
	res.B2WStats = *sb
	res.Times.B2W = sb.Cost(true, regsT).Time(cfg.Device)
	res.Wall.B2W = rec.stage("b2w", begin, res.Times.B2W)

	// Step 5: G2H — one word per pair.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	begin = time.Now()
	res.Scores, err = downloadScores[W](dev, bufs, l)
	if err != nil {
		return nil, fmt.Errorf("pipeline: G2H: %w", err)
	}
	res.Times.G2H = cfg.PCIe.Transfer(int64(l.Pairs) * 4)
	res.Wall.G2H = rec.stage("g2h", begin, res.Times.G2H)
	return res, nil
}

// RunWordwise executes the conventional baseline: H2G, the wordwise
// wavefront kernel (one block per pair), G2H. No transposes. Context
// semantics match RunBitwise.
func RunWordwise(ctx context.Context, pairs []dna.Pair, cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	rec := newStageRecorder(ctx, cfg, "wordwise")
	defer func() { rec.finish(res, err) }()
	l, err := layoutFor(pairs, 32, cfg)
	if err != nil {
		return nil, err
	}
	dev := newDevice(cfg, l)
	bufs, err := kernels.AllocBuffers(dev, l)
	if err != nil {
		return nil, err
	}
	res = &Result{Lanes: 1, SBits: 32, Pairs: l.Pairs, M: l.M, N: l.N}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	begin := time.Now()
	if err := uploadWordwise(dev, bufs, pairs, l); err != nil {
		return nil, fmt.Errorf("pipeline: H2G: %w", err)
	}
	res.Times.H2G = cfg.PCIe.Transfer(int64(l.Pairs) * int64(l.M+l.N))
	res.Wall.H2G = rec.stage("h2g", begin, res.Times.H2G)

	begin = time.Now()
	k := &kernels.WordwiseKernel{
		L: l, B: bufs,
		Match:  int32(cfg.Scoring.Match),
		Mismat: int32(cfg.Scoring.Mismatch),
		Gap:    int32(cfg.Scoring.Gap),
	}
	ss, err := dev.LaunchCtx(ctx, l.Pairs, l.M, k)
	if err != nil {
		return nil, wrapStage("SWA", err)
	}
	res.SWAStats = *ss
	res.Times.SWA = ss.Cost(false, kernels.WordwiseRegs).Time(cfg.Device)
	res.Wall.SWA = rec.stage("swa", begin, res.Times.SWA)

	// G2H: one int32 per pair.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	begin = time.Now()
	raw := make([]byte, 4*l.Pairs)
	if err := dev.MemcpyDtoH(raw, bufs.Scores); err != nil {
		return nil, fmt.Errorf("pipeline: G2H: %w", err)
	}
	res.Scores = make([]int, l.Pairs)
	for i := range res.Scores {
		res.Scores[i] = int(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
			uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
	}
	res.Times.G2H = cfg.PCIe.Transfer(int64(l.Pairs) * 4)
	res.Wall.G2H = rec.stage("g2h", begin, res.Times.G2H)
	return res, nil
}

// newDevice builds the simulated device for a run, honouring the capacity
// override and attaching the fault injector if configured.
func newDevice(cfg Config, l kernels.Layout) *cudasim.Device {
	bytes := cfg.GlobalBytes
	if bytes == 0 {
		bytes = deviceBytes(l)
	}
	dev := cudasim.NewDevice(cfg.Device, bytes)
	dev.InjectFaults(cfg.Faults)
	return dev
}

// wrapStage names the failing pipeline stage while keeping context errors
// bare, so callers can compare against context.Canceled/DeadlineExceeded.
func wrapStage(stage string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("pipeline: %s: %w", stage, err)
}

func layoutFor(pairs []dna.Pair, lanes int, cfg Config) (kernels.Layout, error) {
	if len(pairs) == 0 {
		return kernels.Layout{}, fmt.Errorf("pipeline: no pairs")
	}
	m, n := len(pairs[0].X), len(pairs[0].Y)
	// Guard before bitslice.RequiredBits below, which panics on m = 0.
	if m == 0 || n < m {
		return kernels.Layout{}, fmt.Errorf("pipeline: invalid sequence shape (m=%d, n=%d)", m, n)
	}
	for i, p := range pairs {
		if len(p.X) != m || len(p.Y) != n {
			return kernels.Layout{}, fmt.Errorf("pipeline: pair %d has shape (%d,%d), want (%d,%d)",
				i, len(p.X), len(p.Y), m, n)
		}
	}
	if err := cfg.Scoring.Validate(); err != nil {
		return kernels.Layout{}, err
	}
	s := cfg.SBits
	if s == 0 {
		s = bitslice.RequiredBits(uint(cfg.Scoring.Match), m)
	}
	l := kernels.Layout{Pairs: len(pairs), M: m, N: n, Lanes: lanes, S: s}
	return l, l.Validate()
}

func deviceBytes(l kernels.Layout) int64 {
	lb := int64(l.LaneBytes())
	g := int64(l.Groups())
	total := int64(l.Pairs)*int64(l.M+l.N) + // wordwise
		2*g*int64(l.M)*lb + 2*g*int64(l.N)*lb + // transposed
		g*int64(l.S)*lb + g*int64(l.Lanes)*lb + // scores
		1<<16 // alignment slack
	return total * 2
}

func uploadWordwise(dev *cudasim.Device, bufs *kernels.Buffers, pairs []dna.Pair, l kernels.Layout) error {
	xb := make([]byte, l.Pairs*l.M)
	yb := make([]byte, l.Pairs*l.N)
	for p, pr := range pairs {
		for i, c := range pr.X {
			xb[p*l.M+i] = byte(c)
		}
		for j, c := range pr.Y {
			yb[p*l.N+j] = byte(c)
		}
	}
	if err := dev.MemcpyHtoD(bufs.XWord, xb); err != nil {
		return err
	}
	return dev.MemcpyHtoD(bufs.YWord, yb)
}

func downloadScores[W word.Word](dev *cudasim.Device, bufs *kernels.Buffers, l kernels.Layout) ([]int, error) {
	lb := l.LaneBytes()
	raw := make([]byte, l.Groups()*l.Lanes*lb)
	if err := dev.MemcpyDtoH(raw, bufs.Scores); err != nil {
		return nil, err
	}
	out := make([]int, l.Pairs)
	for p := range out {
		off := p * lb
		var v uint64
		for b := 0; b < lb; b++ {
			v |= uint64(raw[off+b]) << (8 * b)
		}
		out[p] = int(v)
	}
	return out, nil
}

func mergeInto(dst *cudasim.LaunchStats, src *cudasim.LaunchStats) {
	dst.ALUOps += src.ALUOps
	dst.GlobalLoadBytes += src.GlobalLoadBytes
	dst.GlobalStoreBytes += src.GlobalStoreBytes
	dst.GlobalTransactions += src.GlobalTransactions
	dst.SharedCycles += src.SharedCycles
	dst.BankConflictReplays += src.BankConflictReplays
	dst.Barriers += src.Barriers
	dst.Blocks += src.Blocks
}
