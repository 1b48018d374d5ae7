package alignsvc

// This file is the pluggable-backend seam: every engine the service can
// serve scores with — the two simulated GPU pipelines, the native striped
// CPU engine and the scalar reference — sits behind the Backend interface,
// so the degradation ladder, the retry machinery, the metrics and the
// benchmarks all select engines through one seam instead of hard-coded tier
// switches.

import (
	"context"
	"fmt"

	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// Backend names, as accepted by Config.Backend, AlignBackend and the
// swaserver -backend flag / X-SWA-Backend header.
const (
	// BackendBitwiseSim serves through the paper's bitwise BPBC pipeline on
	// the simulated GPU, degrading wordwise-sim → cpu-ref on failure.
	BackendBitwiseSim = "bitwise-sim"
	// BackendWordwiseSim serves through the conventional wordwise pipeline
	// on the simulated GPU, degrading to cpu-ref on failure.
	BackendWordwiseSim = "wordwise-sim"
	// BackendStriped serves with the native striped CPU engine
	// (internal/striped), degrading to cpu-ref on failure. This is the
	// wall-clock serving path.
	BackendStriped = "striped"
	// BackendCPURef serves with the scalar swa.Score reference directly.
	BackendCPURef = "cpu-ref"
)

// BackendNames lists every backend name, primary serving path first.
func BackendNames() []string {
	return []string{BackendStriped, BackendBitwiseSim, BackendWordwiseSim, BackendCPURef}
}

// backendTier maps a backend name to the ladder rung that serves it.
func backendTier(name string) (Tier, error) {
	switch name {
	case BackendBitwiseSim, "":
		return TierBitwise, nil
	case BackendWordwiseSim:
		return TierWordwise, nil
	case BackendStriped:
		return TierStriped, nil
	case BackendCPURef:
		return TierCPU, nil
	}
	return 0, fmt.Errorf("alignsvc: unknown backend %q", name)
}

// Capabilities describes what a backend guarantees.
type Capabilities struct {
	// Exact backends produce byte-exact scores by construction; the service
	// skips sampling validation for them (there is no wrong answer to
	// catch, only errors).
	Exact bool
}

// BatchOpts carries per-attempt context into a backend.
type BatchOpts struct {
	// Seq is the service-wide batch sequence number, Attempt the attempt
	// ordinal within the batch; together they derive the deterministic
	// fault stream for simulated backends.
	Seq, Attempt uint64
}

// BatchStats is what one backend attempt reports back.
type BatchStats struct {
	// Faults counts the faults injected during the attempt (simulated
	// backends only).
	Faults cudasim.FaultCounts
}

// Backend is one scoring engine behind the service. AlignBatch scores every
// pair or fails as a unit; scores must be exact when err is nil unless the
// service's validation (for non-Exact backends) is expected to catch
// device-induced corruption.
type Backend interface {
	Name() string
	Capabilities() Capabilities
	AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error)
}

// NewBackend constructs a standalone backend: no worker pool, no retry
// ladder, no fault injection — just the engine. The benchmark
// harness and the cross-backend exactness oracle use it to measure and
// compare engines in isolation. cfg supplies the scoring scheme (and, for
// the simulated backends, the device model); lanes selects the bitwise
// width as in Config.Lanes.
func NewBackend(name string, cfg pipeline.Config, lanes int) (Backend, error) {
	if lanes == 0 {
		lanes = 32
	}
	scoring := func() swa.Scoring {
		if cfg.Scoring == (swa.Scoring{}) {
			return swa.PaperScoring
		}
		return cfg.Scoring
	}
	switch name {
	case BackendBitwiseSim, BackendWordwiseSim:
		tier := TierBitwise
		if name == BackendWordwiseSim {
			tier = TierWordwise
		}
		return &simBackend{name: name, tier: tier, cfg: cfg, lanes: lanes}, nil
	case BackendStriped:
		return &stripedBackend{eng: striped.New(striped.Config{}), scoring: scoring}, nil
	case BackendCPURef:
		return &cpuBackend{scoring: scoring}, nil
	}
	return nil, fmt.Errorf("alignsvc: unknown backend %q", name)
}

// runPipeline invokes the simulated pipeline for a tier with a fully
// prepared config.
func runPipeline(ctx context.Context, tier Tier, pairs []dna.Pair, cfg pipeline.Config, lanes int) (*pipeline.Result, error) {
	switch tier {
	case TierBitwise:
		if lanes == 64 {
			return pipeline.RunBitwise[uint64](ctx, pairs, cfg)
		}
		return pipeline.RunBitwise[uint32](ctx, pairs, cfg)
	case TierWordwise:
		return pipeline.RunWordwise(ctx, pairs, cfg)
	}
	return nil, fmt.Errorf("alignsvc: no simulated pipeline for tier %v", tier)
}

// simBackend serves through a simulated GPU pipeline. Attached to a service
// (svc != nil) it inherits the service's fault injection and metrics
// registry; standalone it runs the bare pipeline.
type simBackend struct {
	name  string
	tier  Tier
	cfg   pipeline.Config
	lanes int
	svc   *Service // nil in standalone mode
}

func (b *simBackend) Name() string { return b.name }

func (b *simBackend) Capabilities() Capabilities {
	return Capabilities{Exact: false}
}

func (b *simBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error) {
	if b.svc == nil {
		r, err := runPipeline(ctx, b.tier, pairs, b.cfg, b.lanes)
		if err != nil {
			return nil, BatchStats{}, err
		}
		return r.Scores, BatchStats{}, nil
	}
	s := b.svc
	cfg := s.cfg.Pipeline
	if cfg.Metrics == nil {
		// Hand the pipelines the service registry so one scrape sees the
		// whole stack.
		cfg.Metrics = s.obs
	}
	fcfg := *s.faults.Load()
	// Derive an independent deterministic fault stream per attempt so a
	// retry does not replay the exact faults that just killed the batch.
	fcfg.Seed ^= (opts.Seq*0x9e3779b97f4a7c15 + opts.Attempt) | 1
	inj := cudasim.NewFaultInjector(fcfg)
	cfg.Faults = inj
	r, err := runPipeline(ctx, b.tier, pairs, cfg, s.cfg.Lanes)
	st := BatchStats{Faults: inj.Counts()}
	if err != nil {
		return nil, st, err
	}
	return r.Scores, st, nil
}

// stripedBackend serves with the native striped CPU engine. It is exact by
// construction (overflowed narrow passes are always re-scored wider, down
// to the scalar reference), so the service skips sampling validation.
type stripedBackend struct {
	eng     *striped.Engine
	scoring func() swa.Scoring
}

func (b *stripedBackend) Name() string { return BackendStriped }

func (b *stripedBackend) Capabilities() Capabilities {
	return Capabilities{Exact: true}
}

func (b *stripedBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, _, err := b.eng.ScoreBatch(ctx, pairs, b.scoring())
	return scores, BatchStats{}, err
}

// cpuPollCells bounds how many alignment cells the scalar reference scores
// between context polls: a batch of a few huge pairs (or very many small
// ones) aborts promptly on cancellation instead of running to completion.
const cpuPollCells = 1 << 16

// cpuBackend is the scalar swa.Score reference: the last rung of every
// ladder, exact and fault-free, failing only on cancellation.
type cpuBackend struct {
	scoring func() swa.Scoring
}

func (b *cpuBackend) Name() string { return BackendCPURef }

func (b *cpuBackend) Capabilities() Capabilities {
	return Capabilities{Exact: true}
}

func (b *cpuBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, err := runCPURef(ctx, pairs, b.scoring())
	return scores, BatchStats{}, err
}

// runCPURef scores pairs with the scalar reference, polling the context
// every cpuPollCells cells (not a fixed pair stride: pair sizes vary by
// orders of magnitude, and a stride counted in pairs lets a handful of
// huge pairs run for seconds after cancellation). A mid-batch abort
// returns an *AbortError recording how many pairs were fully scored.
func runCPURef(ctx context.Context, pairs []dna.Pair, sc swa.Scoring) ([]int, error) {
	scores := make([]int, len(pairs))
	cells := cpuPollCells // poll before the first pair too
	for i, p := range pairs {
		if cells >= cpuPollCells {
			if err := ctx.Err(); err != nil {
				return nil, &AbortError{Scored: i, Err: err}
			}
			cells = 0
		}
		scores[i] = swa.Score(p.X, p.Y, sc)
		cells += len(p.X) * len(p.Y)
	}
	return scores, nil
}

// AbortError reports a batch abandoned mid-computation because its context
// was cancelled, recording how far the computation got. It unwraps to the
// context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both see through it.
type AbortError struct {
	// Scored is how many leading pairs had exact scores when the batch
	// aborted (the scores themselves are discarded — the batch fails as a
	// unit).
	Scored int
	// Err is the underlying context error.
	Err error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("alignsvc: batch aborted after %d pairs: %v", e.Scored, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }
