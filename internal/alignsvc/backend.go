package alignsvc

// This file is the pluggable-backend seam: every engine the service can
// serve scores with — the two simulated GPU pipelines, the native striped
// CPU engine and the scalar reference — sits behind the Backend interface,
// so the service, the metrics and the benchmarks all select engines
// through one seam instead of hard-coded tier switches.

import (
	"context"
	"fmt"

	"repro/internal/dna"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// Backend names, as accepted by Config.Backend, NewBackend and the
// swaserver -backend flag.
const (
	// BackendBitwiseSim serves through the paper's bitwise BPBC pipeline on
	// the simulated GPU.
	BackendBitwiseSim = "bitwise-sim"
	// BackendWordwiseSim serves through the conventional wordwise pipeline
	// on the simulated GPU.
	BackendWordwiseSim = "wordwise-sim"
	// BackendStriped serves with the native striped CPU engine
	// (internal/striped). This is the wall-clock serving path.
	BackendStriped = "striped"
	// BackendCPURef serves with the scalar swa.Score reference directly.
	BackendCPURef = "cpu-ref"
)

// BackendNames lists every backend name, primary serving path first.
func BackendNames() []string {
	return []string{BackendStriped, BackendBitwiseSim, BackendWordwiseSim, BackendCPURef}
}

// backendTier maps a backend name to the tier that serves it.
func backendTier(name string) (Tier, error) {
	switch name {
	case BackendBitwiseSim:
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

// BatchOpts carries per-call options into a backend. It has none today; it
// stays in the AlignBatch signature so callers outside this package keep
// compiling.
type BatchOpts struct{}

// BatchStats is what one backend call reports back. It is empty today, for
// the same reason as BatchOpts.
type BatchStats struct{}

// Backend is one scoring engine behind the service. AlignBatch scores every
// pair exactly or fails as a unit.
type Backend interface {
	Name() string
	AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error)
}

// scoringOf is the scoring scheme a pipeline config selects, defaulting to
// the paper's.
func scoringOf(cfg pipeline.Config) swa.Scoring {
	if cfg.Scoring == (swa.Scoring{}) {
		return swa.PaperScoring
	}
	return cfg.Scoring
}

// NewBackend constructs a standalone backend: no engine slot, no cache,
// no fallback — just the engine. New serves with one; the benchmark
// harness, dbfilter and the cross-backend exactness oracle use it to
// measure and compare engines in isolation. cfg supplies the scoring
// scheme (and, for the simulated backends, the device model); lanes
// selects the bitwise width as in Config.Lanes.
func NewBackend(name string, cfg pipeline.Config, lanes int) (Backend, error) {
	tier, err := backendTier(name)
	if err != nil {
		return nil, err
	}
	if lanes == 0 {
		lanes = 32
	}
	switch tier {
	case TierStriped:
		return &stripedBackend{eng: striped.New(striped.Config{}), scoring: scoringOf(cfg)}, nil
	case TierCPU:
		return &cpuBackend{scoring: scoringOf(cfg)}, nil
	}
	return &simBackend{name: name, tier: tier, cfg: cfg, lanes: lanes}, nil
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

// simBackend serves through a simulated GPU pipeline. Its kernels are exact
// but reject shapes the simulated device cannot launch (a pattern longer
// than the 1024-thread block limit, a batch over the device memory); the
// service answers those batches from the scalar reference.
type simBackend struct {
	name  string
	tier  Tier
	cfg   pipeline.Config
	lanes int
}

func (b *simBackend) Name() string { return b.name }

func (b *simBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	r, err := runPipeline(ctx, b.tier, pairs, b.cfg, b.lanes)
	if err != nil {
		return nil, BatchStats{}, err
	}
	return r.Scores, BatchStats{}, nil
}

// stripedBackend serves with the native striped CPU engine. It is exact by
// construction: overflowed narrow passes are always re-scored wider, down
// to the scalar reference.
type stripedBackend struct {
	eng     *striped.Engine
	scoring swa.Scoring
}

func (b *stripedBackend) Name() string { return BackendStriped }

func (b *stripedBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, _, err := b.eng.ScoreBatch(ctx, pairs, b.scoring)
	return scores, BatchStats{}, err
}

// cpuPollCells bounds how many alignment cells the scalar reference scores
// between context polls: a batch of a few huge pairs (or very many small
// ones) aborts promptly on cancellation instead of running to completion.
const cpuPollCells = 1 << 16

// cpuBackend is the scalar swa.Score reference: the cpu-ref backend and
// the fallback of every failed batch, failing only on cancellation.
type cpuBackend struct {
	scoring swa.Scoring
}

func (b *cpuBackend) Name() string { return BackendCPURef }

func (b *cpuBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, err := runCPURef(ctx, pairs, b.scoring)
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
