// Package alignsvc is the batch-alignment service layer: it puts every
// scoring engine — the simulated GPU pipelines, the native striped CPU
// engine and the scalar reference — behind one pluggable Backend seam,
// served as cache → bounded worker pool → the batch's backend.
//
// Every backend is exact by construction, so a batch runs on its backend
// once. If that backend fails with anything but a context error (a shape
// the simulated kernels reject, a recovered panic), the scalar swa.Score
// reference scores the batch exactly once instead. Callers therefore always
// receive exact scores or a context error, together with a per-batch Report
// naming the tier that served it. The default backend is chosen by
// Config.Backend; Align uses it, AlignBackend overrides it per request.
// Service-level counters are exposed through Stats for the observability
// layers to build on.
package alignsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aligncache"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// ErrClosed is returned by Align after Close.
var ErrClosed = errors.New("alignsvc: service closed")

// Config tunes the service. The zero value is usable: the bitwise-sim
// backend, 32 lanes, GOMAXPROCS workers, no cache.
type Config struct {
	// Backend selects the default serving engine by name:
	// BackendBitwiseSim (also the "" default), BackendWordwiseSim,
	// BackendStriped or BackendCPURef. New panics on an unknown name — a
	// misspelled backend must not silently serve with a different engine.
	Backend string
	// Pipeline is the base GPU-pipeline configuration (scoring, device,
	// lane behaviour) of the simulated backends.
	Pipeline pipeline.Config
	// Lanes selects the bitwise lane width, 32 (default) or 64.
	Lanes int
	// Workers bounds how many batches run concurrently (default
	// GOMAXPROCS). Queue bounds how many more may wait (default Workers);
	// beyond that, Align blocks — the backpressure signal.
	Workers, Queue int
	// Metrics receives the service's queue-wait and batch-latency
	// histograms plus fallback counters (nil = obs.Default()). It is also
	// handed to the pipelines unless Pipeline.Metrics is set.
	Metrics *obs.Registry
	// Cache, when non-nil, memoizes per-pair scores by content hash
	// (pattern bytes, text bytes, scoring, lane width). Cache hits bypass
	// the worker pool entirely; a partially cached batch dispatches only
	// its uncached remainder, and concurrent identical pairs coalesce onto
	// one computation. nil (the default) keeps the service byte-identical
	// to the uncached behaviour.
	Cache *aligncache.Cache
	// Wrap, when set, wraps every backend the service serves with. It is
	// the seam tests use to inject failures or hold a worker slot; nil in
	// production. The scalar reference a failed batch falls back to is
	// never wrapped.
	Wrap func(Backend) Backend
}

func (c Config) withDefaults() Config {
	if c.Lanes == 0 {
		c.Lanes = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = c.Workers
	}
	return c
}

type job struct {
	ctx       context.Context
	pairs     []dna.Pair
	backend   string    // serving backend (validated before enqueue)
	submitted time.Time // when Align enqueued it, for the queue-wait metric
	res       chan jobResult
}

type jobResult struct {
	batch *BatchResult
	err   error
}

// Service is a long-lived batch-alignment service. Create with New, submit
// with Align (safe for concurrent use), and Close when done.
type Service struct {
	cfg  Config
	jobs chan *job
	quit chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once

	// backends holds one Backend per tier, wrapped by Config.Wrap; ref is
	// the unwrapped scalar reference a failed batch falls back to.
	// stripedEng is the native engine behind backends[TierStriped], kept
	// for its Stats snapshot.
	backends   [numTiers]Backend
	ref        Backend
	stripedEng *striped.Engine
	obs        *obs.Registry

	batches, batchesFailed, fallbacks, cpuFallbacks atomic.Int64
	deadlineHits, cancellations, panicsRecovered    atomic.Int64
}

// New starts the worker pool and returns the service. It panics on an
// unknown Config.Backend name — serving with a different engine than the
// operator asked for is worse than failing fast.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if _, err := backendTier(cfg.Backend); err != nil {
		panic(err.Error())
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		cfg:  cfg,
		jobs: make(chan *job, cfg.Queue),
		quit: make(chan struct{}),
		obs:  reg,
	}
	pcfg := cfg.Pipeline
	if pcfg.Metrics == nil {
		// Hand the pipelines the service registry so one scrape sees the
		// whole stack.
		pcfg.Metrics = reg
	}
	sc := s.Scoring()
	s.stripedEng = striped.New(striped.Config{})
	s.ref = &cpuBackend{scoring: sc}
	s.backends[TierBitwise] = &simBackend{name: BackendBitwiseSim, tier: TierBitwise, cfg: pcfg, lanes: cfg.Lanes}
	s.backends[TierWordwise] = &simBackend{name: BackendWordwiseSim, tier: TierWordwise, cfg: pcfg, lanes: cfg.Lanes}
	s.backends[TierStriped] = &stripedBackend{eng: s.stripedEng, scoring: sc}
	s.backends[TierCPU] = s.ref
	if cfg.Wrap != nil {
		for t, be := range s.backends {
			s.backends[t] = cfg.Wrap(be)
		}
	}
	reg.Help("alignsvc_queue_wait_seconds", "time a batch waited for a worker")
	reg.Help("alignsvc_batch_seconds", "dequeue-to-scores latency of successful batches, by serving tier")
	reg.Help("alignsvc_batches_total", "successful batches by serving tier")
	reg.Help("alignsvc_fallbacks_total", "batches re-scored on the CPU reference after their backend failed")
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// Close stops the workers after the current batches finish. Pending and
// future Align calls return ErrClosed.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			wait := time.Since(j.submitted)
			s.obs.Histogram("alignsvc_queue_wait_seconds", obs.LatencyBuckets).ObserveDuration(wait)
			obs.FromContext(j.ctx).AddSpan("alignsvc.queue_wait", j.submitted, wait)
			endSvc := obs.FromContext(j.ctx).StartSpan("alignsvc.process")
			batch, err := s.process(j.ctx, j.pairs, j.backend)
			endSvc()
			j.res <- jobResult{batch, err}
		}
	}
}

// Align scores one uniform batch of pairs with the default backend. It
// blocks while the queue is full (backpressure) and honours ctx at every
// stage: submission, kernel-block boundaries and the CPU reference loop.
// On success the scores are exact; the report names the tier that served
// them.
//
// With Config.Cache set, pairs whose scores are already cached are served
// without touching the worker pool; only the uncached remainder is
// dispatched (see alignCached). Scores are exact either way — a cache hit
// is byte-identical to a recompute by key construction, whichever backend
// filled it (see aligncache.KeyOf).
func (s *Service) Align(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	return s.align(ctx, pairs, s.cfg.Backend)
}

// Cells is the DP work a batch represents: Σ |pattern|·|text| matrix cells.
// Tenant cells/sec rate limits and capacity planning meter this quantity —
// request counts alone are meaningless when one request can carry a
// thousand-fold more dynamic-programming work than another.
func Cells(pairs []dna.Pair) int64 {
	var n int64
	for _, p := range pairs {
		n += int64(len(p.X)) * int64(len(p.Y))
	}
	return n
}

// AlignBackend is Align with a per-request backend override: the batch is
// served by the named backend instead of the configured default. An
// unknown name fails before any work is enqueued.
func (s *Service) AlignBackend(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	if _, err := backendTier(backend); err != nil {
		return nil, err
	}
	return s.align(ctx, pairs, backend)
}

func (s *Service) align(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	if s.cfg.Cache.Enabled() {
		return s.alignCached(ctx, pairs, backend)
	}
	return s.dispatch(ctx, pairs, backend)
}

// dispatch is the uncached path: enqueue the batch for a worker and wait.
func (s *Service) dispatch(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	j := &job{ctx: ctx, pairs: pairs, backend: backend,
		submitted: time.Now(), res: make(chan jobResult, 1)}
	select {
	case s.jobs <- j:
	case <-ctx.Done():
		return nil, s.noteCtxErr(ctx.Err())
	case <-s.quit:
		return nil, ErrClosed
	}
	select {
	case r := <-j.res:
		return r.batch, r.err
	case <-ctx.Done():
		return nil, s.noteCtxErr(ctx.Err())
	case <-s.quit:
		return nil, ErrClosed
	}
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	defaultBackend := s.cfg.Backend
	if defaultBackend == "" {
		defaultBackend = BackendBitwiseSim
	}
	ss := s.stripedEng.Stats()
	return Stats{
		Backend:         defaultBackend,
		Batches:         s.batches.Load(),
		BatchesFailed:   s.batchesFailed.Load(),
		Fallbacks:       s.fallbacks.Load(),
		CPUFallbacks:    s.cpuFallbacks.Load(),
		DeadlineHits:    s.deadlineHits.Load(),
		Cancellations:   s.cancellations.Load(),
		PanicsRecovered: s.panicsRecovered.Load(),
		Striped:         &ss,
	}
}

func (s *Service) noteCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineHits.Add(1)
		s.obs.Counter("alignsvc_deadline_total").Inc()
	case errors.Is(err, context.Canceled):
		s.cancellations.Add(1)
		s.obs.Counter("alignsvc_canceled_total").Inc()
	}
	return err
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// process scores one batch on its backend's tier. Any failure other than
// a context error sends the batch to the scalar reference, exactly once.
func (s *Service) process(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	start := time.Now()
	tier, _ := backendTier(backend) // validated before enqueue
	rep := Report{Tier: tier}
	scores, err := s.run(ctx, tier, s.backends[tier], pairs)
	if err != nil && !isCtxErr(err) {
		rep.Tier, rep.Fallbacks = TierCPU, 1
		s.fallbacks.Add(1)
		s.obs.Counter(obs.L("alignsvc_fallbacks_total", "from", tier.String())).Inc()
		scores, err = s.run(ctx, TierCPU, s.ref, pairs)
	}
	if err != nil {
		if isCtxErr(err) {
			return nil, s.noteCtxErr(err)
		}
		s.batchesFailed.Add(1)
		s.obs.Counter("alignsvc_batches_failed_total").Inc()
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	s.batches.Add(1)
	if rep.Tier == TierCPU {
		s.cpuFallbacks.Add(1)
	}
	s.obs.Counter(obs.L("alignsvc_batches_total", "tier", rep.Tier.String())).Inc()
	s.obs.Histogram(obs.L("alignsvc_batch_seconds", "tier", rep.Tier.String()),
		obs.LatencyBuckets).ObserveDuration(rep.Elapsed)
	return &BatchResult{Scores: scores, Report: rep}, nil
}

// run executes one backend call inside its tier span, converting a panic
// into an error.
func (s *Service) run(ctx context.Context, tier Tier, be Backend, pairs []dna.Pair) (scores []int, err error) {
	defer obs.FromContext(ctx).StartSpan("alignsvc.tier." + tier.String())()
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			s.obs.Counter(obs.L("alignsvc_panics_recovered_total", "tier", tier.String())).Inc()
			err = fmt.Errorf("alignsvc: recovered %s-tier panic: %v", tier, r)
		}
	}()
	scores, _, err = be.AlignBatch(ctx, pairs, BatchOpts{})
	return scores, err
}

// Scoring reports the effective scoring scheme the service aligns with.
// The cluster layer uses it to derive the same cache keys this service
// derives, so consistent-hash routing lands forwards on warm caches.
func (s *Service) Scoring() swa.Scoring { return scoringOf(s.cfg.Pipeline) }

// Lanes reports the effective bitwise lane width (32 or 64), the other
// input of the content-address cache key.
func (s *Service) Lanes() int { return s.cfg.Lanes }
