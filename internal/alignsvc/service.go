// Package alignsvc is the batch-alignment service layer: it puts every
// scoring engine — the simulated GPU pipelines, the native striped CPU
// engine and the scalar reference — behind one pluggable Backend seam. A
// Service serves with one of them, chosen by Config.Backend, as
// cache → engine slot → backend. A batch scores on its caller's goroutine
// once it holds one of Config.Workers slots; no queue or worker goroutine
// stands between the caller and the engine.
//
// Every backend is exact by construction, so a batch runs on the backend
// once. If it fails with anything but a context error (a shape the
// simulated kernels reject, a recovered panic), the scalar swa.Score
// reference scores the batch exactly once instead. Callers therefore always
// receive exact scores or a context error, together with a per-batch Report
// naming the tier that served it. A Service is itself a Backend (Name,
// AlignBatch: slot, backend, fallback, no cache), so one-to-many callers
// such as corpus search score through the same slots and fallback as
// Align. Service-level counters are exposed through Stats for the
// observability layers to build on.
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
// backend, 32 lanes, GOMAXPROCS engine slots, no cache.
type Config struct {
	// Backend selects the serving engine by name:
	// BackendBitwiseSim (also the "" default), BackendWordwiseSim,
	// BackendStriped or BackendCPURef. New panics on an unknown name — a
	// misspelled backend must not silently serve with a different engine.
	Backend string
	// Pipeline is the base GPU-pipeline configuration (scoring, device,
	// lane behaviour) of the simulated backends.
	Pipeline pipeline.Config
	// Lanes selects the bitwise lane width, 32 (default) or 64.
	Lanes int
	// Workers is the number of engine slots: how many batches score at
	// once (default GOMAXPROCS). Align takes a slot on its caller's
	// goroutine and, while every slot is taken, blocks honouring its
	// context — the backpressure signal.
	Workers int
	// Metrics receives the service's queue-wait and batch-latency
	// histograms plus fallback counters (nil = obs.Default()). It is also
	// handed to the pipelines unless Pipeline.Metrics is set.
	Metrics *obs.Registry
	// Cache, when non-nil, memoizes per-pair scores by content hash
	// (pattern bytes, text bytes, scoring, lane width). Cache hits take no
	// engine slot; a partially cached batch dispatches only its distinct
	// uncached pairs. Concurrent batches that miss the same pair each
	// score it. nil (the default) keeps the service byte-identical to the
	// uncached behaviour.
	Cache *aligncache.Cache
	// Wrap, when set, wraps the serving backend. It is the seam tests use
	// to inject failures or hold an engine slot; nil in production. The
	// scalar reference a failed batch falls back to is never wrapped.
	Wrap func(Backend) Backend
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = BackendBitwiseSim
	}
	if c.Lanes == 0 {
		c.Lanes = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Service is a long-lived batch-alignment service. Create with New, submit
// with Align (safe for concurrent use), and Close when done.
type Service struct {
	cfg Config
	// slots holds one token per batch scoring now; its capacity is
	// Config.Workers.
	slots     chan struct{}
	quit      chan struct{}
	closeOnce sync.Once

	// be is the serving backend, wrapped by Config.Wrap, and tier the tier
	// it reports; ref is the unwrapped scalar reference a failed batch
	// falls back to. stripedEng is the engine behind a striped backend,
	// kept for its Stats snapshot; nil on every other backend.
	be         Backend
	tier       Tier
	ref        Backend
	stripedEng *striped.Engine
	obs        *obs.Registry

	batches, batchesFailed, fallbacks, cpuFallbacks atomic.Int64
	deadlineHits, cancellations, panicsRecovered    atomic.Int64
}

// New returns the service. It panics on an unknown Config.Backend name —
// serving with a different engine than the operator asked for is worse
// than failing fast.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	pcfg := cfg.Pipeline
	if pcfg.Metrics == nil {
		// Hand the pipelines the service registry so one scrape sees the
		// whole stack.
		pcfg.Metrics = reg
	}
	be, err := NewBackend(cfg.Backend, pcfg, cfg.Lanes)
	if err != nil {
		panic(err.Error())
	}
	s := &Service{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Workers),
		quit:  make(chan struct{}),
		be:    be,
		ref:   &cpuBackend{scoring: scoringOf(pcfg)},
		obs:   reg,
	}
	s.tier, _ = backendTier(cfg.Backend) // NewBackend accepted the name
	if sb, ok := be.(*stripedBackend); ok {
		s.stripedEng = sb.eng
	}
	if cfg.Wrap != nil {
		s.be = cfg.Wrap(be)
	}
	reg.Help("alignsvc_queue_wait_seconds", "time a batch waited for an engine slot")
	reg.Help("alignsvc_batch_seconds", "slot-to-scores latency of successful batches, by serving tier")
	reg.Help("alignsvc_batches_total", "successful batches by serving tier")
	reg.Help("alignsvc_fallbacks_total", "batches re-scored on the CPU reference after their backend failed")
	return s
}

// Close refuses new work and returns once every batch scoring at the call
// has finished with its own result. Align calls waiting for a slot, and
// every later one, return ErrClosed.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		for range cap(s.slots) {
			s.slots <- struct{}{}
		}
	})
}

// Align scores one uniform batch of pairs. It blocks while every engine
// slot is taken (backpressure) and honours ctx at every stage: the slot
// wait, kernel-block boundaries and the CPU reference loop. On success the
// scores are exact; the report names the tier that served them.
//
// With Config.Cache set, pairs whose scores are already cached are served
// without taking a slot; only the uncached remainder is dispatched (see
// alignCached). Scores are exact either way — a cache hit
// is byte-identical to a recompute by key construction, whichever backend
// filled it (see aligncache.KeyOf).
func (s *Service) Align(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	if s.cfg.Cache.Enabled() {
		return s.alignCached(ctx, pairs)
	}
	return s.dispatch(ctx, pairs)
}

// Name reports the serving backend's name, so a Service can stand wherever
// a Backend is asked for.
func (s *Service) Name() string { return s.cfg.Backend }

// AlignBatch is the Backend face of the service: it scores pairs, which
// need not share a shape, through an engine slot, the serving backend and
// the one reference fallback, exactly as Align does without a cache. It
// never consults the cache: its callers (corpus search) score a query
// against candidates that do not repeat.
func (s *Service) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	res, err := s.dispatch(ctx, pairs)
	if err != nil {
		return nil, BatchStats{}, err
	}
	return res.Scores, BatchStats{}, nil
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

// dispatch is the uncached path: take an engine slot on the caller's
// goroutine, then score the batch while holding it.
func (s *Service) dispatch(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, s.noteCtxErr(ctx.Err())
	case <-s.quit:
		return nil, ErrClosed
	}
	defer func() { <-s.slots }()
	select {
	case <-s.quit: // Close has begun: start no new batch
		return nil, ErrClosed
	default:
	}
	wait := time.Since(start)
	s.obs.Histogram("alignsvc_queue_wait_seconds", obs.LatencyBuckets).ObserveDuration(wait)
	tr := obs.FromContext(ctx)
	tr.AddSpan("alignsvc.queue_wait", start, wait)
	defer tr.StartSpan("alignsvc.process")()
	return s.process(ctx, pairs)
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Backend:         s.cfg.Backend,
		Batches:         s.batches.Load(),
		BatchesFailed:   s.batchesFailed.Load(),
		Fallbacks:       s.fallbacks.Load(),
		CPUFallbacks:    s.cpuFallbacks.Load(),
		DeadlineHits:    s.deadlineHits.Load(),
		Cancellations:   s.cancellations.Load(),
		PanicsRecovered: s.panicsRecovered.Load(),
	}
	if s.stripedEng != nil {
		ss := s.stripedEng.Stats()
		st.Striped = &ss
	}
	return st
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

// process scores one batch on the serving backend. Any failure other than
// a context error sends the batch to the scalar reference, exactly once.
func (s *Service) process(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	start := time.Now()
	rep := Report{Tier: s.tier}
	scores, err := s.run(ctx, s.tier, s.be, pairs)
	if err != nil && !isCtxErr(err) {
		rep.Tier, rep.Fallbacks = TierCPU, 1
		s.fallbacks.Add(1)
		s.obs.Counter(obs.L("alignsvc_fallbacks_total", "from", s.tier.String())).Inc()
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
