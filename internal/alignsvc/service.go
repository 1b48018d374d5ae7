// Package alignsvc is the resilient batch-alignment service layer: it puts
// every scoring engine — the simulated GPU pipelines, the native striped
// CPU engine and the scalar reference — behind one pluggable Backend seam,
// wrapped in a bounded worker pool with backpressure and a fault-tolerance
// ladder. Each batch is retried with exponential backoff and jitter on
// transient device faults, validated against a CPU-reference sample (for
// backends that are not exact by construction), and degraded through its
// backend's ladder, e.g.
//
//	bitwise GPU pipeline → wordwise GPU pipeline → CPU swa.Score
//	striped CPU engine → CPU swa.Score
//
// until a rung produces trustworthy scores, so callers always receive
// correct results (or a context error) together with a per-batch Report of
// attempts, fallbacks and injected faults. The default backend is chosen by
// Config.Backend; Align uses it, AlignBackend overrides it per request.
// Kernel panics are converted into errors instead of killing the process,
// and service-level counters are exposed through Stats for the
// observability layers to build on.
package alignsvc

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aligncache"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// ErrClosed is returned by Align after Close.
var ErrClosed = errors.New("alignsvc: service closed")

// ValidationError reports a score that disagreed with the CPU reference
// (the signature of silent device-memory corruption).
type ValidationError struct {
	Index     int
	Got, Want int
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("alignsvc: score validation failed at pair %d: got %d, want %d",
		e.Index, e.Got, e.Want)
}

// Config tunes the service. The zero value is usable: bitwise tier first,
// GOMAXPROCS workers, three attempts per tier, millisecond-scale backoff,
// 5%% score validation, no fault injection.
type Config struct {
	// Backend selects the default serving engine and its degradation
	// ladder by name: BackendBitwiseSim (also the "" default, preserving
	// the classic sim ladder), BackendWordwiseSim, BackendStriped or
	// BackendCPURef. Every ladder ends at the CPU reference. New panics on
	// an unknown name — a misspelled backend must not silently serve with a
	// different engine.
	Backend string
	// Pipeline is the base GPU-pipeline configuration (scoring, device,
	// lane behaviour). Its Faults field is overwritten per attempt.
	Pipeline pipeline.Config
	// Lanes selects the bitwise lane width, 32 (default) or 64.
	Lanes int
	// Workers bounds how many batches run concurrently (default
	// GOMAXPROCS). Queue bounds how many more may wait (default Workers);
	// beyond that, Align blocks — the backpressure signal.
	Workers, Queue int
	// MaxAttempts is the number of tries per GPU tier before degrading
	// (default 3). The CPU tier always gets exactly one try.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// same-tier retries (defaults 1ms and 50ms). Jitter halves the low end.
	BaseBackoff, MaxBackoff time.Duration
	// ValidateFrac is the fraction of each batch's scores re-checked
	// against the CPU reference (default 0.05; >= 1 checks every score,
	// negative disables validation). Validation failures count as attempt
	// failures and trigger retry/degradation.
	ValidateFrac float64
	// Seed drives jitter, validation sampling, and the per-attempt fault
	// streams, making whole-service runs reproducible.
	Seed uint64
	// Faults enables deterministic fault injection on every GPU attempt.
	// Each attempt derives its own stream from Faults.Seed, the batch
	// number and the attempt number, so retries see fresh faults.
	Faults cudasim.FaultConfig
	// BreakerFailures is how many consecutive batch-level failures of a GPU
	// tier trip its circuit breaker open (default 5; negative disables the
	// breakers). While a breaker is open the ladder skips that tier
	// entirely instead of paying the retry ladder on every batch.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// single half-open probe batch is let through (default 500ms). The
	// probe's success closes the breaker; its failure re-opens it.
	BreakerCooldown time.Duration
	// Metrics receives the service's queue-wait and batch-latency
	// histograms plus retry/fallback/breaker counters (nil = obs.Default()).
	// It is also handed to the pipelines unless Pipeline.Metrics is set.
	Metrics *obs.Registry
	// Cache, when non-nil, memoizes per-pair scores by content hash
	// (pattern bytes, text bytes, scoring, lane width). Cache hits bypass
	// the worker pool, the circuit breakers and the retry ladder entirely;
	// a partially cached batch dispatches only its uncached remainder, and
	// concurrent identical pairs coalesce onto one computation. nil (the
	// default) keeps the service byte-identical to the uncached behaviour.
	Cache *aligncache.Cache

	// sleep replaces the backoff sleep in tests.
	sleep func(context.Context, time.Duration) error
	// now replaces the breaker clock in tests.
	now func() time.Time
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
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 50 * time.Millisecond
	}
	if c.ValidateFrac == 0 {
		c.ValidateFrac = 0.05
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

type job struct {
	ctx       context.Context
	pairs     []dna.Pair
	backend   string // serving backend (validated before enqueue)
	seq       uint64
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
	batchSeq  atomic.Uint64

	// backends holds one Backend per tier; process routes every attempt
	// through this seam. stripedEng is the native engine behind
	// backends[TierStriped], kept for its Stats snapshot.
	backends   [numTiers]Backend
	stripedEng *striped.Engine

	// breakers holds the per-tier circuit breakers; the exact rungs (CPU
	// reference and striped engine) stay nil — they cannot be tripped.
	// faults is the live fault config, swappable at runtime via SetFaults
	// for chaos harnesses.
	breakers [numTiers]*breaker
	faults   atomic.Pointer[cudasim.FaultConfig]
	obs      *obs.Registry

	batches, batchesFailed, retries, fallbacks atomic.Int64
	cpuFallbacks, deadlineHits, cancellations  atomic.Int64
	panicsRecovered, faultsInjected            atomic.Int64
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
	s.stripedEng = striped.New(striped.Config{})
	s.backends[TierBitwise] = &simBackend{name: BackendBitwiseSim, tier: TierBitwise, svc: s}
	s.backends[TierWordwise] = &simBackend{name: BackendWordwiseSim, tier: TierWordwise, svc: s}
	s.backends[TierStriped] = &stripedBackend{eng: s.stripedEng, scoring: s.scoring}
	s.backends[TierCPU] = &cpuBackend{scoring: s.scoring}
	reg.Help("alignsvc_queue_wait_seconds", "time a batch waited for a worker")
	reg.Help("alignsvc_batch_seconds", "dequeue-to-scores latency of successful batches, by serving tier")
	reg.Help("alignsvc_batches_total", "successful batches by serving tier")
	reg.Help("alignsvc_retries_total", "same-tier re-runs after a failed attempt")
	reg.Help("alignsvc_fallbacks_total", "tier downgrades after exhausting a tier")
	reg.Help("alignsvc_breaker_transitions_total", "circuit-breaker state transitions by tier")
	reg.Help("alignsvc_breaker_state", "current breaker state (0 closed, 1 open, 2 half-open)")
	f := cfg.Faults
	s.faults.Store(&f)
	if cfg.BreakerFailures > 0 {
		for _, t := range []Tier{TierBitwise, TierWordwise} {
			b := newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.now)
			state := reg.Gauge(obs.L("alignsvc_breaker_state", "tier", t.String()))
			state.Set(float64(BreakerClosed))
			tier := t.String()
			b.onTransition = func(to BreakerState) {
				reg.Counter(obs.L("alignsvc_breaker_transitions_total",
					"tier", tier, "to", to.String())).Inc()
				state.Set(float64(to))
			}
			s.breakers[t] = b
		}
	}
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// SetFaults replaces the fault-injection config for all future attempts.
// Chaos harnesses use it to start and stop fault storms against a live
// service (and to let tripped breakers recover via their probes).
func (s *Service) SetFaults(f cudasim.FaultConfig) {
	s.faults.Store(&f)
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
			batch, err := s.process(j.ctx, j.pairs, j.seq, j.backend)
			endSvc()
			j.res <- jobResult{batch, err}
		}
	}
}

// Align scores one uniform batch of pairs through the default backend's
// degradation ladder. It blocks while the queue is full (backpressure) and
// honours ctx at every stage: submission, retry backoff, kernel-block
// boundaries, and the CPU fallback loop. On success the scores are exact;
// the report says how many attempts, fallbacks and injected faults it took
// to get them.
//
// With Config.Cache set, pairs whose scores are already cached are served
// without touching the worker pool, breakers or retry ladder; only the
// uncached remainder is dispatched (see alignCached). Scores are exact
// either way — a cache hit is byte-identical to a recompute by key
// construction, whichever backend filled it (see aligncache.KeyOf).
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
// served by the named backend's ladder instead of the configured default.
// An unknown name fails before any work is enqueued.
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
	j := &job{ctx: ctx, pairs: pairs, backend: backend, seq: s.batchSeq.Add(1),
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

// Stats snapshots the service counters, including the per-tier circuit
// breaker states.
func (s *Service) Stats() Stats {
	defaultBackend := s.cfg.Backend
	if defaultBackend == "" {
		defaultBackend = BackendBitwiseSim
	}
	st := Stats{
		Backend:         defaultBackend,
		Batches:         s.batches.Load(),
		BatchesFailed:   s.batchesFailed.Load(),
		Retries:         s.retries.Load(),
		Fallbacks:       s.fallbacks.Load(),
		CPUFallbacks:    s.cpuFallbacks.Load(),
		DeadlineHits:    s.deadlineHits.Load(),
		Cancellations:   s.cancellations.Load(),
		PanicsRecovered: s.panicsRecovered.Load(),
		FaultsInjected:  s.faultsInjected.Load(),
	}
	for _, t := range []Tier{TierBitwise, TierWordwise} {
		snap, trips, shorts, probes := s.breakers[t].snapshot(t)
		st.Breakers = append(st.Breakers, snap)
		st.BreakerTrips += trips
		st.BreakerShortCircuits += shorts
		st.BreakerProbes += probes
	}
	ss := s.stripedEng.Stats()
	st.Striped = &ss
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

// ladder returns the degradation ladder for a backend: the backend's own
// rung first, then the cheaper rungs it degrades through, always ending at
// the CPU reference.
func (s *Service) ladder(backend string) []Tier {
	switch backend {
	case BackendWordwiseSim:
		return []Tier{TierWordwise, TierCPU}
	case BackendStriped:
		return []Tier{TierStriped, TierCPU}
	case BackendCPURef:
		return []Tier{TierCPU}
	default: // BackendBitwiseSim and ""
		return []Tier{TierBitwise, TierWordwise, TierCPU}
	}
}

// process walks the backend's degradation ladder for one batch, consulting
// each simulated tier's circuit breaker before paying for its attempts.
func (s *Service) process(ctx context.Context, pairs []dna.Pair, seq uint64, backend string) (*BatchResult, error) {
	rep := Report{}
	start := s.cfg.now()
	rng := rand.New(rand.NewPCG(s.cfg.Seed^seq, 0xa1195c7e))
	var lastErr error
	ladder := s.ladder(backend)
	for li, tier := range ladder {
		allowed, probe := s.breakers[tier].allow()
		if !allowed {
			rep.Skips = append(rep.Skips, tier)
			s.obs.Counter(obs.L("alignsvc_breaker_skips_total", "tier", tier.String())).Inc()
			continue
		}
		endTier := obs.FromContext(ctx).StartSpan("alignsvc.tier." + tier.String())
		res, err := s.runTierAttempts(ctx, tier, pairs, seq, rng, &rep)
		endTier()
		switch {
		case err == nil:
			s.breakers[tier].release(tierSucceeded, probe)
			res.Report.Elapsed = s.cfg.now().Sub(start)
			s.obs.Histogram(obs.L("alignsvc_batch_seconds", "tier", tier.String()),
				obs.LatencyBuckets).ObserveDuration(res.Report.Elapsed)
			return res, nil
		case isCtxErr(err):
			s.breakers[tier].release(tierAbandoned, probe)
			return nil, s.noteCtxErr(err)
		default:
			s.breakers[tier].release(tierFailed, probe)
			lastErr = err
			if li+1 < len(ladder) {
				rep.Fallbacks++
				s.fallbacks.Add(1)
				s.obs.Counter(obs.L("alignsvc_fallbacks_total", "from", tier.String())).Inc()
			}
		}
	}
	s.batchesFailed.Add(1)
	s.obs.Counter("alignsvc_batches_failed_total").Inc()
	return nil, fmt.Errorf("alignsvc: all tiers exhausted (%s): %w", rep.String(), lastErr)
}

// runTierAttempts runs up to MaxAttempts tries of one tier with backoff,
// recording every attempt in rep. It returns the batch result on success, a
// bare context error on cancellation, or the last attempt error once the
// tier is exhausted.
func (s *Service) runTierAttempts(ctx context.Context, tier Tier, pairs []dna.Pair, seq uint64, rng *rand.Rand, rep *Report) (*BatchResult, error) {
	attempts := s.cfg.MaxAttempts
	exact := s.backends[tier].Capabilities().Exact
	if exact {
		// Exact backends (striped, CPU reference) have no transient device
		// faults to retry through: one attempt, and any failure is either a
		// context error or a bug.
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scores, counts, err := s.runTier(ctx, tier, pairs, seq, uint64(int(tier)*attempts+a))
		rep.Faults.HtoD += counts.HtoD
		rep.Faults.DtoH += counts.DtoH
		rep.Faults.Alloc += counts.Alloc
		rep.Faults.Launch += counts.Launch
		rep.Faults.BitFlips += counts.BitFlips
		s.faultsInjected.Add(int64(counts.Total()))
		s.obs.Counter("alignsvc_faults_injected_total").Add(int64(counts.Total()))
		at := Attempt{Tier: tier, Faults: counts}
		if err == nil && !exact {
			var checked int
			checked, err = s.validate(ctx, pairs, scores, rng)
			rep.Validated += checked
			var ve *ValidationError
			at.ValidationFailed = errors.As(err, &ve)
		}
		if err == nil {
			rep.Attempts = append(rep.Attempts, at)
			rep.Tier = tier
			s.batches.Add(1)
			s.obs.Counter(obs.L("alignsvc_batches_total", "tier", tier.String())).Inc()
			if tier == TierCPU {
				s.cpuFallbacks.Add(1)
			}
			return &BatchResult{Scores: scores, Report: *rep}, nil
		}
		at.Err = err.Error()
		rep.Attempts = append(rep.Attempts, at)
		if at.ValidationFailed {
			s.obs.Counter(obs.L("alignsvc_validation_failures_total", "tier", tier.String())).Inc()
		}
		if isCtxErr(err) {
			return nil, err
		}
		lastErr = err
		if a+1 < attempts {
			rep.Retries++
			s.retries.Add(1)
			s.obs.Counter(obs.L("alignsvc_retries_total", "tier", tier.String())).Inc()
			if err := s.backoff(ctx, a, rng); err != nil {
				return nil, err
			}
		}
	}
	return nil, lastErr
}

// runTier executes one attempt of one tier through its Backend, converting
// panics to errors and collecting the attempt's injected-fault counts.
func (s *Service) runTier(ctx context.Context, tier Tier, pairs []dna.Pair, seq, attempt uint64) (scores []int, counts cudasim.FaultCounts, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			s.obs.Counter(obs.L("alignsvc_panics_recovered_total", "tier", tier.String())).Inc()
			err = fmt.Errorf("alignsvc: recovered %s-tier panic: %v", tier, r)
		}
	}()
	scores, st, err := s.backends[tier].AlignBatch(ctx, pairs, BatchOpts{Seq: seq, Attempt: attempt})
	return scores, st.Faults, err
}

func (s *Service) scoring() swa.Scoring {
	if s.cfg.Pipeline.Scoring == (swa.Scoring{}) {
		return swa.PaperScoring
	}
	return s.cfg.Pipeline.Scoring
}

// Scoring reports the effective scoring scheme the service aligns with.
// The cluster layer uses it to derive the same cache keys this service
// derives, so consistent-hash routing lands forwards on warm caches.
func (s *Service) Scoring() swa.Scoring { return s.scoring() }

// Lanes reports the effective bitwise lane width (32 or 64), the other
// input of the content-address cache key.
func (s *Service) Lanes() int { return s.cfg.Lanes }

// validate re-scores a sample of the batch on the CPU reference and fails
// on the first disagreement. Returns how many pairs were checked.
func (s *Service) validate(ctx context.Context, pairs []dna.Pair, scores []int, rng *rand.Rand) (int, error) {
	if s.cfg.ValidateFrac < 0 || len(pairs) == 0 {
		return 0, nil
	}
	if len(scores) != len(pairs) {
		return 0, fmt.Errorf("alignsvc: got %d scores for %d pairs", len(scores), len(pairs))
	}
	sc := s.scoring()
	check := func(i int) error {
		if want := swa.Score(pairs[i].X, pairs[i].Y, sc); scores[i] != want {
			return &ValidationError{Index: i, Got: scores[i], Want: want}
		}
		return nil
	}
	if s.cfg.ValidateFrac >= 1 {
		for i := range pairs {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return i, err
				}
			}
			if err := check(i); err != nil {
				return i + 1, err
			}
		}
		return len(pairs), nil
	}
	n := max(1, int(float64(len(pairs))*s.cfg.ValidateFrac))
	for k := 0; k < n; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return k, err
			}
		}
		if err := check(rng.IntN(len(pairs))); err != nil {
			return k + 1, err
		}
	}
	return n, nil
}

// backoff sleeps base·2^attempt with half-interval jitter, capped at
// MaxBackoff, honouring the context.
func (s *Service) backoff(ctx context.Context, attempt int, rng *rand.Rand) error {
	d := s.cfg.BaseBackoff << attempt
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	d = d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
	return s.cfg.sleep(ctx, d)
}
