// Package jobs runs durable async batch jobs of two kinds: alignment jobs,
// which score ranges of pairs through the synchronous alignment service,
// and search jobs, which score ranges of a mounted corpus's candidates for
// one query. Both go through one pipeline. A Manager admits each
// submission, splits the job into fixed-size chunks, scores them, and
// checkpoints each completed chunk to a jobstore WAL — so a crash, SIGKILL
// or drain loses at most the chunk in flight. On startup the manager
// replays the WAL and requeues every incomplete job, resuming from the last
// checkpoint: already-checkpointed chunks are skipped, never re-executed
// (the store rejects duplicate checkpoints outright). Only kind.go knows
// the kinds apart.
//
// Execution is a bounded pool: MaxConcurrent runner goroutines pull job IDs
// from a FIFO queue whose depth SubmitFor enforces (ErrQueueFull beyond
// it). Terminal jobs are garbage-collected after a TTL. BeginDrain stops
// runners at the next chunk boundary and requeues their jobs (running →
// queued in the WAL) instead of waiting for completion — the durable
// analogue of the server's graceful drain.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// Typed manager errors, mapped onto HTTP statuses by the server.
var (
	// ErrQueueFull rejects a submission when MaxQueued jobs are already
	// waiting (backpressure; retryable).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions during shutdown.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrNotReady is returned by ResultFor for a job that has no result yet.
	ErrNotReady = errors.New("jobs: job not finished")
	// ErrQuota rejects a submission that would exceed the tenant's
	// running-job cap (429 quota_exceeded at the server; retry after a job
	// finishes).
	ErrQuota = errors.New("jobs: tenant running-job quota exceeded")
)

// Config tunes the manager. Store and Service are required.
type Config struct {
	// Store is the WAL-backed job store (already opened and replayed).
	// The manager does not own it: callers Close it after Manager.Close.
	Store *jobstore.Store
	// Service executes the chunks. Shared with the synchronous /align path.
	Service *alignsvc.Service
	// ChunkSize is the number of pairs per chunk — the checkpoint (and
	// resume) granularity (default 64).
	ChunkSize int
	// Corpora, when set, enables search jobs against its mounted corpora.
	// Nil rejects search submissions with ErrNoCorpus.
	Corpora *corpus.Registry
	// SearchChunkSize is the number of corpus sequence IDs per search-job
	// chunk — the search checkpoint granularity (default 4096).
	SearchChunkSize int
	// MaxConcurrent bounds how many jobs execute at once (default 2).
	// MaxQueued bounds how many more may wait in FIFO order (default 64);
	// beyond that SubmitFor fails fast with ErrQueueFull.
	MaxConcurrent, MaxQueued int
	// ChunkTimeout is the per-chunk deadline flowing into the service
	// (default 60s). A chunk that exceeds it fails the job.
	ChunkTimeout time.Duration
	// TTL is how long terminal jobs stay queryable before GC drops them
	// from the store (default 15m). GCInterval is the sweep period
	// (default 1m).
	TTL, GCInterval time.Duration
	// Metrics receives job-state gauges, checkpoint/recovery counters and
	// chunk-latency histograms (default obs.Default()).
	Metrics *obs.Registry
	// Traces, when set, receives one trace per finished job run with spans
	// for every executed chunk (the server wires its /tracez ring here).
	Traces *obs.TraceRing
	// Tenants, when set, supplies per-tenant running-job caps enforced by
	// SubmitFor against the WAL-backed store (so quotas hold across
	// restarts). Nil means every tenant is unlimited.
	Tenants *tenant.Registry
	// EventBuffer is each progress subscriber's ring-buffer depth; a slow
	// SSE client beyond it loses its oldest events instead of slowing the
	// runners (default 16).
	EventBuffer int

	// now replaces the GC clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64
	}
	if c.SearchChunkSize <= 0 {
		c.SearchChunkSize = 4096
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.ChunkTimeout <= 0 {
		c.ChunkTimeout = 60 * time.Second
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// fifo is the unbounded job queue. SubmitFor bounds the jobs the store
// holds queued, while recovery may exceed the bound (durable jobs are never
// dropped for queue space). A job cancelled while queued stays in the fifo
// until a runner pops and skips it, but no longer counts against the bound.
type fifo struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []string
	closed bool
}

func newFIFO() *fifo {
	q := &fifo{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *fifo) push(id string) {
	q.mu.Lock()
	q.items = append(q.items, id)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next ID; ok is false once the queue is closed and
// empty of signals (drain/shutdown).
func (q *fifo) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return "", false
	}
	id := q.items[0]
	q.items = q.items[1:]
	return id, true
}

func (q *fifo) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Manager runs the durable job state machine. Create with New (which
// recovers and requeues incomplete jobs from the store), submit with
// SubmitFor, and shut down with BeginDrain + Drain + Close.
type Manager struct {
	cfg   Config
	store *jobstore.Store
	queue *fifo
	hub   *hub

	// admit serializes admission from the idempotency-key lookup through
	// the WAL append and the enqueue (see SubmitFor).
	admit sync.Mutex

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	gcQuit     chan struct{}
	gcDone     chan struct{}

	draining  chan struct{}
	drainOnce sync.Once
	closing   atomic.Bool

	running atomic.Int64

	submitted, dedupHits                          atomic.Int64
	completed, failed, cancelled                  atomic.Int64
	recovered, requeued                           atomic.Int64
	chunksExecuted, chunksCheckpointed            atomic.Int64
	chunksSkipped, gcDropped, recoveredChunksDone atomic.Int64

	obs *obs.Registry
}

// New builds the manager, initializes the state gauges from the replayed
// store, requeues every incomplete job (resuming from its checkpoints), and
// starts the runner pool and the GC sweep.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil || cfg.Service == nil {
		return nil, errors.New("jobs: Config.Store and Config.Service are required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      cfg.Store,
		queue:      newFIFO(),
		hub:        newHub(cfg.EventBuffer),
		baseCtx:    ctx,
		baseCancel: cancel,
		gcQuit:     make(chan struct{}),
		gcDone:     make(chan struct{}),
		draining:   make(chan struct{}),
		obs:        cfg.Metrics,
	}
	m.obs.Help("jobs_state", "Jobs currently in each state.")
	m.obs.Help("jobs_submitted_total", "Jobs accepted by SubmitFor (excluding idempotency dedup hits).")
	m.obs.Help("jobs_terminal_total", "Jobs reaching a terminal state, by state.")
	m.obs.Help("jobs_chunks_executed_total", "Chunks actually computed by the alignment service.")
	m.obs.Help("jobs_chunks_checkpointed_total", "Chunk score checkpoints appended to the WAL.")
	m.obs.Help("jobs_chunks_skipped_total", "Already-checkpointed chunks skipped on resume.")
	m.obs.Help("jobs_recovered_total", "Incomplete jobs requeued by startup recovery.")
	m.obs.Help("jobs_requeued_total", "Running jobs checkpointed and requeued by drain.")
	m.obs.Help("jobs_chunk_seconds", "Wall time per executed chunk.")

	// Recovery: every incomplete job in the replayed store goes back on the
	// FIFO in submission order. Jobs the crash left "running" are returned
	// to queued first, so the WAL and the gauges agree with reality.
	for _, j := range m.store.List() {
		switch j.State {
		case jobstore.StateRunning:
			if _, err := m.store.SetState(j.ID, jobstore.StateQueued, ""); err != nil {
				return nil, fmt.Errorf("jobs: recover %s: %w", j.ID, err)
			}
			fallthrough
		case jobstore.StateQueued:
			m.queue.push(j.ID)
			m.recovered.Add(1)
			m.recoveredChunksDone.Add(int64(j.ChunksDone()))
			m.obs.Counter("jobs_recovered_total").Inc()
		}
	}
	m.refreshStateGauges()

	m.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go m.runner()
	}
	go m.gcLoop()
	return m, nil
}

// refreshStateGauges re-derives the per-state job gauges from the store.
func (m *Manager) refreshStateGauges() {
	counts := m.store.StateCounts()
	for _, st := range []jobstore.State{jobstore.StateQueued, jobstore.StateRunning,
		jobstore.StateDone, jobstore.StateFailed, jobstore.StateCancelled} {
		m.obs.Gauge(obs.L("jobs_state", "state", st.String())).Set(float64(counts[st]))
	}
}

// newJobID returns a fresh random job ID, re-rolling on the (cosmic-ray)
// chance of a collision with a live job.
func (m *Manager) newJobID() string {
	for {
		id := fmt.Sprintf("job-%016x", rand.Uint64())
		if _, exists := m.store.Get(id); !exists {
			return id
		}
	}
}

// normalizeTenant maps the wire tenant ID onto the store's owner field:
// the anonymous tenant is stored as "" (matching pre-tenancy WAL records).
func normalizeTenant(id string) string {
	if id == tenant.AnonymousID {
		return ""
	}
	return id
}

// displayTenant is the inverse of normalizeTenant, for errors and wire
// output.
func displayTenant(id string) string {
	if id == "" {
		return tenant.AnonymousID
	}
	return id
}

// storeKey namespaces an idempotency key by owning tenant, so equal keys
// from different tenants deduplicate independently (and one tenant can
// never be handed another tenant's job by key collision). Anonymous keys
// stay bare for WAL back-compat. The NUL separator cannot appear in either
// side: tenant.NewRegistry rejects NUL in tenant IDs and SubmitFor (plus
// the server's request validation) rejects NUL in client keys, so the
// namespacing is not forgeable through the JSON body.
func storeKey(tenantID, key string) string {
	if key == "" || tenantID == "" {
		return key
	}
	return tenantID + "\x00" + key
}

// SubmitFor persists a new job owned by a tenant and queues it, returning
// its snapshot. A non-empty idempotency key that matches one of the
// tenant's live jobs returns that job instead (created=false) — re-sent
// submissions are deduplicated, not re-executed. Submissions beyond the
// tenant's MaxRunningJobs cap fail with ErrQuota, and beyond MaxQueued
// waiting jobs with ErrQueueFull. Admission is atomic: the key lookup,
// both bounds, the WAL append and the enqueue happen under one lock, so
// concurrent submissions can neither create two jobs for one key nor
// overshoot a bound.
func (m *Manager) SubmitFor(req Request, key, tenantID string) (snap Snapshot, created bool, err error) {
	if m.Draining() {
		return Snapshot{}, false, ErrDraining
	}
	if strings.ContainsRune(key, 0) {
		return Snapshot{}, false, errors.New("jobs: idempotency key must not contain NUL bytes")
	}
	sub, err := m.record(req)
	if err != nil {
		return Snapshot{}, false, err
	}
	sub.Tenant = normalizeTenant(tenantID)
	sub.Key = storeKey(sub.Tenant, key)

	m.admit.Lock()
	defer m.admit.Unlock()
	if sub.Key != "" {
		if j, ok := m.store.ByKey(sub.Key); ok && j.Tenant == sub.Tenant {
			m.dedupHits.Add(1)
			m.obs.Counter("jobs_dedup_hits_total").Inc()
			return m.snapshot(j), false, nil
		}
	}
	if max := m.cfg.Tenants.MaxRunningJobs(sub.Tenant); max > 0 {
		if live := m.store.ActiveByTenant(sub.Tenant); live >= max {
			return Snapshot{}, false, fmt.Errorf("%w: tenant %q has %d live job(s), cap %d",
				ErrQuota, displayTenant(sub.Tenant), live, max)
		}
	}
	if m.store.StateCounts()[jobstore.StateQueued] >= m.cfg.MaxQueued {
		return Snapshot{}, false, fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	sub.ID = m.newJobID()
	j, err := m.store.Submit(sub)
	if err != nil {
		return Snapshot{}, false, err
	}
	m.submitted.Add(1)
	m.obs.Counter("jobs_submitted_total").Inc()
	m.refreshStateGauges()
	snap = m.snapshot(j)
	m.hub.publish(j.ID, EventState, snap)
	m.queue.push(j.ID)
	return snap, true, nil
}

// owned fetches a job iff the tenant owns it. Another tenant's job answers
// ErrNotFound — existence itself is tenant-private.
func (m *Manager) owned(id, tenantID string) (*jobstore.Job, error) {
	j, ok := m.store.Get(id)
	if !ok || j.Tenant != normalizeTenant(tenantID) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// GetFor returns a snapshot of one of the tenant's jobs.
func (m *Manager) GetFor(id, tenantID string) (Snapshot, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return Snapshot{}, err
	}
	return m.snapshot(j), nil
}

// Result is a job's outcome. A done job carries Scores (alignment: one
// exact score per pair) or Hits (search: the ranked top-K); a failed or
// cancelled job carries only its snapshot, whose State and Error say why.
type Result struct {
	Job    Snapshot
	Scores []int
	Hits   []corpus.Hit
}

// ResultFor returns the outcome of one of the tenant's jobs. A job that is
// not terminal yet fails with ErrNotReady.
func (m *Manager) ResultFor(id, tenantID string) (Result, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return Result{}, err
	}
	res := Result{Job: m.snapshot(j)}
	switch j.State {
	case jobstore.StateFailed, jobstore.StateCancelled:
		return res, nil
	case jobstore.StateDone:
	default:
		return res, fmt.Errorf("%w: %s is %s", ErrNotReady, id, j.State)
	}
	out, err := j.Result()
	if err != nil {
		return res, err
	}
	res.Scores = out.Scores
	if j.Kind == jobstore.KindSearch {
		res.Hits = rankHits(out.Hits, j.Search.TopK)
	}
	return res, nil
}

// CancelFor moves one of the tenant's jobs to cancelled. Queued jobs are
// cancelled in place (the runner skips them); running jobs are cancelled
// authoritatively in the store, and the runner's next write observes the
// terminal state and stops. Cancelling an already-terminal job is a no-op.
func (m *Manager) CancelFor(id, tenantID string) (Snapshot, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return Snapshot{}, err
	}
	if j.State.Terminal() {
		return m.snapshot(j), nil
	}
	if _, err := m.store.SetState(id, jobstore.StateCancelled, ""); err != nil {
		// A racing transition (the runner finishing this instant) may win;
		// surface the job as it now is.
		if j2, ok := m.store.Get(id); ok && j2.State.Terminal() {
			return m.snapshot(j2), nil
		}
		return Snapshot{}, err
	}
	m.cancelled.Add(1)
	m.obs.Counter(obs.L("jobs_terminal_total", "state", "cancelled")).Inc()
	m.refreshStateGauges()
	m.publishEvent(id, EventState)
	j, _ = m.store.Get(id)
	return m.snapshot(j), nil
}

// EventsFor subscribes to a job's live progress feed, scoped to the owning
// tenant. The subscription is seeded with a snapshot event carrying the
// job's current progress (so a late subscriber replays the last
// checkpoint), then receives a state event per transition and a chunk
// event per checkpoint. The caller must Close the subscription.
func (m *Manager) EventsFor(id, tenantID string) (*Sub, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return nil, err
	}
	return m.hub.subscribe(id, m.snapshot(j)), nil
}

// publishEvent publishes the job's current store state on its feed.
func (m *Manager) publishEvent(id, typ string) {
	if j, ok := m.store.Get(id); ok {
		m.hub.publish(id, typ, m.snapshot(j))
	}
}

// BeginDrain stops runners at their next chunk boundary (requeueing their
// jobs) and makes SubmitFor fail fast. Queued jobs stay queued — they are
// durable and resume on the next start. Safe to call more than once.
func (m *Manager) BeginDrain() {
	m.drainOnce.Do(func() {
		close(m.draining)
		m.queue.close()
		// Progress feeds end with a drain event; SSE handlers unblock
		// immediately instead of stalling the HTTP server's shutdown.
		m.hub.close()
	})
}

// Draining reports whether BeginDrain has been called.
func (m *Manager) Draining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// Drain blocks until every runner has checkpointed and parked its job, or
// ctx expires. It implies BeginDrain.
func (m *Manager) Drain(ctx context.Context) error {
	m.BeginDrain()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if m.running.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("jobs: drain: %d job(s) still running: %w", m.running.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// Close hard-stops the manager: the runner pool and GC exit without
// waiting for chunk boundaries (in-flight chunks are abandoned exactly as a
// crash would abandon them — the WAL keeps those jobs resumable). For a
// graceful stop, Drain first.
func (m *Manager) Close() {
	m.closing.Store(true)
	m.baseCancel()
	m.BeginDrain()
	m.wg.Wait()
	close(m.gcQuit)
	<-m.gcDone
}

// runner is one slot of the bounded pool: pull a job ID, run it to a
// terminal state (or a drain/crash boundary), repeat.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		id, ok := m.queue.pop()
		if !ok {
			return
		}
		m.runJob(id)
	}
}

// runJob claims one job, runs it, and moves it to the state its run ended
// in.
func (m *Manager) runJob(id string) {
	// Claim: queued → running. Losing this transition means the job was
	// cancelled while queued — nothing to do.
	if _, err := m.store.SetState(id, jobstore.StateRunning, ""); err != nil {
		return
	}
	m.running.Add(1)
	defer m.running.Add(-1)
	m.refreshStateGauges()
	m.publishEvent(id, EventState)

	j, ok := m.store.Get(id)
	if !ok {
		return
	}
	tr := obs.NewTrace("")
	endJob := tr.StartSpan("jobs.run." + id)
	to, msg, ok := m.run(obs.WithTrace(m.baseCtx, tr), tr, j)
	endJob()
	if ok {
		m.finish(id, to, msg)
	}
	m.refreshStateGauges()
	if m.cfg.Traces != nil {
		m.cfg.Traces.Add(tr)
	}
}

// run executes j's unfinished chunks in order, checkpointing each, and
// returns the state to move the job to: done, failed with a message, or
// queued when a drain parks it at a chunk boundary. It resumes past chunks
// that are already checkpointed (recovery). ok is false when the job must
// stay as the store has it: cancelled or dropped underneath the run, or
// abandoned by a hard stop, which leaves it running in the WAL exactly
// like a crash (the next open recovers and resumes it).
func (m *Manager) run(ctx context.Context, tr *obs.Trace, j *jobstore.Job) (to jobstore.State, msg string, ok bool) {
	score, err := m.prepare(j)
	if err != nil {
		return jobstore.StateFailed, err.Error(), true
	}
	chunkLat := m.obs.Histogram("jobs_chunk_seconds", obs.LatencyBuckets)
	n := j.NumChunks()
	for c := 0; c < n; c++ {
		if _, done := j.Chunks[c]; done {
			// Checkpointed before a crash or drain: skip, never re-execute.
			m.chunksSkipped.Add(1)
			m.obs.Counter("jobs_chunks_skipped_total").Inc()
			continue
		}
		if m.closing.Load() {
			return 0, "", false
		}
		if m.Draining() {
			return jobstore.StateQueued, "", true // checkpoint-and-requeue
		}
		if !m.stillRunning(j.ID) {
			return 0, "", false
		}

		lo, hi := j.ChunkBounds(c)
		chunkCtx, cancel := context.WithTimeout(ctx, m.cfg.ChunkTimeout)
		endChunk := tr.StartSpan(fmt.Sprintf("jobs.chunk.%d", c))
		begin := time.Now()
		ck, err := score(chunkCtx, lo, hi)
		cancel()
		endChunk()
		if err == nil {
			m.chunksExecuted.Add(1)
			m.obs.Counter("jobs_chunks_executed_total").Inc()
			chunkLat.ObserveDuration(time.Since(begin))
			if err = m.store.AddChunk(j.ID, c, ck); err != nil {
				err = fmt.Errorf("checkpoint: %w", err)
			}
		}
		if err != nil {
			if m.closing.Load() || !m.stillRunning(j.ID) {
				return 0, "", false // hard stop, or cancelled mid-chunk
			}
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				return jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: deadline exceeded after %v",
					c, n, m.cfg.ChunkTimeout), true
			case errors.Is(err, context.Canceled):
				return jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: canceled", c, n), true
			}
			return jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: %v", c, n, err), true
		}
		m.chunksCheckpointed.Add(1)
		m.obs.Counter("jobs_chunks_checkpointed_total").Inc()
		m.publishEvent(j.ID, EventChunk)
	}
	return jobstore.StateDone, "", true
}

// stillRunning reports whether the store still has the job running: a
// cancel (or a GC drop) underneath a run ends it.
func (m *Manager) stillRunning(id string) bool {
	j, ok := m.store.Get(id)
	return ok && j.State == jobstore.StateRunning
}

// finish moves a run's job to its end state, counting and publishing the
// transition. It loses quietly to a cancel that landed first.
func (m *Manager) finish(id string, to jobstore.State, msg string) {
	if _, err := m.store.SetState(id, to, msg); err != nil {
		return
	}
	switch to {
	case jobstore.StateDone:
		m.completed.Add(1)
		m.obs.Counter(obs.L("jobs_terminal_total", "state", "done")).Inc()
	case jobstore.StateFailed:
		m.failed.Add(1)
		m.obs.Counter(obs.L("jobs_terminal_total", "state", "failed")).Inc()
	case jobstore.StateQueued:
		m.requeued.Add(1)
		m.obs.Counter("jobs_requeued_total").Inc()
	}
	m.publishEvent(id, EventState)
}

// gcLoop drops terminal jobs older than TTL on every sweep.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-m.gcQuit:
			return
		case <-t.C:
			m.gcOnce()
		}
	}
}

// gcOnce performs one GC sweep (exported to tests via gc_test hooks).
func (m *Manager) gcOnce() {
	cutoff := m.cfg.now().Add(-m.cfg.TTL)
	for _, j := range m.store.List() {
		if j.State.Terminal() && j.Updated.Before(cutoff) {
			if _, err := m.store.Drop(j.ID); err == nil {
				m.gcDropped.Add(1)
				m.obs.Counter("jobs_gc_dropped_total").Inc()
			}
		}
	}
	m.refreshStateGauges()
}

// Stats snapshots the manager counters for /statsz.
func (m *Manager) Stats() Stats {
	counts := m.store.StateCounts()
	return Stats{
		Submitted:          m.submitted.Load(),
		DedupHits:          m.dedupHits.Load(),
		Completed:          m.completed.Load(),
		Failed:             m.failed.Load(),
		Cancelled:          m.cancelled.Load(),
		Recovered:          m.recovered.Load(),
		RecoveredChunks:    m.recoveredChunksDone.Load(),
		Requeued:           m.requeued.Load(),
		ChunksExecuted:     m.chunksExecuted.Load(),
		ChunksCheckpointed: m.chunksCheckpointed.Load(),
		ChunksSkipped:      m.chunksSkipped.Load(),
		GCDropped:          m.gcDropped.Load(),
		Queued:             int64(counts[jobstore.StateQueued]),
		Running:            int64(counts[jobstore.StateRunning]),
		JobsHeld:           int64(m.store.Len()),
		MaxQueued:          int64(m.cfg.MaxQueued),
	}
}
