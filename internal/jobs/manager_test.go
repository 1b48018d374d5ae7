package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/swa"
)

// testBatch returns count deterministic pairs and their reference scores.
func testBatch(seed uint64, count int) ([]dna.Pair, []int) {
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	pairs := dna.RandomPairs(rng, count, 8, 16)
	want := make([]int, count)
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return pairs, want
}

// newTestService builds a fast two-worker service; wrap, when set, wraps
// its backends (Config.Wrap).
func newTestService(t *testing.T, wrap func(alignsvc.Backend) alignsvc.Backend) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Workers: 2,
		Wrap:    wrap,
		Metrics: obs.NewRegistry(),
	})
	t.Cleanup(svc.Close)
	return svc
}

// newSlowService builds a service where every chunk holds its worker for
// 150 ms — a timer, not CPU — before the scalar reference scores it: long
// enough for tests to observe jobs mid-flight, with exact scores.
func newSlowService(t *testing.T) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Backend: alignsvc.BackendCPURef,
		Workers: 2,
		Wrap: func(be alignsvc.Backend) alignsvc.Backend {
			return slowBackend{Backend: be, delay: 150 * time.Millisecond}
		},
		Metrics: obs.NewRegistry(),
	})
	t.Cleanup(svc.Close)
	return svc
}

// errStorm is the failure flakyWrap injects.
var errStorm = errors.New("injected backend failure")

// flakyBackend fails a seeded share of its engine calls before they run,
// standing in for a backend that rejects batches.
type flakyBackend struct {
	alignsvc.Backend
	rate float64

	mu  sync.Mutex
	rng *rand.Rand
}

func (b *flakyBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	b.mu.Lock()
	fail := b.rng.Float64() < b.rate
	b.mu.Unlock()
	if fail {
		return nil, alignsvc.BatchStats{}, errStorm
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// flakyWrap is a Config.Wrap failing rate of every backend's calls, seeded
// so a failing run replays.
func flakyWrap(rate float64, seed uint64) func(alignsvc.Backend) alignsvc.Backend {
	return func(be alignsvc.Backend) alignsvc.Backend {
		seed++
		return &flakyBackend{Backend: be, rate: rate, rng: rand.New(rand.NewPCG(seed, 0xc4a05))}
	}
}

func newTestManager(t *testing.T, dir string, svc *alignsvc.Service, tweak func(*Config)) (*Manager, *jobstore.Store) {
	t.Helper()
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:        store,
		Service:      svc,
		ChunkSize:    4,
		ChunkTimeout: 30 * time.Second,
		Metrics:      obs.NewRegistry(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return m, store
}

func waitState(t *testing.T, m *Manager, id string, want jobstore.State, d time.Duration) Snapshot {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached terminal %s (%s), want %s", id, snap.State, snap.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d chunks), want %s",
				id, snap.State, snap.ChunksDone, snap.Chunks, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, nil)
	defer store.Close()
	defer m.Close()

	pairs, want := testBatch(1, 10)
	snap, created, err := m.Submit(pairs, "key-a")
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if snap.Chunks != 3 || snap.Pairs != 10 || snap.State != jobstore.StateQueued {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	done := waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
	if done.ChunksDone != 3 {
		t.Fatalf("done with %d/%d chunks", done.ChunksDone, done.Chunks)
	}
	scores, res, err := m.Result(snap.ID)
	if err != nil || res.State != jobstore.StateDone {
		t.Fatalf("result: %v (%+v)", err, res)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
	st := m.Stats()
	if st.Completed != 1 || st.ChunksExecuted != 3 || st.ChunksCheckpointed != 3 || st.ChunksSkipped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestIdempotencyKeyDedup(t *testing.T) {
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, nil)
	defer store.Close()
	defer m.Close()

	pairs, _ := testBatch(2, 4)
	first, created, err := m.Submit(pairs, "same-key")
	if err != nil || !created {
		t.Fatal(err)
	}
	second, created, err := m.Submit(pairs, "same-key")
	if err != nil {
		t.Fatal(err)
	}
	if created || second.ID != first.ID {
		t.Fatalf("dedup miss: created=%v id=%s want %s", created, second.ID, first.ID)
	}
	if m.Stats().DedupHits != 1 {
		t.Fatalf("dedup hits: %+v", m.Stats())
	}
	// A different key makes a different job.
	third, created, err := m.Submit(pairs, "other-key")
	if err != nil || !created || third.ID == first.ID {
		t.Fatalf("distinct key reused job: %v %v", third.ID, err)
	}
}

func TestQueueBoundRejectsWithErrQueueFull(t *testing.T) {
	// One runner, pinned down by a slow job; the queue fills behind it.
	svc := newSlowService(t)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueued = 2
		c.ChunkSize = 1
	})
	defer store.Close()
	defer m.Close()

	big, _ := testBatch(3, 32)
	if _, _, err := m.Submit(big, ""); err != nil {
		t.Fatal(err)
	}
	small, _ := testBatch(4, 1)
	var sawFull bool
	for i := 0; i < 8; i++ {
		if _, _, err := m.Submit(small, ""); errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue bound never tripped")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	svc := newSlowService(t)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	defer store.Close()
	defer m.Close()

	long, _ := testBatch(5, 16)
	running, _, err := m.Submit(long, "")
	if err != nil {
		t.Fatal(err)
	}
	queuedPairs, _ := testBatch(6, 4)
	queued, _, err := m.Submit(queuedPairs, "")
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job before the runner reaches it.
	snap, err := m.Cancel(queued.ID)
	if err != nil || snap.State != jobstore.StateCancelled {
		t.Fatalf("cancel queued: %+v err=%v", snap, err)
	}
	// Cancel is idempotent on terminal jobs.
	if snap, err = m.Cancel(queued.ID); err != nil || snap.State != jobstore.StateCancelled {
		t.Fatalf("re-cancel: %+v err=%v", snap, err)
	}

	waitState(t, m, running.ID, jobstore.StateRunning, 5*time.Second)
	if snap, err = m.Cancel(running.ID); err != nil || snap.State != jobstore.StateCancelled {
		t.Fatalf("cancel running: %+v err=%v", snap, err)
	}
	// Result answers with the terminal snapshot, not an error.
	if _, res, err := m.Result(running.ID); err != nil || res.State != jobstore.StateCancelled {
		t.Fatalf("result of cancelled job: %+v err=%v", res, err)
	}
	if m.Stats().Cancelled != 2 {
		t.Fatalf("cancelled count: %+v", m.Stats())
	}
	// The cancelled-while-queued job must never have executed a chunk.
	cur, err := m.Get(queued.ID)
	if err != nil || cur.ChunksDone != 0 {
		t.Fatalf("cancelled queued job ran: %+v err=%v", cur, err)
	}
}

func TestRecoveryResumesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: run a job partially on a slow service, then hard-close
	// (crash semantics — the job is left running in the WAL).
	slow := newSlowService(t)
	m1, store1 := newTestManager(t, dir, slow, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 2
	})
	pairs, want := testBatch(7, 20) // 10 chunks
	snap, _, err := m1.Submit(pairs, "resume-key")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, err := m1.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.ChunksDone >= 3 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached 3 checkpoints: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close() // hard stop: no drain, no requeue
	store1.Close()

	// Phase 2: reopen with a fast service; recovery must requeue the job
	// and finish it without re-executing the checkpointed chunks.
	fast := newTestService(t, nil)
	m2, store2 := newTestManager(t, dir, fast, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 2
	})
	defer store2.Close()
	defer m2.Close()

	st := m2.Stats()
	if st.Recovered != 1 || st.RecoveredChunks < 3 {
		t.Fatalf("recovery stats: %+v", st)
	}
	preDone := st.RecoveredChunks

	done := waitState(t, m2, snap.ID, jobstore.StateDone, 15*time.Second)
	if done.ChunksDone != 10 {
		t.Fatalf("resumed job chunks: %+v", done)
	}
	scores, _, err := m2.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("resumed score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
	st = m2.Stats()
	if st.ChunksSkipped != preDone {
		t.Fatalf("skipped %d chunks, want the %d recovered ones", st.ChunksSkipped, preDone)
	}
	if st.ChunksExecuted != 10-preDone {
		t.Fatalf("executed %d chunks, want %d", st.ChunksExecuted, 10-preDone)
	}
	// The WAL is the proof: no chunk index may be checkpointed twice.
	assertNoDuplicateChunks(t, dir)
	// Idempotency keys survive recovery.
	dup, created, err := m2.Submit(pairs, "resume-key")
	if err != nil || created || dup.ID != snap.ID {
		t.Fatalf("post-recovery dedup: created=%v id=%s err=%v", created, dup.ID, err)
	}
}

// assertNoDuplicateChunks replays the WAL and fails if any (job, chunk)
// was checkpointed more than once — the duplicate-execution detector shared
// with the chaos soak.
func assertNoDuplicateChunks(t *testing.T, dir string) {
	t.Helper()
	recs, _, err := jobstore.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, rec := range recs {
		if rec.Type != jobstore.RecChunk {
			continue
		}
		key := fmt.Sprintf("%s/%d", rec.Chunk.ID, rec.Chunk.Index)
		if seen[key] {
			t.Fatalf("chunk %s checkpointed twice", key)
		}
		seen[key] = true
	}
}

func TestDrainRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	slow := newSlowService(t)
	m, store := newTestManager(t, dir, slow, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	defer store.Close()

	long, _ := testBatch(8, 16)
	snap, _, err := m.Submit(long, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateRunning, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cur, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != jobstore.StateQueued {
		t.Fatalf("drained job state = %s, want queued (checkpoint-and-requeue)", cur.State)
	}
	if m.Stats().Requeued != 1 {
		t.Fatalf("requeued count: %+v", m.Stats())
	}
	// Submissions during drain fail fast.
	if _, _, err := m.Submit(long, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v", err)
	}
	m.Close()

	// The requeued job resumes on the next manager and completes.
	fast := newTestService(t, nil)
	m2, store2 := newTestManager(t, dir, fast, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	defer store2.Close()
	defer m2.Close()
	done := waitState(t, m2, snap.ID, jobstore.StateDone, 20*time.Second)
	if done.ChunksDone != 16 {
		t.Fatalf("post-drain completion: %+v", done)
	}
	assertNoDuplicateChunks(t, dir)
}

func TestGCDropsExpiredTerminalJobs(t *testing.T) {
	svc := newTestService(t, nil)
	now := time.Now()
	clock := func() time.Time { return now }
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.TTL = time.Hour
		c.GCInterval = time.Hour // sweeps driven manually below
		c.now = clock
	})
	defer store.Close()
	defer m.Close()

	pairs, _ := testBatch(9, 4)
	snap, _, err := m.Submit(pairs, "gc-key")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)

	m.gcOnce() // fresh terminal job survives
	if _, err := m.Get(snap.ID); err != nil {
		t.Fatalf("fresh job GC'd: %v", err)
	}
	now = now.Add(2 * time.Hour)
	m.gcOnce()
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job survived GC: %v", err)
	}
	if m.Stats().GCDropped != 1 {
		t.Fatalf("gc stats: %+v", m.Stats())
	}
	// The key is free again: a re-submission makes a new job.
	again, created, err := m.Submit(pairs, "gc-key")
	if err != nil || !created || again.ID == snap.ID {
		t.Fatalf("post-GC resubmit: created=%v err=%v", created, err)
	}
}

func TestJobUnderFaultsStillExact(t *testing.T) {
	svc := newTestService(t, flakyWrap(0.2, 42))
	m, store := newTestManager(t, t.TempDir(), svc, nil)
	defer store.Close()
	defer m.Close()

	pairs, want := testBatch(10, 16)
	snap, _, err := m.Submit(pairs, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 30*time.Second)
	scores, _, err := m.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("faulty-path score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
}

func TestResultErrors(t *testing.T) {
	svc := newSlowService(t)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	defer store.Close()
	defer m.Close()

	if _, _, err := m.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v", err)
	}
	long, _ := testBatch(11, 16)
	if _, _, err := m.Submit(long, ""); err != nil {
		t.Fatal(err)
	}
	pairs, _ := testBatch(12, 8)
	snap, _, err := m.Submit(pairs, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Result(snap.ID); !errors.Is(err, ErrNotReady) {
		t.Fatalf("queued job result: %v", err)
	}
}
