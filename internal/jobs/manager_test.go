package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/swa"
	"repro/internal/tenant"
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

// align is the alignment-job request for pairs.
func align(pairs []dna.Pair) Request { return Request{Pairs: pairs} }

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
// delay — a timer, not CPU — before the scalar reference scores it: long
// enough for tests to observe jobs mid-flight, with exact scores.
func newSlowService(t *testing.T, delay time.Duration) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Backend: alignsvc.BackendCPURef,
		Workers: 2,
		Wrap: func(be alignsvc.Backend) alignsvc.Backend {
			return slowBackend{Backend: be, delay: delay}
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
		snap, err := m.GetFor(id, "")
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

// waitChunks polls until the job has at least n checkpointed chunks.
func waitChunks(t *testing.T, m *Manager, id string, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		snap, err := m.GetFor(id, "")
		if err != nil {
			t.Fatal(err)
		}
		if snap.ChunksDone >= n {
			return
		}
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached %d checkpoints: %+v", n, snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobKind is one row of the table the lifecycle tests run over: both job
// kinds go through the same manager pipeline, so every lifecycle guarantee
// is checked once per kind. A job of either kind has kindChunks chunks.
type jobKind struct {
	name  string
	kind  string // the kind its snapshots report
	units int    // the pairs or corpus sequences a job chunks over
	// open opens a manager of this kind over dir. With delay > 0 every
	// chunk holds its runner that long (a timer, not CPU); tweak adjusts
	// the config last.
	open func(t *testing.T, dir string, delay time.Duration, tweak func(*Config)) (*Manager, *jobstore.Store)
	// request is the n-th deterministic request of this kind.
	request func(n int) Request
	// check asserts a done job's result is the exact answer to request n.
	check func(t *testing.T, res Result, n int)
}

const kindChunks = 8

// searchParams scans the whole corpus (no prefilter), so every chunk of
// a search job scores candidates and holds a delayed runner.
var searchParams = corpus.Params{TopK: 5, MinKmerHits: -1}

// jobKinds builds the two-kind table: alignment jobs of kindChunks
// one-pair chunks, and search jobs over a kindChunks×50-sequence corpus in
// 50-sequence chunks.
func jobKinds(t *testing.T) []jobKind {
	t.Helper()
	c, q := newSearchCorpus(t, 50*kindChunks)
	want, err := corpus.NewSearcher(c, stripedBackend(t), nil).Search(context.Background(), q, searchParams)
	if err != nil {
		t.Fatal(err)
	}
	return []jobKind{{
		name:  "align",
		kind:  "",
		units: kindChunks,
		open: func(t *testing.T, dir string, delay time.Duration, tweak func(*Config)) (*Manager, *jobstore.Store) {
			svc := newTestService(t, nil)
			if delay > 0 {
				svc = newSlowService(t, delay)
			}
			return newTestManager(t, dir, svc, func(c *Config) {
				c.ChunkSize = 1
				if tweak != nil {
					tweak(c)
				}
			})
		},
		request: func(n int) Request {
			pairs, _ := testBatch(uint64(n), kindChunks)
			return align(pairs)
		},
		check: func(t *testing.T, res Result, n int) {
			t.Helper()
			if _, want := testBatch(uint64(n), kindChunks); !reflect.DeepEqual(res.Scores, want) || res.Hits != nil {
				t.Fatalf("job %d result: scores %v hits %v, want scores %v", n, res.Scores, res.Hits, want)
			}
		},
	}, {
		name:  "search",
		kind:  jobstore.KindSearch,
		units: 50 * kindChunks,
		open: func(t *testing.T, dir string, delay time.Duration, tweak func(*Config)) (*Manager, *jobstore.Store) {
			return newTestManager(t, dir, newTestService(t, nil), func(cfg *Config) {
				cfg.Corpora = mountCorpus(t, c, delay)
				cfg.SearchChunkSize = 50
				if tweak != nil {
					tweak(cfg)
				}
			})
		},
		request: func(int) Request {
			return Request{Search: &Search{Corpus: "ref", Query: q, Params: searchParams}}
		},
		check: func(t *testing.T, res Result, n int) {
			t.Helper()
			if !reflect.DeepEqual(res.Hits, want.Hits) || res.Scores != nil {
				t.Fatalf("job %d result: hits %v scores %v, want hits %v", n, res.Hits, res.Scores, want.Hits)
			}
			if res.Job.Corpus != "ref" || res.Job.TopK != searchParams.TopK {
				t.Fatalf("search snapshot: %+v", res.Job)
			}
		},
	}}
}

// forEachKind runs body as one subtest per job kind.
func forEachKind(t *testing.T, body func(t *testing.T, k jobKind)) {
	for _, k := range jobKinds(t) {
		t.Run(k.name, func(t *testing.T) { body(t, k) })
	}
}

// resultOf fetches a done job's result for the anonymous tenant.
func resultOf(t *testing.T, m *Manager, id string) Result {
	t.Helper()
	res, err := m.ResultFor(id, "")
	if err != nil || res.Job.State != jobstore.StateDone {
		t.Fatalf("result of %s: %v (%+v)", id, err, res.Job)
	}
	return res
}

func TestJobRunsToCompletion(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		m, store := k.open(t, t.TempDir(), 0, nil)
		defer store.Close()
		defer m.Close()

		snap, created, err := m.SubmitFor(k.request(1), "key-a", "")
		if err != nil || !created {
			t.Fatalf("submit: created=%v err=%v", created, err)
		}
		if snap.Chunks != kindChunks || snap.Pairs != k.units || snap.State != jobstore.StateQueued || snap.Kind != k.kind {
			t.Fatalf("submit snapshot: %+v", snap)
		}
		done := waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
		if done.ChunksDone != kindChunks {
			t.Fatalf("done with %d/%d chunks", done.ChunksDone, done.Chunks)
		}
		k.check(t, resultOf(t, m, snap.ID), 1)
		st := m.Stats()
		if st.Completed != 1 || st.ChunksExecuted != kindChunks || st.ChunksCheckpointed != kindChunks || st.ChunksSkipped != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

func TestIdempotencyKeyDedup(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		m, store := k.open(t, t.TempDir(), 0, nil)
		defer store.Close()
		defer m.Close()

		first, created, err := m.SubmitFor(k.request(2), "same-key", "")
		if err != nil || !created {
			t.Fatal(err)
		}
		second, created, err := m.SubmitFor(k.request(2), "same-key", "")
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
		third, created, err := m.SubmitFor(k.request(2), "other-key", "")
		if err != nil || !created || third.ID == first.ID {
			t.Fatalf("distinct key reused job: %v %v", third.ID, err)
		}
	})
}

func TestQueueBoundRejectsWithErrQueueFull(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		// One runner, pinned down by a slow job; the queue fills behind it.
		m, store := k.open(t, t.TempDir(), 150*time.Millisecond, func(c *Config) {
			c.MaxConcurrent = 1
			c.MaxQueued = 2
		})
		defer store.Close()
		defer m.Close()

		if _, _, err := m.SubmitFor(k.request(3), "", ""); err != nil {
			t.Fatal(err)
		}
		var queued []string
		for i := 0; i < 8; i++ {
			snap, _, err := m.SubmitFor(k.request(4), "", "")
			if errors.Is(err, ErrQueueFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			queued = append(queued, snap.ID)
		}
		if len(queued) == 8 {
			t.Fatal("queue bound never tripped")
		}
		// Cancelled jobs wait for nothing: their slots free at once, while
		// the runner is still pinned.
		for _, id := range queued {
			if _, err := m.CancelFor(id, ""); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := m.SubmitFor(k.request(4), "", ""); err != nil {
			t.Fatalf("submit after cancelling the queued jobs: %v", err)
		}
	})
}

func TestCancelQueuedAndRunning(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		m, store := k.open(t, t.TempDir(), 150*time.Millisecond, func(c *Config) {
			c.MaxConcurrent = 1
		})
		defer store.Close()
		defer m.Close()

		running, _, err := m.SubmitFor(k.request(5), "", "")
		if err != nil {
			t.Fatal(err)
		}
		queued, _, err := m.SubmitFor(k.request(6), "", "")
		if err != nil {
			t.Fatal(err)
		}

		// Cancel the queued job before the runner reaches it.
		snap, err := m.CancelFor(queued.ID, "")
		if err != nil || snap.State != jobstore.StateCancelled {
			t.Fatalf("cancel queued: %+v err=%v", snap, err)
		}
		// Cancel is idempotent on terminal jobs.
		if snap, err = m.CancelFor(queued.ID, ""); err != nil || snap.State != jobstore.StateCancelled {
			t.Fatalf("re-cancel: %+v err=%v", snap, err)
		}

		waitState(t, m, running.ID, jobstore.StateRunning, 5*time.Second)
		if snap, err = m.CancelFor(running.ID, ""); err != nil || snap.State != jobstore.StateCancelled {
			t.Fatalf("cancel running: %+v err=%v", snap, err)
		}
		// ResultFor answers with the terminal snapshot, not an error.
		if res, err := m.ResultFor(running.ID, ""); err != nil || res.Job.State != jobstore.StateCancelled ||
			res.Scores != nil || res.Hits != nil {
			t.Fatalf("result of cancelled job: %+v err=%v", res, err)
		}
		if m.Stats().Cancelled != 2 {
			t.Fatalf("cancelled count: %+v", m.Stats())
		}
		// The cancelled-while-queued job must never have executed a chunk.
		cur, err := m.GetFor(queued.ID, "")
		if err != nil || cur.ChunksDone != 0 {
			t.Fatalf("cancelled queued job ran: %+v err=%v", cur, err)
		}
	})
}

func TestRecoveryResumesFromCheckpoints(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		dir := t.TempDir()
		one := func(c *Config) { c.MaxConcurrent = 1 }

		// Phase 1: run a job partially on a slow runner, then hard-close
		// (crash semantics — the job is left running in the WAL).
		m1, store1 := k.open(t, dir, 50*time.Millisecond, one)
		snap, _, err := m1.SubmitFor(k.request(7), "resume-key", "")
		if err != nil {
			t.Fatal(err)
		}
		waitChunks(t, m1, snap.ID, 3, 20*time.Second)
		m1.Close() // hard stop: no drain, no requeue
		store1.Close()

		// Phase 2: reopen at full speed; recovery must requeue the job and
		// finish it without re-executing the checkpointed chunks.
		m2, store2 := k.open(t, dir, 0, one)
		defer store2.Close()
		defer m2.Close()

		st := m2.Stats()
		if st.Recovered != 1 || st.RecoveredChunks < 3 {
			t.Fatalf("recovery stats: %+v", st)
		}
		preDone := st.RecoveredChunks

		done := waitState(t, m2, snap.ID, jobstore.StateDone, 15*time.Second)
		if done.ChunksDone != kindChunks {
			t.Fatalf("resumed job chunks: %+v", done)
		}
		k.check(t, resultOf(t, m2, snap.ID), 7)
		st = m2.Stats()
		if st.ChunksSkipped != preDone {
			t.Fatalf("skipped %d chunks, want the %d recovered ones", st.ChunksSkipped, preDone)
		}
		if st.ChunksExecuted != kindChunks-preDone {
			t.Fatalf("executed %d chunks, want %d", st.ChunksExecuted, kindChunks-preDone)
		}
		// The WAL is the proof: no chunk index may be checkpointed twice.
		assertNoDuplicateChunks(t, dir)
		// Idempotency keys survive recovery.
		dup, created, err := m2.SubmitFor(k.request(7), "resume-key", "")
		if err != nil || created || dup.ID != snap.ID {
			t.Fatalf("post-recovery dedup: created=%v id=%s err=%v", created, dup.ID, err)
		}
	})
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
	forEachKind(t, func(t *testing.T, k jobKind) {
		dir := t.TempDir()
		one := func(c *Config) { c.MaxConcurrent = 1 }
		m, store := k.open(t, dir, 150*time.Millisecond, one)
		defer store.Close()

		snap, _, err := m.SubmitFor(k.request(8), "", "")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, jobstore.StateRunning, 5*time.Second)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		cur, err := m.GetFor(snap.ID, "")
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
		if _, _, err := m.SubmitFor(k.request(8), "", ""); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit during drain: %v", err)
		}
		m.Close()

		// The requeued job resumes on the next manager and completes.
		m2, store2 := k.open(t, dir, 0, one)
		defer store2.Close()
		defer m2.Close()
		done := waitState(t, m2, snap.ID, jobstore.StateDone, 20*time.Second)
		if done.ChunksDone != kindChunks {
			t.Fatalf("post-drain completion: %+v", done)
		}
		k.check(t, resultOf(t, m2, snap.ID), 8)
		assertNoDuplicateChunks(t, dir)
	})
}

func TestResultErrors(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		m, store := k.open(t, t.TempDir(), 150*time.Millisecond, func(c *Config) {
			c.MaxConcurrent = 1
		})
		defer store.Close()
		defer m.Close()

		if _, err := m.ResultFor("nope", ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing job: %v", err)
		}
		if _, _, err := m.SubmitFor(k.request(11), "", ""); err != nil {
			t.Fatal(err)
		}
		snap, _, err := m.SubmitFor(k.request(12), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ResultFor(snap.ID, ""); !errors.Is(err, ErrNotReady) {
			t.Fatalf("queued job result: %v", err)
		}
	})
}

func TestTenantQuotaAndOwnership(t *testing.T) {
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{
		{ID: "acme", Key: "sk", Limits: tenant.Limits{MaxRunningJobs: 2}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	forEachKind(t, func(t *testing.T, k jobKind) {
		dir := t.TempDir()
		cfg := func(c *Config) {
			c.Tenants = reg
			c.MaxConcurrent = 1
		}
		m, store := k.open(t, dir, 150*time.Millisecond, cfg)

		req := k.request(3)
		j1, _, err := m.SubmitFor(req, "k1", "acme")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.SubmitFor(req, "k2", "acme"); err != nil {
			t.Fatal(err)
		}
		// Third live job exceeds MaxRunningJobs: typed ErrQuota.
		if _, _, err := m.SubmitFor(req, "k3", "acme"); !errors.Is(err, ErrQuota) {
			t.Fatalf("over-quota submit err = %v, want ErrQuota", err)
		}
		// Idempotent re-send of a live job is a dedup hit, not a quota hit.
		if dup, created, err := m.SubmitFor(req, "k1", "acme"); err != nil || created || dup.ID != j1.ID {
			t.Fatalf("dedup under quota: %+v created=%v err=%v", dup, created, err)
		}
		// The same key from another tenant is that tenant's own namespace.
		anonJob, created, err := m.SubmitFor(req, "k1", "")
		if err != nil || !created || anonJob.ID == j1.ID {
			t.Fatalf("cross-tenant key collision: %+v created=%v err=%v", anonJob, created, err)
		}
		if anonJob.Key != "k1" {
			t.Fatalf("client-visible key = %q, want k1", anonJob.Key)
		}

		// Ownership: another tenant cannot see, cancel or subscribe to the job.
		if _, err := m.GetFor(j1.ID, ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cross-tenant GetFor err = %v, want ErrNotFound", err)
		}
		if _, err := m.CancelFor(j1.ID, ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cross-tenant CancelFor err = %v, want ErrNotFound", err)
		}
		if _, err := m.ResultFor(j1.ID, ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cross-tenant ResultFor err = %v, want ErrNotFound", err)
		}
		if _, err := m.EventsFor(j1.ID, "anonymous"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cross-tenant EventsFor err = %v, want ErrNotFound", err)
		}
		// The owner can.
		if got, err := m.GetFor(j1.ID, "acme"); err != nil || got.Tenant != "acme" {
			t.Fatalf("owner GetFor: %+v, %v", got, err)
		}

		// Quota state is WAL-resident: reopen and the cap still binds.
		m.Close()
		store.Close()
		m2, store2 := k.open(t, dir, 150*time.Millisecond, cfg)
		defer store2.Close()
		defer m2.Close()
		if _, _, err := m2.SubmitFor(req, "k4", "acme"); !errors.Is(err, ErrQuota) {
			t.Fatalf("post-replay over-quota submit err = %v, want ErrQuota", err)
		}
	})
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
	snap, _, err := m.SubmitFor(align(pairs), "gc-key", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)

	m.gcOnce() // fresh terminal job survives
	if _, err := m.GetFor(snap.ID, ""); err != nil {
		t.Fatalf("fresh job GC'd: %v", err)
	}
	now = now.Add(2 * time.Hour)
	m.gcOnce()
	if _, err := m.GetFor(snap.ID, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job survived GC: %v", err)
	}
	if m.Stats().GCDropped != 1 {
		t.Fatalf("gc stats: %+v", m.Stats())
	}
	// The key is free again: a re-submission makes a new job.
	again, created, err := m.SubmitFor(align(pairs), "gc-key", "")
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
	snap, _, err := m.SubmitFor(align(pairs), "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 30*time.Second)
	if res := resultOf(t, m, snap.ID); !reflect.DeepEqual(res.Scores, want) {
		t.Fatalf("faulty-path scores %v, want %v", res.Scores, want)
	}
}
