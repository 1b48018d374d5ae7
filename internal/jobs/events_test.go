package jobs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/tenant"
)

// snap is a minimal Snapshot for direct hub tests.
func snap(state jobstore.State, chunksDone int) Snapshot {
	return Snapshot{ID: "j", State: state, ChunksDone: chunksDone, Chunks: 4}
}

func TestHubDropOldestNeverBlocksPublisher(t *testing.T) {
	h := newHub(4)
	sub := h.subscribe("j", snap(jobstore.StateQueued, 0))
	defer sub.Close()

	// A stalled subscriber (nobody calls Next): publishing far beyond the
	// ring must return promptly — the hub has no blocking path at all.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			h.publish("j", EventChunk, snap(jobstore.StateRunning, i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a stalled subscriber")
	}

	// The ring kept the NEWEST events: the seed and the early chunks were
	// dropped-oldest.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventChunk || ev.Job.ChunksDone != 996 {
		t.Fatalf("oldest surviving event = %+v, want chunk 996", ev)
	}
	if sub.Dropped() != 1000+1-4 {
		t.Fatalf("dropped = %d, want %d", sub.Dropped(), 1000+1-4)
	}
}

func TestHubSubscribeAfterProgressReplaysCheckpoint(t *testing.T) {
	h := newHub(8)
	h.publish("j", EventState, snap(jobstore.StateRunning, 0))
	h.publish("j", EventChunk, snap(jobstore.StateRunning, 1))
	h.publish("j", EventChunk, snap(jobstore.StateRunning, 2))

	// A late subscriber's first event is a snapshot carrying the progress
	// so far, at the feed's current seq.
	sub := h.subscribe("j", snap(jobstore.StateRunning, 2))
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventSnapshot || ev.Job.ChunksDone != 2 || ev.Seq != 3 {
		t.Fatalf("seed event = %+v, want snapshot of 2 chunks at seq 3", ev)
	}

	// Subsequent events follow with increasing seq.
	h.publish("j", EventChunk, snap(jobstore.StateRunning, 3))
	if ev, err = sub.Next(ctx); err != nil || ev.Seq != 4 || ev.Type != EventChunk {
		t.Fatalf("follow-up event = %+v, %v", ev, err)
	}
}

func TestHubCloseAndTerminalFreeSubscribers(t *testing.T) {
	h := newHub(4)
	a := h.subscribe("j", snap(jobstore.StateRunning, 0))
	b := h.subscribe("j", snap(jobstore.StateRunning, 0))
	if h.subscribers() != 2 {
		t.Fatalf("subscribers = %d, want 2", h.subscribers())
	}

	// Client disconnect: Close unhooks the sub from the hub.
	a.Close()
	if h.subscribers() != 1 {
		t.Fatalf("after Close: subscribers = %d, want 1", h.subscribers())
	}

	// Terminal event: the feed ends and the remaining sub is closed after
	// delivering the terminal event.
	h.publish("j", EventState, snap(jobstore.StateDone, 4))
	if h.subscribers() != 0 {
		t.Fatalf("after terminal: subscribers = %d, want 0", h.subscribers())
	}
	ctx := context.Background()
	if ev, err := b.Next(ctx); err != nil || ev.Type != EventSnapshot {
		t.Fatalf("buffered seed: %+v, %v", ev, err)
	}
	if ev, err := b.Next(ctx); err != nil || ev.Job.State != jobstore.StateDone {
		t.Fatalf("buffered terminal event: %+v, %v", ev, err)
	}
	if _, err := b.Next(ctx); !errors.Is(err, ErrSubClosed) {
		t.Fatalf("drained closed sub err = %v, want ErrSubClosed", err)
	}

	// Hub shutdown: new subscriptions are born closed, seeded with
	// snapshot + drain.
	h.close()
	c := h.subscribe("j2", snap(jobstore.StateQueued, 0))
	if ev, err := c.Next(ctx); err != nil || ev.Type != EventSnapshot {
		t.Fatalf("post-shutdown seed: %+v, %v", ev, err)
	}
	if ev, err := c.Next(ctx); err != nil || ev.Type != EventDrain {
		t.Fatalf("post-shutdown drain event: %+v, %v", ev, err)
	}
	if _, err := c.Next(ctx); !errors.Is(err, ErrSubClosed) {
		t.Fatalf("post-shutdown sub err = %v, want ErrSubClosed", err)
	}
}

// TestHubSubscribeTerminalBornClosed: subscribing to a job whose feed
// already ended (publish deleted it at the terminal event) must deliver the
// snapshot and then close, without registering anything with the hub — a
// subscription that never closes would pin its SSE handler goroutine until
// the client disconnected or the server drained.
func TestHubSubscribeTerminalBornClosed(t *testing.T) {
	h := newHub(4)
	h.publish("j", EventState, snap(jobstore.StateDone, 4)) // ends the feed

	sub := h.subscribe("j", snap(jobstore.StateDone, 4))
	defer sub.Close()
	if h.subscribers() != 0 {
		t.Fatalf("terminal subscribe registered: subscribers = %d, want 0", h.subscribers())
	}
	ctx := context.Background()
	if ev, err := sub.Next(ctx); err != nil || ev.Type != EventSnapshot || ev.Job.State != jobstore.StateDone {
		t.Fatalf("terminal seed = %+v, %v, want done snapshot", ev, err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, ErrSubClosed) {
		t.Fatalf("after terminal seed: err = %v, want ErrSubClosed", err)
	}
}

// TestHubSubscribeSeedAlwaysFirst races subscribe against a publisher: the
// seed snapshot must always be the first event in the ring with no seq
// regression after it — the old code registered the Sub under the hub lock
// but pushed the seed after unlocking, letting a concurrent publish deliver
// a newer event ahead of the older snapshot.
func TestHubSubscribeSeedAlwaysFirst(t *testing.T) {
	for i := 0; i < 200; i++ {
		h := newHub(64)
		h.publish("j", EventState, snap(jobstore.StateRunning, 0))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 1; c <= 5; c++ {
				h.publish("j", EventChunk, snap(jobstore.StateRunning, c))
			}
		}()
		sub := h.subscribe("j", snap(jobstore.StateRunning, 0))
		wg.Wait()

		first, err := sub.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if first.Type != EventSnapshot {
			t.Fatalf("iteration %d: first event = %s (seq %d), want snapshot", i, first.Type, first.Seq)
		}
		last := first.Seq
		for { // drain the settled buffer; seq must never move backwards
			sub.mu.Lock()
			empty := sub.n == 0
			sub.mu.Unlock()
			if empty {
				break
			}
			ev, err := sub.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ev.Seq < last {
				t.Fatalf("iteration %d: seq regressed from %d to %d (%s)", i, last, ev.Seq, ev.Type)
			}
			last = ev.Seq
		}
		sub.Close()
	}
}

// TestEventsObserveEveryChunk runs a real job with a live subscriber and
// asserts the feed carries every chunk checkpoint exactly once, ending
// with the done state — and that disconnecting subscribers leaks no
// goroutines.
func TestEventsObserveEveryChunk(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.EventBuffer = 64
	})
	defer store.Close()
	defer m.Close()

	pairs, _ := testBatch(11, 16) // ChunkSize 4 → 4 chunks
	snap, _, err := m.Submit(pairs, "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.EventsFor(snap.ID, tenant.AnonymousID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var chunks []int
	var sawDone bool
	var lastSeq uint64
	for {
		ev, err := sub.Next(ctx)
		if errors.Is(err, ErrSubClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq < lastSeq {
			t.Fatalf("seq went backwards: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == EventChunk {
			chunks = append(chunks, ev.Job.ChunksDone)
		}
		if ev.Job.State == jobstore.StateDone {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatal("feed ended without a done state")
	}
	if len(chunks) != snap.Chunks {
		t.Fatalf("observed %d chunk events (%v), want %d", len(chunks), chunks, snap.Chunks)
	}
	for i, c := range chunks {
		if c != i+1 {
			t.Fatalf("chunk progress out of order: %v", chunks)
		}
	}

	// Goroutine-leak check: churn subscribers that disconnect mid-feed.
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		snap2, _, err := m.Submit(testPairsOnly(uint64(i)+100, 8), "")
		if err != nil {
			t.Fatal(err)
		}
		sub2, err := m.EventsFor(snap2.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer ccancel()
			_, _ = sub2.Next(cctx) // reads a bit, then "disconnects"
			sub2.Close()
		}()
	}
	wg.Wait()
	// The first job's feed ended at terminal state (auto-unhooked), and
	// every churned sub Closed itself: the hub must hold nothing.
	if n := m.hub.subscribers(); n != 0 {
		t.Fatalf("hub holds %d subscribers after churn, want 0", n)
	}
	waitForLeakCheck(t, before)
}

// testPairsOnly is testBatch without the reference scores.
func testPairsOnly(seed uint64, count int) []dna.Pair {
	p, _ := testBatch(seed, count)
	return p
}

// waitForLeakCheck polls the goroutine count back down to near the
// baseline (runner goroutines belong to the manager and are still alive;
// the check is that subscriber churn added nothing that lingers).
func waitForLeakCheck(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		// Manager pool + GC goroutines are expected; 10 is generous slack
		// for them, but 50 leaked subscriber goroutines would trip it.
		if runtime.NumGoroutine() <= before+10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after churn", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTenantQuotaAndOwnership(t *testing.T) {
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{
		{ID: "acme", Key: "sk", Limits: tenant.Limits{MaxRunningJobs: 2}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := newSlowService(t)
	dir := t.TempDir()
	m, store := newTestManager(t, dir, svc, func(c *Config) {
		c.Tenants = reg
		c.MaxConcurrent = 1
	})

	pairs, _ := testBatch(3, 4)
	j1, _, err := m.SubmitFor(pairs, "k1", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SubmitFor(pairs, "k2", "acme"); err != nil {
		t.Fatal(err)
	}
	// Third live job exceeds MaxRunningJobs: typed ErrQuota.
	if _, _, err := m.SubmitFor(pairs, "k3", "acme"); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submit err = %v, want ErrQuota", err)
	}
	// Idempotent re-send of a live job is a dedup hit, not a quota hit.
	if dup, created, err := m.SubmitFor(pairs, "k1", "acme"); err != nil || created || dup.ID != j1.ID {
		t.Fatalf("dedup under quota: %+v created=%v err=%v", dup, created, err)
	}
	// The same key from another tenant is that tenant's own namespace.
	anonJob, created, err := m.SubmitFor(pairs, "k1", "")
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
	if _, _, err := m.ResultFor(j1.ID, ""); !errors.Is(err, ErrNotFound) {
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
	m2, store2 := newTestManager(t, dir, svc, func(c *Config) {
		c.Tenants = reg
		c.MaxConcurrent = 1
	})
	defer store2.Close()
	defer m2.Close()
	if _, _, err := m2.SubmitFor(pairs, "k4", "acme"); !errors.Is(err, ErrQuota) {
		t.Fatalf("post-replay over-quota submit err = %v, want ErrQuota", err)
	}
}
