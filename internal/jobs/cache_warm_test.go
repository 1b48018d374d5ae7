package jobs

import (
	"context"
	"testing"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// newCachedTestService is newTestService plus a score cache.
func newCachedTestService(t *testing.T) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Workers: 2,
		Cache: aligncache.New(aligncache.Config{
			MaxBytes: 4 << 20,
			Metrics:  obs.NewRegistry(),
		}),
		Metrics: obs.NewRegistry(),
	})
	t.Cleanup(svc.Close)
	return svc
}

// TestRecoveryWarmsCacheFromCheckpoints runs a job to completion, then
// reopens the store against a fresh service+cache: the new manager must
// republish every checkpointed score into the cache, so re-submitted
// identical pairs are served without a single dispatch — the durable cache
// story across process restarts.
func TestRecoveryWarmsCacheFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	pairs, want := testBatch(5, 12)

	svc1 := newCachedTestService(t)
	m1, store1 := newTestManager(t, dir, svc1, nil)
	snap, _, err := m1.SubmitFor(align(pairs), "warm-key", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobstore.StateDone, 10*time.Second)
	m1.Close()
	store1.Close()

	// "Restart": fresh service, empty cache, same WAL.
	svc2 := newCachedTestService(t)
	m2, store2 := newTestManager(t, dir, svc2, nil)
	defer store2.Close()
	defer m2.Close()

	if got := m2.Stats().CacheWarmed; got != int64(len(pairs)) {
		t.Fatalf("CacheWarmed = %d, want %d", got, len(pairs))
	}
	cst := svc2.CacheStats()
	if cst == nil || cst.Entries != int64(len(pairs)) {
		t.Fatalf("cache after warming: %+v, want %d entries", cst, len(pairs))
	}

	res, err := svc2.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Scores[i] != want[i] {
			t.Fatalf("warmed score[%d] = %d, want %d", i, res.Scores[i], want[i])
		}
	}
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("warmed batch: %d/%d hits", res.Report.CacheHits, len(pairs))
	}
	if st := svc2.Stats(); st.Batches != 0 {
		t.Fatalf("warmed batch still dispatched: %+v", st)
	}
}

// TestWarmingSkippedWithoutCache pins that a cache-less service keeps the
// original recovery behaviour and reports zero warmed entries.
func TestWarmingSkippedWithoutCache(t *testing.T) {
	dir := t.TempDir()
	pairs, _ := testBatch(6, 8)

	svc1 := newTestService(t, nil)
	m1, store1 := newTestManager(t, dir, svc1, nil)
	snap, _, err := m1.SubmitFor(align(pairs), "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobstore.StateDone, 10*time.Second)
	m1.Close()
	store1.Close()

	svc2 := newTestService(t, nil)
	m2, store2 := newTestManager(t, dir, svc2, nil)
	defer store2.Close()
	defer m2.Close()
	if got := m2.Stats().CacheWarmed; got != 0 {
		t.Fatalf("CacheWarmed = %d without a cache", got)
	}
}
