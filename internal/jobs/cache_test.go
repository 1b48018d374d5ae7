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

// TestRecoveryLeavesCacheToScoring runs a job to completion, then restarts
// on a fresh cached service over the same WAL. Recovery replays and
// requeues and nothing more: the cache starts empty, the first
// re-submission of the job's pairs scores them exactly in one backend
// batch, and a second one is served from the cache that scoring filled.
func TestRecoveryLeavesCacheToScoring(t *testing.T) {
	dir := t.TempDir()
	pairs, want := testBatch(5, 12)

	svc1 := newCachedTestService(t)
	m1, store1 := newTestManager(t, dir, svc1, nil)
	snap, _, err := m1.SubmitFor(align(pairs), "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobstore.StateDone, 10*time.Second)
	m1.Close()
	store1.Close()

	svc2 := newCachedTestService(t)
	m2, store2 := newTestManager(t, dir, svc2, nil)
	defer store2.Close()
	defer m2.Close()
	if cst := svc2.CacheStats(); cst == nil || cst.Entries != 0 {
		t.Fatalf("cache after recovery: %+v, want 0 entries", cst)
	}

	for round := 0; round < 2; round++ {
		res, err := svc2.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("round %d: score[%d] = %d, want %d", round, i, res.Scores[i], want[i])
			}
		}
		if hits := round * len(pairs); res.Report.CacheHits != hits {
			t.Fatalf("round %d: %d cache hits, want %d", round, res.Report.CacheHits, hits)
		}
		if st := svc2.Stats(); st.Batches != 1 {
			t.Fatalf("round %d: %d backend batches in all, want 1", round, st.Batches)
		}
	}
}
