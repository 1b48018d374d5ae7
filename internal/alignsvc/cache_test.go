package alignsvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/aligncache"
	"repro/internal/dna"
	"repro/internal/obs"
)

func newCachedService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = aligncache.New(aligncache.Config{
			MaxBytes: 16 << 20,
			Metrics:  obs.NewRegistry(),
		})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestCachedAlignExactScores checks the cached path end to end: a cold batch
// with duplicate pairs dispatches only its distinct pairs, a warm identical
// batch is served entirely from the cache with exact scores and no backend
// call.
func TestCachedAlignExactScores(t *testing.T) {
	s := newCachedService(t, Config{})

	// 64 pairs, only 8 distinct: the first 8 repeat in order.
	distinct := plantedPairs(8, 16, 32, 21)
	full := distinct
	for len(full) < 64 {
		full = append(full, distinct[len(full)%8])
	}
	want := refScores(full)

	res, err := s.Align(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.CacheHits != 0 {
		t.Fatalf("cold batch reported %d cache hits", res.Report.CacheHits)
	}
	cst := s.CacheStats()
	if cst == nil || cst.Misses != 8 {
		t.Fatalf("cold batch: want 8 distinct misses, got %+v", cst)
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("cold batch dispatched %d batches, want 1", st.Batches)
	}

	// Warm: the identical batch must not reach a backend at all.
	res, err = s.Align(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.CacheHits != len(full) {
		t.Fatalf("warm batch: %d cache hits, want %d", res.Report.CacheHits, len(full))
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("warm batch dispatched again: %d batches", st.Batches)
	}
}

// TestCacheRepeatedBatchSpeedup is the issue's acceptance bar: re-aligning an
// identical batch after warming must be at least 5× faster than computing it,
// because a full hit is a hash + map lookup per pair instead of the bitsliced
// DP.
func TestCacheRepeatedBatchSpeedup(t *testing.T) {
	s := newCachedService(t, Config{})
	pairs := plantedPairs(256, 32, 256, 33)

	begin := time.Now()
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(begin)
	assertScores(t, res.Scores, refScores(pairs))

	// Best warm run of a few, to keep scheduler noise out of the ratio.
	warm := cold
	for i := 0; i < 3; i++ {
		begin = time.Now()
		res, err = s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(begin); d < warm {
			warm = d
		}
	}
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("warm run hit %d/%d pairs", res.Report.CacheHits, len(pairs))
	}
	if warm*5 > cold {
		t.Fatalf("warm repeat not ≥5× faster: cold=%v warm=%v (%.1f×)",
			cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v (%.0f×)", cold, warm, float64(cold)/float64(warm))
}

// TestCacheExactUnderFaultInjection extends the chaos suite: with 30% of
// backend calls failing, concurrent overlapping batches through the cached
// path still return exact scores, and warm hits stay exact afterwards — a
// failed call is never published to the cache.
func TestCacheExactUnderFaultInjection(t *testing.T) {
	wrap, failed := flakyWrap(0.3, 7)
	s := newCachedService(t, Config{Wrap: wrap})

	// Eight goroutines share four seed groups, so most batches overlap an
	// identical batch in flight or already cached.
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pairs := plantedPairs(32, 16, 32, uint64(200+(w%4)))
				res, err := s.Align(context.Background(), pairs)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				assertScores(t, res.Scores, refScores(pairs))
			}
		}(w)
	}
	wg.Wait()

	// Warm re-read of every group: hits must still be exact.
	for g := 0; g < 4; g++ {
		pairs := plantedPairs(32, 16, 32, uint64(200+g))
		res, err := s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		assertScores(t, res.Scores, refScores(pairs))
		if res.Report.CacheHits != len(pairs) {
			t.Fatalf("group %d warm read: %d/%d hits", g, res.Report.CacheHits, len(pairs))
		}
	}
	cst := s.CacheStats()
	if cst.Hits == 0 || cst.Misses == 0 {
		t.Fatalf("chaos run exercised no cache traffic: %+v", cst)
	}
	if failed.Load() == 0 {
		t.Fatal("no failures injected at a 30% rate")
	}
	t.Logf("cache after chaos: %+v; service: %+v", cst, s.Stats())
}

// TestCacheLeaderDeadlineNotCached covers alignCached's failed-leader
// branch: the leader's context expires mid-batch while followers on live
// contexts wait on its flights. The leader gets its deadline, the failure
// is never cached, every follower recomputes exact scores itself, and the
// recomputed scores then serve an identical batch entirely from the cache.
func TestCacheLeaderDeadlineNotCached(t *testing.T) {
	// Every backend call holds its worker for 150 ms before scoring, well
	// past the leader's 100 ms deadline.
	s := newCachedService(t, Config{Wrap: func(be Backend) Backend {
		return slowBackend{Backend: be, hold: 150 * time.Millisecond}
	}})
	pairs := plantedPairs(8, 12, 24, 31)
	want := refScores(pairs)

	leaderCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Align(leaderCtx, pairs)
		leaderErr <- err
	}()
	// The leader owns every flight once it has missed every pair.
	for s.CacheStats().Misses < int64(len(pairs)) {
		time.Sleep(time.Millisecond)
	}

	const followers = 3
	var wg sync.WaitGroup
	results := make([]*BatchResult, followers)
	errs := make([]error, followers)
	for i := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Align(context.Background(), pairs)
		}()
	}

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want context.DeadlineExceeded", err)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("failed leader left %d cached entries", st.Entries)
	}
	wg.Wait()
	if st := s.CacheStats(); st.Coalesced != followers*int64(len(pairs)) {
		t.Fatalf("%d follower lookups coalesced onto the leader, want %d", st.Coalesced, followers*len(pairs))
	}
	for i := range followers {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		assertScores(t, results[i].Scores, want)
	}

	batches := s.Stats().Batches
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if st := s.Stats(); res.Report.CacheHits != len(pairs) || st.Batches != batches {
		t.Fatalf("recomputed scores not served from cache: %d hits of %d, %d backend batches",
			res.Report.CacheHits, len(pairs), st.Batches-batches)
	}
}

// TestWarmCache seeds the cache with precomputed scores (the jobs recovery
// path) and checks a subsequent batch is served without any dispatch.
func TestWarmCache(t *testing.T) {
	s := newCachedService(t, Config{})
	pairs := plantedPairs(48, 16, 32, 55)
	scores := refScores(pairs)

	if n := s.WarmCache(pairs, scores); n != len(pairs) {
		t.Fatalf("WarmCache inserted %d, want %d", n, len(pairs))
	}
	if n := s.WarmCache(pairs, scores[:1]); n != 0 {
		t.Fatalf("mismatched lengths warmed %d entries, want 0", n)
	}

	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, scores)
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("warmed batch: %d hits, want %d", res.Report.CacheHits, len(pairs))
	}
	if st := s.Stats(); st.Batches != 0 {
		t.Fatalf("warmed batch still dispatched: %+v", st)
	}
}

// benchmarkDuplicateWorkload drives the issue's benchmark scenario: batches
// where 90% of pairs repeat a small panel of distinct pairs — the shape of
// database-screening traffic. Run with -bench to compare cache on vs off.
func benchmarkDuplicateWorkload(b *testing.B, withCache bool) {
	cfg := Config{Metrics: obs.NewRegistry()}
	if withCache {
		cfg.Cache = aligncache.New(aligncache.Config{
			MaxBytes: 64 << 20,
			Metrics:  obs.NewRegistry(),
		})
	}
	s := New(cfg)
	defer s.Close()

	// 256-pair batch, 26 distinct pairs (~90% duplicates).
	distinct := plantedPairs(26, 32, 64, 77)
	pairs := make([]dna.Pair, 256)
	for i := range pairs {
		pairs[i] = distinct[i%len(distinct)]
	}
	want := refScores(pairs)

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Align(ctx, pairs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scores[0] != want[0] {
			b.Fatalf("score drift: %d != %d", res.Scores[0], want[0])
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkAlignDuplicate90CacheOff(b *testing.B) { benchmarkDuplicateWorkload(b, false) }
func BenchmarkAlignDuplicate90CacheOn(b *testing.B)  { benchmarkDuplicateWorkload(b, true) }

// TestCacheDisabledIsUncachedPath pins the -cache-bytes=0 contract: a zero
// budget yields a nil cache, CacheEnabled is false, and Align takes the
// original dispatch path with no cache fields in the report.
func TestCacheDisabledIsUncachedPath(t *testing.T) {
	s := New(Config{Cache: aligncache.New(aligncache.Config{MaxBytes: 0}),
		Metrics: obs.NewRegistry()})
	defer s.Close()
	if s.CacheEnabled() {
		t.Fatal("zero-budget cache reported enabled")
	}
	if s.CacheStats() != nil {
		t.Fatal("disabled cache returned stats")
	}
	pairs := plantedPairs(32, 16, 32, 66)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.CacheHits != 0 || res.Report.CacheCoalesced != 0 {
		t.Fatalf("disabled cache produced cache report fields: %+v", res.Report)
	}
}
