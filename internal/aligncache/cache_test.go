package aligncache

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/swa"
)

func testCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c := New(cfg)
	if c == nil {
		t.Fatalf("New(%+v) = nil, want live cache", cfg)
	}
	return c
}

func pairKey(i int) (Key, dna.Seq, dna.Seq) {
	x := dna.MustParse("ACGTACGT")
	// Build a distinct text per i from the base alphabet.
	text := make(dna.Seq, 16)
	for j := range text {
		text[j] = dna.Base((i >> (j % 4)) & 3)
	}
	return KeyOf(x, text, swa.PaperScoring, 32), x, text
}

func TestKeyOfInjective(t *testing.T) {
	x := dna.MustParse("ACGT")
	y := dna.MustParse("ACGTACGT")
	base := KeyOf(x, y, swa.PaperScoring, 32)
	variants := []Key{
		KeyOf(dna.MustParse("ACGA"), y, swa.PaperScoring, 32),                         // pattern bytes
		KeyOf(x, dna.MustParse("ACGTACGA"), swa.PaperScoring, 32),                     // text bytes
		KeyOf(x, y, swa.Scoring{Match: 3, Mismatch: 1, Gap: 1}, 32),                   // scoring
		KeyOf(x, y, swa.PaperScoring, 64),                                             // lanes
		KeyOf(dna.MustParse("ACGTA"), dna.MustParse("CGTACGT"), swa.PaperScoring, 32), // x/y boundary shift
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
	if again := KeyOf(x, y, swa.PaperScoring, 32); again != base {
		t.Errorf("KeyOf is not deterministic")
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := testCache(t, Config{MaxBytes: 1 << 20})
	k, x, y := pairKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 42, Cost(x, y))
	if got, ok := c.Get(k); !ok || got != 42 {
		t.Fatalf("Get = (%d, %v), want (42, true)", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d out of (0, %d]", st.Bytes, st.MaxBytes)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	k, x, y := pairKey(1)
	if c.Enabled() {
		t.Fatal("nil cache reports enabled")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(k, 1, Cost(x, y)) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
}

// TestNoStaleHitAfterEviction fills the cache past its bound and asserts
// evicted keys miss (and, once re-inserted with a new score, serve the new
// score — no resurrection of stale entries).
func TestNoStaleHitAfterEviction(t *testing.T) {
	// One shard so the LRU order is global and deterministic.
	c := testCache(t, Config{MaxBytes: 4 * Cost(dna.MustParse("ACGTACGT"), make(dna.Seq, 16)), Shards: 1})
	const n = 32
	for i := 0; i < n; i++ {
		k, x, y := pairKey(i)
		c.Put(k, i, Cost(x, y))
	}
	if c.Len() >= n {
		t.Fatalf("no eviction happened: %d entries live", c.Len())
	}
	st := c.Stats()
	if st.EvictionsLRU == 0 {
		t.Fatal("no LRU evictions recorded")
	}
	// The oldest keys must be gone; a hit on them would be stale.
	k0, x0, y0 := pairKey(0)
	if got, ok := c.Get(k0); ok {
		t.Fatalf("stale hit on evicted key: %d", got)
	}
	// Re-insert with a different score: the next hit must see the new value.
	c.Put(k0, 999, Cost(x0, y0))
	if got, ok := c.Get(k0); !ok || got != 999 {
		t.Fatalf("after re-insert: (%d, %v), want (999, true)", got, ok)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := testCache(t, Config{MaxBytes: 1 << 20, TTL: time.Minute, now: clock})
	k, x, y := pairKey(7)
	c.Put(k, 7, Cost(x, y))
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	if got, ok := c.Get(k); ok {
		t.Fatalf("expired entry served: %d", got)
	}
	if st := c.Stats(); st.EvictionsTTL != 1 || st.Entries != 0 {
		t.Fatalf("stats after expiry = %+v, want 1 ttl eviction, 0 entries", st)
	}
}

// TestConcurrentPutRefreshesInPlace Puts one key from several goroutines
// while others Get it. Put refreshes a live entry in place under the shard
// lock, so a Get must read the score under that lock too: -race reports a
// read made after the unlock. The key must stay one entry charged once.
func TestConcurrentPutRefreshesInPlace(t *testing.T) {
	c := testCache(t, Config{MaxBytes: 1 << 20})
	k, x, y := pairKey(9)
	const score, writers, readers, rounds = 42, 4, 4, 500
	c.Put(k, score, Cost(x, y))

	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				c.Put(k, score, Cost(x, y))
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if got, ok := c.Get(k); !ok || got != score {
					t.Errorf("Get = (%d, %v), want (%d, true)", got, ok, score)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 1 || st.Bytes != Cost(x, y) {
		t.Fatalf("stats = %+v, want 1 entry of %d bytes", st, Cost(x, y))
	}
}

func TestNewDisabled(t *testing.T) {
	if c := New(Config{MaxBytes: 0}); c != nil {
		t.Fatal("MaxBytes=0 should return the nil cache")
	}
	if c := New(Config{MaxBytes: -5}); c != nil {
		t.Fatal("negative MaxBytes should return the nil cache")
	}
}
