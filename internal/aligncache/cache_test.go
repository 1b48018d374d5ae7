package aligncache

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
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

	// Pairs whose packed bases coincide: only the lengths in the header, or
	// the unpacked fallback for a code above 3, tell them apart.
	zero := dna.MustParse("ACAT")
	bad := zero.Clone()
	bad[2] = dna.Base(4) // packs to the same two bits as Base(0)
	for _, c := range []struct {
		name   string
		x1, y1 dna.Seq
		x2, y2 dna.Seq
	}{
		{"text length", dna.MustParse("ACGT"), dna.MustParse("A"), dna.MustParse("ACGT"), dna.MustParse("AA")},
		{"pattern length", dna.MustParse("A"), dna.MustParse("C"), dna.MustParse("AA"), dna.MustParse("C")},
		{"x/y split", dna.MustParse("A"), dna.MustParse("AAAA"), dna.MustParse("AA"), dna.MustParse("AAA")},
		{"code above 3", bad, y, zero, y},
	} {
		if KeyOf(c.x1, c.y1, swa.PaperScoring, 32) == KeyOf(c.x2, c.y2, swa.PaperScoring, 32) {
			t.Errorf("%s: (%v, %v) and (%v, %v) share a key", c.name, []dna.Base(c.x1), []dna.Base(c.y1), []dna.Base(c.x2), []dna.Base(c.y2))
		}
	}
	if KeyOf(bad, y, swa.PaperScoring, 32) != KeyOf(bad.Clone(), y, swa.PaperScoring, 32) {
		t.Errorf("KeyOf of a code above 3 is not deterministic")
	}
}

// TestKeyOfInjectiveSweep keys every pair over ACGT with 1 <= len(x) <= 3
// and 0 <= len(y) <= 4 (84 patterns × 341 texts) and asserts the keys are
// distinct: packing pads each sequence to a byte, so short pairs are where
// a length missing from the header would show.
func TestKeyOfInjectiveSweep(t *testing.T) {
	seqs := func(minLen, maxLen int) []dna.Seq {
		var out []dna.Seq
		for n := minLen; n <= maxLen; n++ {
			for v := 0; v < 1<<(2*n); v++ {
				s := make(dna.Seq, n)
				for j := range s {
					s[j] = dna.Base(v >> (2 * j) & 3)
				}
				out = append(out, s)
			}
		}
		return out
	}
	xs, ys := seqs(1, 3), seqs(0, 4)
	seen := make(map[Key]int, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			seen[KeyOf(x, y, swa.PaperScoring, 32)]++
		}
	}
	if want := 28644; len(xs)*len(ys) != want || len(seen) != want {
		t.Fatalf("%d pairs gave %d distinct keys, want %d of %d", len(xs)*len(ys), len(seen), want, want)
	}
}

// TestKeyOfPacksLikeDNAPack checks the packed encoding against dna.Pack,
// the format's reference, at every length up to 80 bases, so every tail
// of the packer's 8-base stride.
func TestKeyOfPacksLikeDNAPack(t *testing.T) {
	s := make(dna.Seq, 80)
	for i := range s {
		s[i] = dna.Base((i*7 + i/5) & 3)
	}
	for n := 0; n <= len(s); n++ {
		got, ok := appendPacked([]byte{0xee}, s[:n])
		if want := append([]byte{0xee}, dna.Pack(s[:n]).Bytes()...); !ok || !bytes.Equal(got, want) {
			t.Fatalf("len %d: appendPacked = %x, %v; want %x, true", n, got, ok, want)
		}
		if n > 0 {
			bad := s[:n].Clone()
			bad[n/2] |= 4
			if _, ok := appendPacked(nil, bad); ok {
				t.Fatalf("len %d: a code above 3 at %d packed as valid", n, n/2)
			}
		}
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

// checkShard walks a shard's LRU and free lists and asserts they partition
// its slots, with the map pointing every live key at its own slot.
func checkShard(t *testing.T, sh *shard) {
	t.Helper()
	live := 0
	prev := int32(nilSlot)
	for i := sh.head; i != nilSlot; i = sh.slots[i].next {
		if sh.slots[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, sh.slots[i].prev, prev)
		}
		if j, ok := sh.byKey[sh.slots[i].key]; !ok || j != i {
			t.Fatalf("slot %d: map points its key at (%d, %v)", i, j, ok)
		}
		prev = i
		live++
	}
	if sh.tail != prev || live != len(sh.byKey) {
		t.Fatalf("tail %d after %d live slots; want tail %d and %d live", sh.tail, live, prev, len(sh.byKey))
	}
	free := 0
	for i := sh.free; i != nilSlot; i = sh.slots[i].next {
		free++
	}
	if live+free != len(sh.slots) {
		t.Fatalf("%d live + %d free slots of %d", live, free, len(sh.slots))
	}
}

// TestSlotReuseServesOnlyItsKey churns 64 keys through one shard that holds
// about 8, from 4 goroutines, so slots are evicted and reused constantly.
// A map entry left pointing at a slot that was freed and refilled would
// serve another key's score.
func TestSlotReuseServesOnlyItsKey(t *testing.T) {
	const keys, workers, ops, cost = 64, 4, 12500, entryOverheadBytes
	c := testCache(t, Config{MaxBytes: 8 * cost, Shards: 1})
	score := func(i int) int { return 1000 + 7*i }
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for range ops {
				i := rng.IntN(keys)
				k := Key{31: byte(i)}
				if got, ok := c.Get(k); !ok {
					c.Put(k, score(i), cost)
				} else if got != score(i) {
					t.Errorf("key %d hit with score %d, want %d", i, got, score(i))
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.EvictionsLRU == 0 || st.Entries > 8 || st.Bytes != st.Entries*cost {
		t.Fatalf("stats = %+v, want hits, LRU evictions and at most 8 entries of %d bytes", st, cost)
	}
	checkShard(t, c.shards[0])
	if n := len(c.shards[0].slots); n > 9 {
		t.Fatalf("%d slots for at most 8 live entries: evicted slots were not reused", n)
	}
}

// TestLRUOrderAndRefresh pins the exact LRU order on one shard: a hit and a
// refreshing Put each move their key to the front, the tail is evicted, and
// a refresh rewrites the score and the charge in place.
func TestLRUOrderAndRefresh(t *testing.T) {
	const cost = entryOverheadBytes
	c := testCache(t, Config{MaxBytes: 3 * cost, Shards: 1})
	k := func(i byte) Key { return Key{31: i} }
	c.Put(k(1), 1, cost)
	c.Put(k(2), 2, cost)
	c.Put(k(3), 3, cost)
	c.Get(k(1))           // order 1 3 2
	c.Put(k(2), 20, cost) // refresh: 2 1 3
	c.Put(k(4), 4, cost)  // evicts 3: 4 2 1
	if _, ok := c.Get(k(3)); ok {
		t.Fatal("key 3 survived as the LRU tail")
	}
	if got, ok := c.Get(k(2)); !ok || got != 20 {
		t.Fatalf("refreshed key 2 = (%d, %v), want (20, true)", got, ok)
	}
	c.Put(k(4), 4, 2*cost) // a larger charge evicts the tail, key 1
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("key 1 survived a refresh that outgrew the budget")
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 3*cost || st.EvictionsLRU != 2 {
		t.Fatalf("stats = %+v, want 2 entries of %d bytes after 2 LRU evictions", st, 3*cost)
	}
	checkShard(t, c.shards[0])
}

// TestCacheStorageHoldsNoPointers keeps every type the cache stores per
// entry free of pointers, so the garbage collector allocates a shard's slots
// and map as memory it never scans. A time.Time expiry (its *Location) or a
// list element would fail it.
func TestCacheStorageHoldsNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			return false
		default:
			return true
		}
	}
	slots := reflect.TypeOf(shard{}.slots)
	byKey := reflect.TypeOf(shard{}.byKey)
	for _, ty := range []reflect.Type{slots.Elem(), byKey.Key(), byKey.Elem()} {
		if !pointerFree(ty) {
			t.Errorf("%v holds a pointer: the garbage collector would scan every entry", ty)
		}
	}
	if pointerFree(reflect.TypeOf(time.Time{})) {
		t.Error("the check passes time.Time, which holds a *Location")
	}
}

// BenchmarkKeyOf times one pair's key at the serve bench's two shapes.
func BenchmarkKeyOf(b *testing.B) {
	for _, shape := range [][2]int{{128, 256}, {128, 1024}} {
		rng := rand.New(rand.NewPCG(1, 2))
		x, y := dna.RandSeq(rng, shape[0]), dna.RandSeq(rng, shape[1])
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = KeyOf(x, y, swa.PaperScoring, 32)
			}
		})
	}
}

var sinkKey Key
