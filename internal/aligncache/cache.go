// Package aligncache memoizes alignment scores by content: a sharded,
// bounded LRU keyed by a cryptographic hash of everything that determines a
// score — the pattern bases, the text bases, the scoring scheme and the lane
// width — so a hit is byte-identical to a recompute by construction (see
// DESIGN.md §11 for the correctness argument). Real alignment traffic is
// highly redundant (database screening re-runs the same pattern panels),
// and a hit costs one hash and one map lookup instead of the full
// bit-parallel dynamic program.
//
// Two mechanisms bound the cache:
//
//   - Bounded memory: every entry is charged its sequence bytes plus a fixed
//     overhead against MaxBytes; inserting past the bound evicts from the
//     least-recently-used tail. The charge is an upper bound on what an
//     entry occupies, not its footprint: the cache stores no bases.
//   - TTL: entries older than TTL are treated as misses and evicted on
//     contact, so a long-lived server does not serve unbounded-age results.
//
// Nothing the cache stores holds a pointer. Each shard keeps its entries in
// one slice of slots linked into the LRU order by int32 indices, and maps
// each key to its slot index, so the garbage collector allocates both as
// memory it never scans, however many entries are live.
//
// A miss is only a miss: the caller scores the pair and Puts it. Two callers
// that miss the same key at once both score it, because a missed pair costs
// microseconds on the striped engine, less than coordinating them would.
//
// Every operation is instrumented through internal/obs: hit/miss and
// per-reason eviction counters, entry and byte gauges, and a lookup-latency
// histogram, all under the aligncache_ metric prefix.
//
// A nil *Cache is valid and inert: every method is a no-op returning a miss,
// so callers wire `var c *aligncache.Cache` through unconditionally and the
// disabled configuration stays byte-identical to the uncached code path.
package aligncache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/swa"
)

// Key is the content address of one (pattern, text, scoring, lanes) scoring
// problem: a SHA-256 over a domain-separated encoding of all four. Two keys
// are equal iff the inputs the score depends on are identical, so a cache
// hit can never return a score the engines would not have produced.
type Key [32]byte

// keyVersion is the first byte of the hashed encoding; bump it if the
// encoding (or the meaning of a score) ever changes, so stale processes
// sharing a key format can never alias. keyVersionRaw marks the unpacked
// encoding of a pair holding a code above 3.
const (
	keyVersion    = 2
	keyVersionRaw = keyVersion | 0x80
)

// keyBufPool recycles the hash staging buffer so KeyOf performs no
// steady-state allocation on the hot path.
var keyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// KeyOf derives the content-addressed key of one pair under a scoring scheme
// and lane width. The encoding is injective: a fixed-width header (version,
// lanes, match, mismatch, gap, len(x), len(y)) followed by the pattern and
// the text in the paper's 2-bit packed format (dna.Packed: four bases to a
// byte, the last byte of each zero-padded so the text starts on a byte
// boundary). The two lengths delimit both sequences and their padding, so
// no two distinct inputs share an encoding. A Seq holding a code above 3,
// which only code building a Seq by hand can make, is hashed one byte per
// base under keyVersionRaw instead, so the key stays injective over every
// input.
//
// The serving backend is deliberately NOT part of the key. Every backend
// (bitwise-sim, wordwise-sim, striped, cpu-ref) is required to produce
// byte-identical scores for the same (pattern, text, scoring, lanes) —
// the sim pipelines are validated against the CPU reference and the
// striped engine is exact by construction — so an entry filled by one
// backend may be served to a request targeting any other. If a future
// backend can legitimately return different scores for the same inputs
// (approximate or banded alignment, say), its identity must be folded
// into this key (and keyVersion bumped), or its results must bypass the
// cache entirely. alignsvc's cross-backend cache test enforces the
// invariant for the current backends.
func KeyOf(x, y dna.Seq, sc swa.Scoring, lanes int) Key {
	bp := keyBufPool.Get().(*[]byte)
	b := appendKeyHeader((*bp)[:0], keyVersion, x, y, sc, lanes)
	b, okX := appendPacked(b, x)
	b, okY := appendPacked(b, y)
	if !okX || !okY {
		b = appendKeyHeader(b[:0], keyVersionRaw, x, y, sc, lanes)
		for _, c := range x {
			b = append(b, byte(c))
		}
		for _, c := range y {
			b = append(b, byte(c))
		}
	}
	k := Key(sha256.Sum256(b))
	*bp = b[:0]
	keyBufPool.Put(bp)
	return k
}

func appendKeyHeader(b []byte, version byte, x, y dna.Seq, sc swa.Scoring, lanes int) []byte {
	var hdr [52]byte
	hdr[0] = version
	binary.LittleEndian.PutUint64(hdr[4:], uint64(lanes))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(int64(sc.Match)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(int64(sc.Mismatch)))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(int64(sc.Gap)))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(x)))
	binary.LittleEndian.PutUint64(hdr[44:], uint64(len(y)))
	return append(b, hdr[:]...)
}

// appendPacked appends s in dna.Packed's layout, base i at bit 2*(i%4) of
// byte i/4 and the last byte zero-padded. It reports false when some base
// held a code above 3, which its two bits cannot hold.
func appendPacked(b []byte, s dna.Seq) ([]byte, bool) {
	var or uint64
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := load8(s[i:])
		or |= w
		b = binary.LittleEndian.AppendUint16(b, uint16(pack8(w)))
	}
	if i < len(s) {
		var w uint64
		for j, c := range s[i:] {
			w |= uint64(c) << (8 * j)
		}
		or |= w
		p := pack8(w)
		for j := 0; j < len(s)-i; j += 4 {
			b = append(b, byte(p>>(2*j)))
		}
	}
	return b, or&^0x0303030303030303 == 0
}

// load8 reads eight bases as one little-endian word, base j in byte j.
func load8(s dna.Seq) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// pack8 gathers the low two bits of each byte of w into the low 16 bits,
// byte j's bits at 2j.
func pack8(w uint64) uint64 {
	w &= 0x0303030303030303
	w = (w | w>>6) & 0x000f000f000f000f
	w = (w | w>>12) & 0x000000ff000000ff
	return (w | w>>24) & 0xffff
}

// entryOverheadBytes is the fixed part of an entry's MaxBytes charge, on top
// of its sequence bytes. An entry occupies one 64-byte slot (key, score,
// charge, expiry and two links) and one map slot (key and index), 83–139
// bytes in all with the growth slack of both, and stores no bases, so the
// charge is an upper bound on the cache's memory, not its footprint.
const entryOverheadBytes = 160

// maxShardBudget caps a shard's byte budget so that its slot indices fit an
// int32: an entry is charged at least entryOverheadBytes, so a shard within
// this budget never holds more than math.MaxInt32 slots. The cap is 343 GB
// per shard, past any memory the cache could be given.
const maxShardBudget = (math.MaxInt32 - 1) * entryOverheadBytes

// Cost returns the MaxBytes charge of caching one pair's score.
func Cost(x, y dna.Seq) int64 {
	return int64(len(x)) + int64(len(y)) + entryOverheadBytes
}

// Config tunes a Cache. MaxBytes <= 0 disables caching entirely (New
// returns nil, and the nil Cache is inert).
type Config struct {
	// MaxBytes bounds the total charged size of cached entries; inserts past
	// it evict least-recently-used entries. <= 0 disables the cache.
	MaxBytes int64
	// TTL is the maximum age of a served entry (0 = no expiry). Expired
	// entries count as misses and are evicted when touched.
	TTL time.Duration
	// Shards is the number of independently locked shards (default 16).
	// Keys distribute uniformly (they are hashes), so contention drops
	// roughly linearly in Shards.
	Shards int
	// Metrics receives the aligncache_ counters, gauges and the
	// lookup-latency histogram (nil = obs.Default()).
	Metrics *obs.Registry

	// now replaces the TTL clock in tests.
	now func() time.Time
}

// nilSlot ends an LRU or free list.
const nilSlot = -1

// slot is one cached score, linked into its shard's LRU list (or, once
// evicted, its free list) by index. It holds no pointer, so a []slot is
// memory the garbage collector never scans.
type slot struct {
	key   Key
	score int
	cost  int64
	// expires is the entry's expiry in nanoseconds since the cache was
	// built; unused when TTL is disabled.
	expires    int64
	prev, next int32
}

type shard struct {
	mu    sync.Mutex
	byKey map[Key]int32 // -> index into slots of the key's live slot
	slots []slot
	// head and tail are the most and least recently used live slots; free
	// heads the evicted slots awaiting reuse, linked through next.
	head, tail, free int32
	bytes            int64
}

// Cache is a sharded, bounded, TTL-expiring score cache. Create with New;
// all methods are safe for concurrent use and safe on a nil receiver (inert
// misses).
type Cache struct {
	cfg    Config
	shards []*shard
	// budget is each shard's equal slice of MaxBytes, so the global bound
	// holds without cross-shard coordination.
	budget int64
	// start is the TTL clock's origin for slot expiries.
	start time.Time

	hits, misses       atomic.Int64
	evictLRU, evictTTL atomic.Int64
	entries, bytes     atomic.Int64

	mHits, mMisses       *obs.Counter
	mEvictLRU, mEvictTTL *obs.Counter
	gEntries, gBytes     *obs.Gauge
	lookupLat            *obs.Histogram
}

// New builds a cache, or returns nil (the inert cache) when cfg.MaxBytes
// disables it.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Cache{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		budget: min(max(cfg.MaxBytes/int64(cfg.Shards), 1), maxShardBudget),
		start:  cfg.now(),
	}
	for i := range c.shards {
		c.shards[i] = &shard{byKey: make(map[Key]int32), head: nilSlot, tail: nilSlot, free: nilSlot}
	}
	reg := cfg.Metrics
	reg.Help("aligncache_hits_total", "Cache lookups served from a stored score.")
	reg.Help("aligncache_misses_total", "Cache lookups that found no live entry.")
	reg.Help("aligncache_evictions_total", "Entries evicted, by reason (lru = size bound, ttl = expiry).")
	reg.Help("aligncache_entries", "Live cached scores.")
	reg.Help("aligncache_bytes", "Charged bytes of live cached scores.")
	reg.Help("aligncache_lookup_seconds", "Latency of cache lookups (hit or miss).")
	c.mHits = reg.Counter("aligncache_hits_total")
	c.mMisses = reg.Counter("aligncache_misses_total")
	c.mEvictLRU = reg.Counter(obs.L("aligncache_evictions_total", "reason", "lru"))
	c.mEvictTTL = reg.Counter(obs.L("aligncache_evictions_total", "reason", "ttl"))
	c.gEntries = reg.Gauge("aligncache_entries")
	c.gBytes = reg.Gauge("aligncache_bytes")
	c.lookupLat = reg.Histogram("aligncache_lookup_seconds", obs.LatencyBuckets)
	return c
}

// Enabled reports whether the cache is live (non-nil).
func (c *Cache) Enabled() bool { return c != nil }

func (c *Cache) shardFor(k Key) *shard {
	// Keys are uniform hashes; the first bytes index shards evenly.
	return c.shards[int(binary.LittleEndian.Uint32(k[:4]))%len(c.shards)]
}

// age is the TTL clock's reading, in nanoseconds since the cache was built.
func (c *Cache) age() int64 { return int64(c.cfg.now().Sub(c.start)) }

// Put inserts a score with the given MaxBytes charge, or refreshes the
// entry's recency, expiry and charge if the key is live. Callers publish
// every score they computed (two concurrent misses Put the same score
// twice); scoring is the cache's only filler. A failed computation is
// simply never Put.
func (c *Cache) Put(k Key, score int, cost int64) {
	if c == nil {
		return
	}
	sh := c.shardFor(k)
	sh.mu.Lock()
	c.insertLocked(sh, k, score, cost)
	sh.mu.Unlock()
}

// Get looks one key up: a hit bumps the entry to the front of its shard's
// LRU and returns its score; an absent or expired key is a miss.
func (c *Cache) Get(k Key) (int, bool) {
	if c == nil {
		return 0, false
	}
	begin := time.Now()
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer func() { c.lookupLat.ObserveDuration(time.Since(begin)) }()
	if i, live := sh.byKey[k]; live {
		if c.cfg.TTL <= 0 || c.age() < sh.slots[i].expires {
			sh.moveToFront(i)
			// Read the score under the lock: a concurrent Put of the same
			// key rewrites the slot in place.
			score := sh.slots[i].score
			sh.mu.Unlock()
			c.hits.Add(1)
			c.mHits.Inc()
			return score, true
		}
		c.removeLocked(sh, i)
		c.evictTTL.Add(1)
		c.mEvictTTL.Inc()
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()
	return 0, false
}

// insertLocked adds or refreshes an entry and evicts the LRU tail past the
// shard's byte budget. Requires sh.mu held.
func (c *Cache) insertLocked(sh *shard, k Key, score int, cost int64) {
	if cost < entryOverheadBytes {
		cost = entryOverheadBytes
	}
	var expires int64
	if c.cfg.TTL > 0 {
		age := c.age()
		if expires = age + int64(c.cfg.TTL); expires < age {
			expires = math.MaxInt64 // past the clock's range: never expires
		}
	}
	if i, live := sh.byKey[k]; live {
		// Refresh in place: identical inputs give identical scores, so only
		// the recency and expiry change.
		s := &sh.slots[i]
		s.score, s.expires = score, expires
		sh.bytes += cost - s.cost
		c.bytes.Add(cost - s.cost)
		s.cost = cost
		sh.moveToFront(i)
	} else {
		i := sh.alloc()
		sh.slots[i] = slot{key: k, score: score, cost: cost, expires: expires}
		sh.pushFront(i)
		sh.byKey[k] = i
		sh.bytes += cost
		c.bytes.Add(cost)
		c.entries.Add(1)
	}
	for sh.bytes > c.budget && sh.head != sh.tail {
		c.removeLocked(sh, sh.tail)
		c.evictLRU.Add(1)
		c.mEvictLRU.Inc()
	}
	c.gBytes.Set(float64(c.bytes.Load()))
	c.gEntries.Set(float64(c.entries.Load()))
}

// removeLocked unlinks one live slot and frees it for reuse. Requires sh.mu
// held.
func (c *Cache) removeLocked(sh *shard, i int32) {
	s := &sh.slots[i]
	sh.unlink(i)
	delete(sh.byKey, s.key)
	sh.bytes -= s.cost
	c.bytes.Add(-s.cost)
	c.entries.Add(-1)
	s.next, sh.free = sh.free, i
	c.gBytes.Set(float64(c.bytes.Load()))
	c.gEntries.Set(float64(c.entries.Load()))
}

// alloc takes a slot off the free list, or grows the slice when none is
// free. The slice never shrinks: its length is the shard's high-water mark
// of live entries plus the one being inserted, which the byte budget bounds.
func (sh *shard) alloc() int32 {
	if i := sh.free; i != nilSlot {
		sh.free = sh.slots[i].next
		return i
	}
	sh.slots = append(sh.slots, slot{})
	return int32(len(sh.slots) - 1)
}

func (sh *shard) pushFront(i int32) {
	sh.slots[i].prev, sh.slots[i].next = nilSlot, sh.head
	if sh.head != nilSlot {
		sh.slots[sh.head].prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

func (sh *shard) unlink(i int32) {
	prev, next := sh.slots[i].prev, sh.slots[i].next
	if prev != nilSlot {
		sh.slots[prev].next = next
	} else {
		sh.head = next
	}
	if next != nilSlot {
		sh.slots[next].prev = prev
	} else {
		sh.tail = prev
	}
}

func (sh *shard) moveToFront(i int32) {
	if sh.head != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
}

// Stats is a point-in-time snapshot of the cache counters, rendered into
// /statsz. Field names are the stable wire format.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Coalesced is always 0: the cache no longer coalesces concurrent
	// misses. It stays for callers that read it.
	Coalesced    int64 `json:"coalesced"`
	EvictionsLRU int64 `json:"evictions_lru"`
	EvictionsTTL int64 `json:"evictions_ttl"`
	Entries      int64 `json:"entries"`
	Bytes        int64 `json:"bytes"`
	MaxBytes     int64 `json:"max_bytes"`
	TTLMS        int64 `json:"ttl_ms"`
	Shards       int   `json:"shards"`
}

// Stats snapshots the counters. A nil cache returns the zero Stats.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		EvictionsLRU: c.evictLRU.Load(),
		EvictionsTTL: c.evictTTL.Load(),
		Entries:      c.entries.Load(),
		Bytes:        c.bytes.Load(),
		MaxBytes:     c.cfg.MaxBytes,
		TTLMS:        c.cfg.TTL.Milliseconds(),
		Shards:       len(c.shards),
	}
}

// Len returns the number of live entries (for tests and gauges).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}
