// Package aligncache memoizes alignment scores by content: a sharded,
// bounded LRU keyed by a cryptographic hash of everything that determines a
// score — the pattern bytes, the text bytes, the scoring scheme and the lane
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
//     least-recently-used tail.
//   - TTL: entries older than TTL are treated as misses and evicted on
//     contact, so a long-lived server does not serve unbounded-age results.
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
	"container/list"
	"crypto/sha256"
	"encoding/binary"
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
// sharing a key format can never alias.
const keyVersion = 1

// keyBufPool recycles the hash staging buffer so KeyOf performs no
// steady-state allocation on the hot path.
var keyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// KeyOf derives the content-addressed key of one pair under a scoring scheme
// and lane width. The encoding is injective: fixed-width header (version,
// lanes, match, mismatch, gap, len(x)) followed by the raw 2-bit-coded
// pattern and text bytes — the pattern length delimits where x ends and y
// begins, and shapes are uniform per batch, so no two distinct inputs share
// an encoding.
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
	b := (*bp)[:0]
	var hdr [44]byte
	hdr[0] = keyVersion
	binary.LittleEndian.PutUint64(hdr[4:], uint64(lanes))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(int64(sc.Match)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(int64(sc.Mismatch)))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(int64(sc.Gap)))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(x)))
	b = append(b, hdr[:]...)
	for _, c := range x {
		b = append(b, byte(c))
	}
	for _, c := range y {
		b = append(b, byte(c))
	}
	k := Key(sha256.Sum256(b))
	*bp = b[:0]
	keyBufPool.Put(bp)
	return k
}

// entryOverheadBytes approximates the fixed per-entry cost (key copy, list
// element, map slot, entry struct) charged against MaxBytes on top of the
// sequence bytes, so MaxBytes bounds real memory, not just payload.
const entryOverheadBytes = 160

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

// entry is one cached score. Entries live in a shard's LRU list; the map
// points at the list element.
type entry struct {
	key     Key
	score   int
	cost    int64
	expires time.Time // zero when TTL is disabled
}

type shard struct {
	mu    sync.Mutex
	byKey map[Key]*list.Element // -> *entry (element value)
	lru   *list.List            // front = most recently used
	bytes int64
}

// Cache is a sharded, bounded, TTL-expiring score cache. Create with New;
// all methods are safe for concurrent use and safe on a nil receiver (inert
// misses).
type Cache struct {
	cfg    Config
	shards []*shard

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
	c := &Cache{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range c.shards {
		c.shards[i] = &shard{byKey: make(map[Key]*list.Element), lru: list.New()}
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
	if el, live := sh.byKey[k]; live {
		e := el.Value.(*entry)
		if e.expires.IsZero() || c.cfg.now().Before(e.expires) {
			sh.lru.MoveToFront(el)
			// Read the score under the lock: a concurrent Put of the same
			// key rewrites the entry in place.
			score := e.score
			sh.mu.Unlock()
			c.hits.Add(1)
			c.mHits.Inc()
			return score, true
		}
		c.removeLocked(sh, el)
		c.evictTTL.Add(1)
		c.mEvictTTL.Inc()
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()
	return 0, false
}

// insertLocked adds or refreshes an entry and evicts the LRU tail past the
// per-shard byte budget. Requires sh.mu held.
func (c *Cache) insertLocked(sh *shard, k Key, score int, cost int64) {
	if cost < entryOverheadBytes {
		cost = entryOverheadBytes
	}
	var expires time.Time
	if c.cfg.TTL > 0 {
		expires = c.cfg.now().Add(c.cfg.TTL)
	}
	if el, live := sh.byKey[k]; live {
		// Refresh in place: identical inputs give identical scores, so only
		// the recency and expiry change.
		e := el.Value.(*entry)
		e.score, e.expires = score, expires
		sh.bytes += cost - e.cost
		c.bytes.Add(cost - e.cost)
		e.cost = cost
		sh.lru.MoveToFront(el)
	} else {
		el := sh.lru.PushFront(&entry{key: k, score: score, cost: cost, expires: expires})
		sh.byKey[k] = el
		sh.bytes += cost
		c.bytes.Add(cost)
		c.entries.Add(1)
	}
	// Each shard owns an equal slice of the global budget, so the global
	// bound holds without cross-shard coordination.
	budget := c.cfg.MaxBytes / int64(len(c.shards))
	if budget < 1 {
		budget = 1
	}
	for sh.bytes > budget && sh.lru.Len() > 1 {
		c.removeLocked(sh, sh.lru.Back())
		c.evictLRU.Add(1)
		c.mEvictLRU.Inc()
	}
	c.gBytes.Set(float64(c.bytes.Load()))
	c.gEntries.Set(float64(c.entries.Load()))
}

// removeLocked unlinks one entry. Requires sh.mu held.
func (c *Cache) removeLocked(sh *shard, el *list.Element) {
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.byKey, e.key)
	sh.bytes -= e.cost
	c.bytes.Add(-e.cost)
	c.entries.Add(-1)
	c.gBytes.Set(float64(c.bytes.Load()))
	c.gEntries.Set(float64(c.entries.Load()))
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
