package alignsvc

// This file is the cache face of the service: Align's cached fast path and
// the Stats surface. The cache itself (sharding, LRU, TTL) lives in
// internal/aligncache; this layer decides how a batch splits into cached and
// uncached halves; the uncached remainder takes an engine slot through
// dispatch like any batch. Scoring is the cache's only filler.

import (
	"context"
	"time"

	"repro/internal/aligncache"
	"repro/internal/dna"
)

// alignCached is Align's fast path when a cache is configured. It looks each
// distinct pair up once, scores every miss in one dispatch and publishes the
// scored misses with Put. Duplicate pairs within the batch collapse onto one
// miss, so a 32K-pair panel with 100 distinct pairs dispatches at most 100.
// A concurrent batch that misses the same pair scores it too: a missed pair
// costs microseconds, and the engine slots bound how many batches score at
// once. A failed dispatch caches nothing.
func (s *Service) alignCached(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	if len(pairs) == 0 {
		// Preserve the uncached path's validation error for empty batches.
		return s.dispatch(ctx, pairs)
	}
	start := time.Now()
	cache := s.cfg.Cache
	sc := s.Scoring()
	lanes := s.cfg.Lanes

	// scores[i] is pair i's score on a hit, or -(j+1) when pair i waits on
	// the batch's j-th distinct miss: a local alignment score is never
	// negative, so an all-hit batch needs no bookkeeping beyond scores.
	scores := make([]int, len(pairs))
	var (
		missIdx   map[aligncache.Key]int // sized at the first miss to the pairs left
		missPairs []dna.Pair
		missKeys  []aligncache.Key
		hits      int
	)
	for i, p := range pairs {
		k := aligncache.KeyOf(p.X, p.Y, sc, lanes)
		if j, dup := missIdx[k]; dup {
			scores[i] = -(j + 1)
			continue
		}
		if score, ok := cache.Get(k); ok {
			scores[i] = score
			hits++
			continue
		}
		if missIdx == nil {
			left := len(pairs) - i
			missIdx = make(map[aligncache.Key]int, left)
			missPairs = make([]dna.Pair, 0, left)
			missKeys = make([]aligncache.Key, 0, left)
		}
		missIdx[k] = len(missPairs)
		scores[i] = -(len(missPairs) + 1)
		missPairs = append(missPairs, p)
		missKeys = append(missKeys, k)
	}

	// A batch that dispatches nothing reports the serving backend's tier.
	rep := Report{Tier: s.tier, CacheHits: hits}
	if len(missPairs) > 0 {
		res, err := s.dispatch(ctx, missPairs)
		if err != nil {
			return nil, err
		}
		for j, k := range missKeys {
			p := missPairs[j]
			cache.Put(k, res.Scores[j], aligncache.Cost(p.X, p.Y))
		}
		for i, v := range scores {
			if v < 0 {
				scores[i] = res.Scores[-v-1]
			}
		}
		rep = res.Report
		rep.CacheHits = hits
	}
	rep.Elapsed = time.Since(start)
	return &BatchResult{Scores: scores, Report: rep}, nil
}

// CacheStats snapshots the cache counters, or nil when no cache is
// configured. The server renders it as the /statsz "cache" section.
func (s *Service) CacheStats() *aligncache.Stats {
	if !s.cfg.Cache.Enabled() {
		return nil
	}
	st := s.cfg.Cache.Stats()
	return &st
}
