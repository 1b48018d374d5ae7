package alignsvc

// This file is the cache face of the service: Align's cached fast path,
// recovery-time cache warming, and the Stats surface. The cache itself
// (sharding, LRU, TTL, singleflight) lives in internal/aligncache; this
// layer decides how a batch splits into cached and uncached halves; the
// uncached remainder takes an engine slot through dispatch like any batch.

import (
	"context"
	"time"

	"repro/internal/aligncache"
	"repro/internal/dna"
)

// pending tracks one unique uncached key of a batch: the flight it owns (or
// follows) and every batch index that wants its score.
type pending struct {
	flight *aligncache.Flight
	idxs   []int
}

// alignCached is Align's fast path when a cache is configured. Per pair it
// resolves one of: cache hit (served immediately), flight leader (this call
// computes it, batched with the other leaders through the normal dispatch
// path) or flight follower (another in-flight batch is computing it; wait).
// Within the batch, duplicate pairs collapse onto one leader or follower,
// so a 32K-pair panel with 100 distinct pairs dispatches at most 100.
func (s *Service) alignCached(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	if len(pairs) == 0 {
		// Preserve the uncached path's validation error for empty batches.
		return s.dispatch(ctx, pairs, backend)
	}
	start := time.Now()
	cache := s.cfg.Cache
	sc := s.Scoring()
	lanes := s.cfg.Lanes

	scores := make([]int, len(pairs))
	var (
		leaders   = make(map[aligncache.Key]*pending)
		followers = make(map[aligncache.Key]*pending)
		missPairs []dna.Pair
		missKeys  []aligncache.Key
		hits      int
	)
	for i, p := range pairs {
		k := aligncache.KeyOf(p.X, p.Y, sc, lanes)
		if lp, dup := leaders[k]; dup {
			lp.idxs = append(lp.idxs, i)
			continue
		}
		if fp, dup := followers[k]; dup {
			fp.idxs = append(fp.idxs, i)
			continue
		}
		score, ok, flight, leader := cache.Lookup(k)
		switch {
		case ok:
			scores[i] = score
			hits++
		case leader:
			leaders[k] = &pending{flight: flight, idxs: []int{i}}
			missPairs = append(missPairs, p)
			missKeys = append(missKeys, k)
		default:
			followers[k] = &pending{flight: flight, idxs: []int{i}}
		}
	}

	// A batch that dispatches nothing reports the backend it asked for.
	tier, _ := backendTier(backend) // validated by Align and AlignBackend
	rep := Report{Tier: tier, CacheHits: hits}

	// Score the uncached remainder as one batch on one engine slot, then
	// publish each score so every follower (here and in concurrent
	// batches) unblocks.
	if len(missPairs) > 0 {
		res, err := s.dispatch(ctx, missPairs, backend)
		if err != nil {
			// Fulfilling with the error releases followers; the key stays
			// retryable (failed flights are never cached).
			for i, k := range missKeys {
				p := missPairs[i]
				cache.Fulfill(k, leaders[k].flight, 0, aligncache.Cost(p.X, p.Y), err)
			}
			return nil, err
		}
		for i, k := range missKeys {
			p := missPairs[i]
			cache.Fulfill(k, leaders[k].flight, res.Scores[i], aligncache.Cost(p.X, p.Y), nil)
			for _, idx := range leaders[k].idxs {
				scores[idx] = res.Scores[i]
			}
		}
		rep = res.Report
		rep.CacheHits = hits
	}

	// Wait for the keys other batches are computing. A failed flight means
	// the other batch failed (or its context died) — recompute those pairs
	// ourselves rather than inheriting a stranger's failure.
	var retryPairs []dna.Pair
	var retryKeys []aligncache.Key
	var retryIdxs [][]int
	for k, fp := range followers {
		score, err := fp.flight.Wait(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, s.noteCtxErr(ctx.Err())
			}
			i0 := fp.idxs[0]
			retryPairs = append(retryPairs, pairs[i0])
			retryKeys = append(retryKeys, k)
			retryIdxs = append(retryIdxs, fp.idxs)
			continue
		}
		rep.CacheCoalesced += len(fp.idxs)
		for _, idx := range fp.idxs {
			scores[idx] = score
		}
	}
	if len(retryPairs) > 0 {
		res, err := s.dispatch(ctx, retryPairs, backend)
		if err != nil {
			return nil, err
		}
		for i, k := range retryKeys {
			p := retryPairs[i]
			cache.Put(k, res.Scores[i], aligncache.Cost(p.X, p.Y))
			for _, idx := range retryIdxs[i] {
				scores[idx] = res.Scores[i]
			}
		}
		if len(missPairs) == 0 {
			rep = res.Report
			rep.CacheHits = hits
		}
	}

	rep.Elapsed = time.Since(start)
	return &BatchResult{Scores: scores, Report: rep}, nil
}

// WarmCache inserts precomputed (pair, score) results into the cache —
// recovery paths use it to republish scores that are already durable (job
// WAL checkpoints), so replayed and re-submitted work hits even across
// process restarts. It returns how many entries were inserted; without a
// cache it is a cheap no-op.
func (s *Service) WarmCache(pairs []dna.Pair, scores []int) int {
	if !s.cfg.Cache.Enabled() || len(pairs) != len(scores) {
		return 0
	}
	sc := s.Scoring()
	for i, p := range pairs {
		s.cfg.Cache.Put(aligncache.KeyOf(p.X, p.Y, sc, s.cfg.Lanes), scores[i], aligncache.Cost(p.X, p.Y))
	}
	return len(pairs)
}

// CacheEnabled reports whether the service has a live score cache.
func (s *Service) CacheEnabled() bool { return s.cfg.Cache.Enabled() }

// CacheStats snapshots the cache counters, or nil when no cache is
// configured. The server renders it as the /statsz "cache" section.
func (s *Service) CacheStats() *aligncache.Stats {
	if !s.cfg.Cache.Enabled() {
		return nil
	}
	st := s.cfg.Cache.Stats()
	return &st
}
