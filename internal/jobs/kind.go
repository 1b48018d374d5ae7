package jobs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobstore"
)

// This file holds everything that differs between the two job kinds: what
// a submission records, how a run prepares and scores one chunk, and what
// the checkpoints merge into. The manager's one pipeline does the rest.

// ErrNoCorpus rejects a search submission naming an unmounted corpus.
var ErrNoCorpus = errors.New("jobs: unknown corpus")

// Request is one job submission: Pairs for an alignment job, or Search for
// a corpus-search job (Pairs is then ignored).
type Request struct {
	Pairs  []dna.Pair
	Search *Search
}

// Search describes a corpus-search job: the mounted corpus it runs
// against, the query, and the search parameters (same semantics as
// corpus.Searcher.Search; defaults are resolved at submit).
type Search struct {
	Corpus string
	Query  dna.Seq
	Params corpus.Params
}

// record builds the WAL submit record of a request, minus its identity.
// A search pins its resolved parameters and the corpus content
// fingerprint, so a resumed job re-derives exactly the submit-time
// candidate set — or fails typed if the corpus was rebuilt underneath it.
func (m *Manager) record(req Request) (jobstore.SubmitRecord, error) {
	s := req.Search
	if s == nil {
		if len(req.Pairs) == 0 {
			return jobstore.SubmitRecord{}, errors.New("jobs: empty batch")
		}
		data := make([]jobstore.PairData, len(req.Pairs))
		for i, p := range req.Pairs {
			data[i] = jobstore.PairData{X: p.X.String(), Y: p.Y.String()}
		}
		return jobstore.SubmitRecord{ChunkSize: m.cfg.ChunkSize, Pairs: data}, nil
	}
	if len(s.Query) == 0 {
		return jobstore.SubmitRecord{}, errors.New("jobs: empty query")
	}
	h, ok := m.corpora().Get(s.Corpus)
	if !ok {
		return jobstore.SubmitRecord{}, fmt.Errorf("%w: %q", ErrNoCorpus, s.Corpus)
	}
	p := s.Params.Resolved()
	return jobstore.SubmitRecord{Kind: jobstore.KindSearch, ChunkSize: m.cfg.SearchChunkSize,
		Search: &jobstore.SearchSpec{
			Corpus:      s.Corpus,
			Fingerprint: h.Corpus.Fingerprint(),
			Query:       s.Query.String(),
			TopK:        p.TopK,
			MinKmerHits: p.MinKmerHits,
			MaxEdits:    -1, // off, so an older binary replaying the record derives the same candidates
			SeqCount:    h.Corpus.Len(),
		}}, nil
}

// corpora returns the configured corpus registry, or an empty one so
// lookup sites need no nil checks.
func (m *Manager) corpora() *corpus.Registry {
	if m.cfg.Corpora == nil {
		return emptyCorpora
	}
	return m.cfg.Corpora
}

var emptyCorpora = corpus.NewRegistry()

// scoreFunc computes the checkpoint of one chunk from its [lo, hi) range:
// pair indices of an alignment job, corpus sequence IDs of a search job.
type scoreFunc func(ctx context.Context, lo, hi int) (jobstore.Checkpoint, error)

// prepare returns the scorer of j's chunks, or the reason the job cannot
// run. An alignment chunk runs through alignsvc.Align, inheriting its
// cache and its CPU-reference fallback. A search job first checks that its
// corpus is still the one it was submitted against, then prefilters once:
// the prefilter is deterministic in (corpus, query, params), all of which
// the WAL pins, so a resumed job sees the submit-time candidate set.
func (m *Manager) prepare(j *jobstore.Job) (scoreFunc, error) {
	if j.Kind != jobstore.KindSearch {
		return func(ctx context.Context, lo, hi int) (jobstore.Checkpoint, error) {
			pairs, err := parsePairs(j.Pairs[lo:hi])
			if err != nil {
				return jobstore.Checkpoint{}, err
			}
			res, err := m.cfg.Service.Align(ctx, pairs)
			if err != nil {
				return jobstore.Checkpoint{}, err
			}
			return jobstore.Checkpoint{Scores: res.Scores}, nil
		}, nil
	}
	spec := j.Search
	h, ok := m.corpora().Get(spec.Corpus)
	switch {
	case !ok:
		return nil, fmt.Errorf("corpus %q not mounted", spec.Corpus)
	case h.Corpus.Fingerprint() != spec.Fingerprint:
		return nil, fmt.Errorf("corpus %q fingerprint %s does not match submit-time %s (corpus rebuilt?)",
			spec.Corpus, h.Corpus.Fingerprint(), spec.Fingerprint)
	case h.Corpus.Len() != spec.SeqCount:
		return nil, fmt.Errorf("corpus %q has %d sequences, submit-time %d",
			spec.Corpus, h.Corpus.Len(), spec.SeqCount)
	case len(j.Chunks) > 0 && spec.MaxEdits >= 0 && spec.MinKmerHits >= 0 &&
		len(spec.Query) >= h.Corpus.K() && len(spec.Query) <= 64:
		// An older version narrowed these candidates with a bitap stage:
		// its checkpoints must not merge with chunks of the k-mer stage.
		return nil, fmt.Errorf("checkpoints were scored with the retired bitap edit-distance stage (max_edits %d); resubmit the search",
			spec.MaxEdits)
	}
	q, err := dna.Parse(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	cand := h.Corpus.Prefilter(q, corpus.Params{TopK: spec.TopK, MinKmerHits: spec.MinKmerHits})
	return func(ctx context.Context, lo, hi int) (jobstore.Checkpoint, error) {
		hits, _, err := h.Searcher.ScoreRange(ctx, q, cand.IDs, lo, hi, spec.TopK)
		if err != nil {
			return jobstore.Checkpoint{}, err
		}
		ck := jobstore.Checkpoint{Hits: make([]jobstore.HitData, len(hits))}
		for i, ht := range hits {
			ck.Hits[i] = jobstore.HitData(ht)
		}
		return ck, nil
	}, nil
}

// rankHits merges a search job's per-chunk top-K hits into its final
// top-K with corpus.RankHits: the union of chunk top-Ks contains the
// global top-K, so the merge equals an uninterrupted search.
func rankHits(data []jobstore.HitData, k int) []corpus.Hit {
	hits := make([]corpus.Hit, len(data))
	for i, h := range data {
		hits[i] = corpus.Hit(h)
	}
	return corpus.RankHits(hits, k)
}

// parsePairs converts stored ACGT strings back into dna.Pairs.
func parsePairs(data []jobstore.PairData) ([]dna.Pair, error) {
	out := make([]dna.Pair, len(data))
	for i, p := range data {
		x, err := dna.Parse(p.X)
		if err != nil {
			return nil, fmt.Errorf("pair %d pattern: %w", i, err)
		}
		y, err := dna.Parse(p.Y)
		if err != nil {
			return nil, fmt.Errorf("pair %d text: %w", i, err)
		}
		out[i] = dna.Pair{X: x, Y: y}
	}
	return out, nil
}
