package corpus

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Params tunes one search. The zero value asks for every default.
type Params struct {
	// TopK is how many ranked hits to return (default 10).
	TopK int
	// MinKmerHits is the prefilter threshold: a sequence must share at
	// least this many of the query's distinct k-mers to become a
	// candidate (default 4, clamped to the query's distinct k-mer
	// count). Negative disables the prefilter entirely — every sequence
	// is scored, the brute-force baseline.
	MinKmerHits int
	// MaxEdits is ignored. It bounded a retired second filter stage
	// (bit-parallel edit distance) that cost more per candidate than the
	// exact scoring it skipped; the field stays so callers that still set
	// it compile, and a max_edits in a request body is accepted.
	MaxEdits int
}

// Resolved fills the defaults for a query. Callers that persist search
// parameters (the durable job WAL) store the resolved form, so a resumed
// job re-derives the exact same candidate set.
func (p Params) Resolved() Params {
	if p.TopK <= 0 {
		p.TopK = 10
	}
	if p.MinKmerHits == 0 {
		p.MinKmerHits = 4
	}
	return p
}

// Candidates is the prefilter's output: the ascending IDs that survive.
type Candidates struct {
	// IDs are the surviving sequence IDs, ascending.
	IDs []int32
	// Prefiltered is false when the prefilter was bypassed (disabled, or
	// the query is shorter than the index k) and IDs is every sequence.
	Prefiltered bool
}

// Prefilter returns the sequences sharing at least MinKmerHits of the
// query's distinct k-mers, found by one posting-list walk per k-mer. It
// is pure: the same corpus, query and params always produce the same
// IDs, which is what lets a resumed search job skip checkpointed chunks.
func (c *Corpus) Prefilter(q dna.Seq, p Params) Candidates {
	p = p.Resolved()
	if p.MinKmerHits < 0 || len(q) < c.k {
		ids := make([]int32, len(c.seqs))
		for i := range ids {
			ids[i] = int32(i)
		}
		return Candidates{IDs: ids}
	}

	counts := make([]int32, len(c.seqs))
	distinct := 0
	forEachDistinctKmer(c.k, q, func(code int) {
		distinct++
		for _, id := range c.postings[code] {
			counts[id]++
		}
	})
	need := int32(min(p.MinKmerHits, distinct))
	var ids []int32
	for id, n := range counts {
		if n >= need {
			ids = append(ids, int32(id))
		}
	}
	return Candidates{IDs: ids, Prefiltered: true}
}

// forEachDistinctKmer calls fn once per distinct k-mer code of s.
func forEachDistinctKmer(k int, s dna.Seq, fn func(code int)) {
	seen := make(map[int]struct{}, len(s))
	forEachKmer(k, s, func(code int) {
		if _, dup := seen[code]; !dup {
			seen[code] = struct{}{}
			fn(code)
		}
	})
}

// Hit is one ranked search result.
type Hit struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Score int    `json:"score"`
}

// better is the ranking order: score descending, then ID ascending —
// a total order, so top-K sets are deterministic and chunk merges are
// byte-identical to uninterrupted runs.
func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// topK is a bounded min-heap keeping the k best hits seen: the root is
// the worst retained hit, evicted when a better one arrives. Push is
// O(log k) with no allocation beyond the k-slot backing array.
type topK struct {
	k    int
	heap []Hit
}

func (t *topK) push(h Hit) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, h)
		// Sift up while the parent is better than the child: the root
		// must be the worst retained hit.
		for i := len(t.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if better(t.heap[parent], t.heap[i]) {
				t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
				i = parent
				continue
			}
			break
		}
		return
	}
	if !better(h, t.heap[0]) {
		return
	}
	t.heap[0] = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.heap) && better(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r < len(t.heap) && better(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// newTopK returns a heap keeping the k best of at most pushes hits. Its
// backing array holds min(k, pushes) hits, so a client-chosen k sizes
// nothing beyond the candidates it ranks.
func newTopK(k, pushes int) *topK {
	return &topK{k: k, heap: make([]Hit, 0, min(k, pushes))}
}

// ranked drains the heap into best-first order.
func (t *topK) ranked() []Hit {
	out := append([]Hit(nil), t.heap...)
	sort.Slice(out, func(a, b int) bool { return better(out[a], out[b]) })
	return out
}

// RankHits sorts hits best-first (score descending, ID ascending) and
// truncates to k — the merge step for per-chunk top-K checkpoints: the
// union of chunk top-Ks provably contains the global top-K, so sorting
// the union and cutting at k reproduces an uninterrupted search exactly.
func RankHits(hits []Hit, k int) []Hit {
	out := append([]Hit(nil), hits...)
	sort.Slice(out, func(a, b int) bool { return better(out[a], out[b]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Stats describes where one search's funnel narrowed and what the
// scored candidates looked like.
type Stats struct {
	Seqs           int           `json:"seqs"`              // corpus size
	Prefiltered    bool          `json:"prefiltered"`       // false when the prefilter was bypassed
	KmerCandidates int           `json:"kmer_candidates"`   // equals Candidates: the k-mer stage is the only filter
	Candidates     int           `json:"candidates"`        // sequences that reached SW scoring
	PassRate       float64       `json:"pass_rate"`         // Candidates / Seqs
	Cells          int64         `json:"cells"`             // DP cells actually scored
	BruteCells     int64         `json:"brute_cells"`       // cells a full scan would have cost
	Scores         stats.Summary `json:"-"`                 // summary over the scored candidates
	ScoreMin       int           `json:"score_min"`         // flattened Summary for the wire
	ScoreMax       int           `json:"score_max"`         //
	ScoreMean      float64       `json:"score_mean"`        //
	ScoreStd       float64       `json:"score_std"`         //
	Backend        string        `json:"backend,omitempty"` // scoring engine name
}

// Searcher binds a corpus to a scoring backend (and optional metrics
// registry) and answers ranked top-K queries. Safe for concurrent use.
type Searcher struct {
	c   *Corpus
	be  alignsvc.Backend
	reg *obs.Registry
}

// NewSearcher builds a searcher. reg may be nil; when set it receives
// the corpus_prefilter_pass_ratio and corpus_candidates_per_query
// histograms plus the search/candidate/cell counters.
func NewSearcher(c *Corpus, be alignsvc.Backend, reg *obs.Registry) *Searcher {
	if reg != nil {
		reg.Help("corpus_searches_total", "Corpus searches served.")
		reg.Help("corpus_prefilter_pass_ratio", "Fraction of the corpus surviving the prefilter, per query.")
		reg.Help("corpus_candidates_per_query", "Sequences reaching SW scoring, per query.")
		reg.Help("corpus_scored_cells_total", "DP cells scored by corpus searches.")
		reg.Help("corpus_prefilter_saved_cells_total", "DP cells the prefilter avoided versus a full scan.")
	}
	return &Searcher{c: c, be: be, reg: reg}
}

// Backend returns the scoring engine's name.
func (s *Searcher) Backend() string { return s.be.Name() }

// scoreBatch caps how many candidate pairs go to the backend per call,
// bounding peak memory on huge candidate sets.
const scoreBatch = 1024

// candidateBuckets spans candidates-per-query from a handful to a
// million-sequence full scan.
var candidateBuckets = []float64{1, 5, 25, 100, 500, 2500, 1e4, 5e4, 2.5e5, 1e6}

// score runs SW over the candidates with IDs in [lo, hi) (cand is
// ascending), feeding a bounded top-k heap. observe, when non-nil, sees
// every candidate's score (the stats path).
func (s *Searcher) score(ctx context.Context, q dna.Seq, cand []int32, lo, hi, k int, observe func(int)) ([]Hit, int64, error) {
	from := sort.Search(len(cand), func(i int) bool { return int(cand[i]) >= lo })
	to := sort.Search(len(cand), func(i int) bool { return int(cand[i]) >= hi })
	heap := newTopK(k, to-from)
	var cells int64
	// One pair buffer per call, reused across backend calls: the backend
	// does not keep it.
	buf := make([]dna.Pair, min(scoreBatch, to-from))
	for from < to {
		n := min(scoreBatch, to-from)
		batch := cand[from : from+n]
		pairs := buf[:n]
		for i, id := range batch {
			pairs[i] = dna.Pair{X: q, Y: s.c.seqs[id]}
			cells += int64(len(q)) * int64(len(s.c.seqs[id]))
		}
		scores, _, err := s.be.AlignBatch(ctx, pairs, alignsvc.BatchOpts{})
		if err != nil {
			return nil, cells, fmt.Errorf("corpus: score candidates [%d,%d): %w", batch[0], batch[n-1]+1, err)
		}
		for i, sc := range scores {
			id := int(batch[i])
			heap.push(Hit{ID: id, Name: s.c.names[id], Score: sc})
			if observe != nil {
				observe(sc)
			}
		}
		from += n
	}
	return heap.ranked(), cells, nil
}

// ScoreRange scores the candidates whose IDs fall in [lo, hi) and
// returns the top k hits of that range plus the DP cells spent — the
// per-chunk unit of a search job, checkpointed to the WAL.
func (s *Searcher) ScoreRange(ctx context.Context, q dna.Seq, cand []int32, lo, hi, k int) ([]Hit, int64, error) {
	return s.score(ctx, q, cand, lo, hi, k, nil)
}

// Result is one completed search: the ranked hits and the funnel stats.
type Result struct {
	Hits  []Hit `json:"hits"`
	Stats Stats `json:"stats"`
}

// Search runs the full query path: k-mer prefilter, exact SW over the
// candidates, ranked top-K with score statistics.
func (s *Searcher) Search(ctx context.Context, q dna.Seq, p Params) (*Result, error) {
	return s.SearchCandidates(ctx, q, p, s.c.Prefilter(q, p))
}

// SearchCandidates is Search over candidates the caller already holds,
// for a caller that ran Prefilter(q, p) itself (the /search handler
// charges the tenant for them first). It scores exactly cand.IDs.
func (s *Searcher) SearchCandidates(ctx context.Context, q dna.Seq, p Params, cand Candidates) (*Result, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("corpus: empty query")
	}
	p = p.Resolved()
	scored := make([]int, 0, len(cand.IDs))
	hits, cells, err := s.score(ctx, q, cand.IDs, 0, s.c.Len(), p.TopK,
		func(sc int) { scored = append(scored, sc) })
	if err != nil {
		return nil, err
	}
	if hits == nil {
		hits = []Hit{} // JSON renders hits as a list, never null
	}
	res := &Result{Hits: hits, Stats: s.buildStats(q, cand, cells, scored)}
	return res, nil
}

// buildStats assembles (and, when a registry is wired, records) the
// funnel statistics of one search.
func (s *Searcher) buildStats(q dna.Seq, cand Candidates, cells int64, scored []int) Stats {
	sum := stats.Summarize(scored)
	brute := int64(len(q)) * s.c.totalBases
	st := Stats{
		Seqs:           s.c.Len(),
		Prefiltered:    cand.Prefiltered,
		KmerCandidates: len(cand.IDs),
		Candidates:     len(cand.IDs),
		Cells:          cells,
		BruteCells:     brute,
		Scores:         sum,
		ScoreMin:       sum.Min,
		ScoreMax:       sum.Max,
		ScoreMean:      sum.Mean,
		ScoreStd:       sum.Std,
		Backend:        s.be.Name(),
	}
	if st.Seqs > 0 {
		st.PassRate = float64(st.Candidates) / float64(st.Seqs)
	}
	if s.reg != nil {
		s.reg.Counter("corpus_searches_total").Inc()
		s.reg.Histogram("corpus_prefilter_pass_ratio", obs.RatioBuckets).Observe(st.PassRate)
		s.reg.Histogram("corpus_candidates_per_query", candidateBuckets).Observe(float64(st.Candidates))
		s.reg.Counter("corpus_scored_cells_total").Add(cells)
		if saved := brute - cells; saved > 0 {
			s.reg.Counter("corpus_prefilter_saved_cells_total").Add(saved)
		}
	}
	return st
}
