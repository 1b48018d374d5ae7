package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/pipeline"
)

// SearchRun is one k-mer length of the corpus-search selectivity sweep:
// the same synthetic corpus indexed at this k, queried with the same
// query set, timed on the host clock. PassRate is the fraction of the
// corpus the k-mer prefilter passed to SW scoring — what the index buys
// over scanning everything.
type SearchRun struct {
	K       int `json:"k"`
	Queries int `json:"queries"`

	PassRate           float64 `json:"pass_rate"`
	CandidatesPerQuery float64 `json:"candidates_per_query"`

	// ScoredCells are the DP cells the prefiltered searches actually
	// paid for; BruteCells is what scanning the whole corpus would have
	// cost for the same queries.
	ScoredCells int64 `json:"scored_cells"`
	BruteCells  int64 `json:"brute_cells"`

	WallNS int64 `json:"wall_ns"`
	// WallGCUPS is ScoredCells over WallNS — the throughput of the
	// prefiltered query path on this host.
	WallGCUPS float64 `json:"wall_gcups"`

	// ExactTopK records that every query's prefiltered top-K came back
	// identical to a scan-all (prefilter disabled) search of the same
	// index — checked outside the timed region. A selective index that
	// drops true hits is not a result.
	ExactTopK bool `json:"exact_vs_brute"`
}

// SearchSection is the optional corpus-search sweep (swabench -search):
// one deterministic synthetic corpus with planted homologs, indexed once
// per k, with per-k selectivity, throughput and exactness-vs-brute-force.
// All numbers live on the host (wall) clock.
type SearchSection struct {
	Seqs     int         `json:"seqs"`
	SeqLen   int         `json:"seq_len"`
	QueryLen int         `json:"query_len"`
	TopK     int         `json:"top_k"`
	Backend  string      `json:"backend"`
	Runs     []SearchRun `json:"runs"`
}

// Shape of the synthetic search corpus. Planting a homolog of the base
// query every plantEvery sequences guarantees far more true hits than
// searchTopK, so the exactness check exercises real ranking pressure.
const (
	searchSeqLen   = 128
	searchQueryLen = 64
	searchTopK     = 10
	plantEvery     = 100
	searchQueries  = 6
)

// CollectSearch builds a deterministic synthetic corpus of seqs
// sequences once per k in ks (on-disk index in a temp dir, removed
// afterwards), runs the same query set through each index on the named
// scoring backend, and attaches the selectivity section to f. Every
// query's prefiltered top-K is verified identical to a scan-all search
// outside the timed region.
func (f *File) CollectSearch(ctx context.Context, seqs int, ks []int, backendName string) error {
	if seqs < plantEvery*2 {
		return fmt.Errorf("bench: search corpus of %d seqs, want at least %d", seqs, plantEvery*2)
	}
	if len(ks) == 0 {
		ks = []int{4, 6, 8}
	}
	be, err := alignsvc.NewBackend(backendName, pipeline.Config{}, 0)
	if err != nil {
		return fmt.Errorf("bench: search: %w", err)
	}

	// One deterministic corpus and query set, reused across every k so
	// the runs differ only in the index.
	rng := rand.New(rand.NewPCG(41, 9))
	base := dna.RandSeq(rng, searchQueryLen)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	recs := make([]dna.Record, seqs)
	for i := range recs {
		y := dna.RandSeq(rng, searchSeqLen)
		if i%plantEvery == 0 {
			cp := mut.Mutate(rng, base)
			if len(cp) > searchSeqLen {
				cp = cp[:searchSeqLen]
			}
			copy(y[rng.IntN(searchSeqLen-len(cp)+1):], cp)
		}
		recs[i] = dna.Record{Name: fmt.Sprintf("bench-%06d", i), Seq: y}
	}
	queries := make([]dna.Seq, searchQueries)
	for i := range queries {
		q := mut.Mutate(rng, base)
		if len(q) > searchQueryLen {
			q = q[:searchQueryLen]
		}
		queries[i] = q
	}

	root, err := os.MkdirTemp("", "swabench-corpus-*")
	if err != nil {
		return fmt.Errorf("bench: search: %w", err)
	}
	defer os.RemoveAll(root)

	sec := &SearchSection{
		Seqs: seqs, SeqLen: searchSeqLen, QueryLen: searchQueryLen,
		TopK: searchTopK, Backend: be.Name(),
	}
	for _, k := range ks {
		c, err := corpus.Build(filepath.Join(root, fmt.Sprintf("k%d", k)), recs, corpus.IndexOptions{K: k})
		if err != nil {
			return fmt.Errorf("bench: search: index k=%d: %w", k, err)
		}
		s := corpus.NewSearcher(c, be, nil)

		run := SearchRun{K: k, Queries: len(queries), ExactTopK: true}
		var candidates int64
		results := make([]*corpus.Result, len(queries))
		begin := time.Now()
		for i, q := range queries {
			res, err := s.Search(ctx, q, corpus.Params{TopK: searchTopK})
			if err != nil {
				return fmt.Errorf("bench: search: k=%d query %d: %w", k, i, err)
			}
			results[i] = res
		}
		wall := time.Since(begin)

		// Exactness and the funnel accounting happen outside the timed
		// region: the scan-all baseline costs ~seqs/candidates times the
		// prefiltered search and must not pollute its wall clock.
		for i, q := range queries {
			res := results[i]
			candidates += int64(res.Stats.Candidates)
			run.ScoredCells += res.Stats.Cells
			run.BruteCells += res.Stats.BruteCells
			brute, err := s.Search(ctx, q, corpus.Params{TopK: searchTopK, MinKmerHits: -1})
			if err != nil {
				return fmt.Errorf("bench: search: k=%d brute query %d: %w", k, i, err)
			}
			if !reflect.DeepEqual(res.Hits, brute.Hits) {
				run.ExactTopK = false
			}
		}
		nq := float64(len(queries))
		run.PassRate = float64(candidates) / nq / float64(seqs)
		run.CandidatesPerQuery = float64(candidates) / nq
		run.WallNS = wall.Nanoseconds()
		if wall < time.Nanosecond {
			wall = time.Nanosecond
		}
		run.WallGCUPS = float64(run.ScoredCells) / 1e9 / wall.Seconds()
		sec.Runs = append(sec.Runs, run)
	}
	f.Search = sec
	return nil
}

// validate checks the search section's invariants for Validate.
func (s *SearchSection) validate() error {
	if s.Seqs <= 0 || s.QueryLen <= 0 || s.TopK <= 0 || s.Backend == "" {
		return fmt.Errorf("bench: search section shape malformed: %+v", s)
	}
	if len(s.Runs) == 0 {
		return fmt.Errorf("bench: search section has no runs")
	}
	seen := make(map[int]bool)
	for i, r := range s.Runs {
		if r.K <= 0 || seen[r.K] {
			return fmt.Errorf("bench: search run %d has k=%d, want positive and distinct", i, r.K)
		}
		seen[r.K] = true
		if r.Queries <= 0 {
			return fmt.Errorf("bench: search run k=%d measured no queries", r.K)
		}
		if r.PassRate < 0 || r.PassRate > 1 {
			return fmt.Errorf("bench: search run k=%d pass rate %v out of [0, 1]", r.K, r.PassRate)
		}
		if r.ScoredCells <= 0 || r.BruteCells < r.ScoredCells {
			return fmt.Errorf("bench: search run k=%d cell accounting inverted (scored %d, brute %d)",
				r.K, r.ScoredCells, r.BruteCells)
		}
		if r.WallNS <= 0 || !finitePositive(r.WallGCUPS) {
			return fmt.Errorf("bench: search run k=%d has wall %dns, WallGCUPS %v, want finite > 0",
				r.K, r.WallNS, r.WallGCUPS)
		}
		if !r.ExactTopK {
			return fmt.Errorf("bench: search run k=%d diverged from the scan-all baseline — the prefilter dropped true hits",
				r.K)
		}
	}
	return nil
}

// SearchRunAt returns the run with the given k, or nil.
func (s *SearchSection) SearchRunAt(k int) *SearchRun {
	if s == nil {
		return nil
	}
	for i := range s.Runs {
		if s.Runs[i].K == k {
			return &s.Runs[i]
		}
	}
	return nil
}
