package repro_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/bpbc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Example_bulkScores scores a small batch on the CPU BPBC engine: every pair
// occupies one bit-lane of the 32-lane group, so all three alignments are
// computed by the same sequence of word operations.
func Example_bulkScores() {
	pairs := []dna.Pair{
		{X: dna.MustParse("ACGT"), Y: dna.MustParse("ACGTACGT")},
		{X: dna.MustParse("ACGT"), Y: dna.MustParse("TGCATGCA")},
		{X: dna.MustParse("GATT"), Y: dna.MustParse("GCATGCAT")},
	}
	res, err := bpbc.BulkScores[uint32](pairs, bpbc.Options{})
	if err != nil {
		panic(err)
	}
	for i, s := range res.Scores {
		fmt.Printf("%s / %s -> %d\n", pairs[i].X, pairs[i].Y, s)
	}
	// Output:
	// ACGT / ACGTACGT -> 8
	// ACGT / TGCATGCA -> 3
	// GATT / GCATGCAT -> 5
}

// Example_alignService runs the same batch twice through the cached
// alignment service. The first batch computes on the backend and
// populates the content-addressed cache; the identical repeat is served
// entirely from memory.
func Example_alignService() {
	svc := alignsvc.New(alignsvc.Config{
		Metrics: obs.NewRegistry(),
		Cache: aligncache.New(aligncache.Config{
			MaxBytes: 1 << 20,
			Metrics:  obs.NewRegistry(),
		}),
	})
	defer svc.Close()

	pairs := []dna.Pair{
		{X: dna.MustParse("ACGTACGT"), Y: dna.MustParse("ACGTTCGT")},
		{X: dna.MustParse("TTTTTTTT"), Y: dna.MustParse("TTAATTAA")},
	}
	for run := 1; run <= 2; run++ {
		res, err := svc.Align(context.Background(), pairs)
		if err != nil {
			panic(err)
		}
		fmt.Printf("run %d: scores=%v cache hits=%d\n",
			run, res.Scores, res.Report.CacheHits)
	}
	// Output:
	// run 1: scores=[13 6] cache hits=0
	// run 2: scores=[13 6] cache hits=2
}

// Example_corpusSearch builds a small on-disk corpus index with two
// planted copies of a query and runs a ranked top-K search against it.
// The k-mer prefilter narrows the corpus to a handful of candidates
// before any Smith-Waterman cell is computed; the stats funnel shows how
// much scoring the index avoided. The prefilter is a heuristic: the
// third hit is the best of the candidates, while a scan of all 50
// sequences ranks a different one third.
func Example_corpusSearch() {
	dir, err := os.MkdirTemp("", "corpus-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewPCG(7, 3))
	query := dna.RandSeq(rng, 48)
	recs := make([]dna.Record, 50)
	for i := range recs {
		seq := dna.RandSeq(rng, 64)
		if i == 12 || i == 31 { // plant two exact copies of the query
			copy(seq[8:], query)
		}
		recs[i] = dna.Record{Name: fmt.Sprintf("seq-%02d", i), Seq: seq}
	}
	c, err := corpus.Build(dir, recs, corpus.IndexOptions{})
	if err != nil {
		panic(err)
	}

	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 0)
	if err != nil {
		panic(err)
	}
	s := corpus.NewSearcher(c, be, nil)
	res, err := s.Search(context.Background(), query, corpus.Params{TopK: 3})
	if err != nil {
		panic(err)
	}
	for i, h := range res.Hits {
		fmt.Printf("%d. %s score=%d\n", i+1, h.Name, h.Score)
	}
	fmt.Printf("scored %d of %d sequences\n", res.Stats.Candidates, res.Stats.Seqs)
	// Output:
	// 1. seq-12 score=96
	// 2. seq-31 score=96
	// 3. seq-26 score=41
	// scored 5 of 50 sequences
}
