// Command dbfilter runs the paper's motivating use case end to end:
// screen a database of sequences against a query and report the best
// local-alignment hits.
//
// The modern path works on a persistent corpus index (internal/corpus,
// the same format swaserver mounts with -corpus):
//
//	dbfilter -build -index ./idx [-db db.fasta | -synthetic 100000]   build the index
//	dbfilter -index ./idx -query ACGT... [-topk 10] [-json]           ranked top-K search
//
// A search runs the one-stage query path: a k-mer posting-list prefilter
// (-minhits) narrows the corpus, then the exact backend named by
// -search-backend (default striped) scores the candidates and a bounded
// heap keeps the top -topk. -minhits -1 disables the prefilter and scores
// every sequence — the oracle to compare against, since the prefilter is
// a heuristic that can miss a hit a full scan ranks. When -index names a
// directory without an index and a source (-db or -synthetic) is given,
// the index is built first, then searched.
//
// The legacy path (no -index) keeps the original BPBC bulk screening:
// score every entry with the bitwise-parallel engine, keep entries whose
// maximum score exceeds a threshold τ, and print their detailed CPU
// alignments.
//
//	dbfilter -query ACGT... [-db db.fasta | -synthetic 1024] [-tau T] [-lanes 32]
//
// With -json either path prints one JSON document instead of the text
// rendering.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/bpbc"
	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/pipeline"
	"repro/internal/swa"
)

// screenJSON is the legacy-path -json wire form: stable snake_case names,
// duration in milliseconds, hits always a list (possibly empty, never null).
type screenJSON struct {
	Entries   int       `json:"entries"`
	M         int       `json:"m"`
	N         int       `json:"n"`
	Tau       int       `json:"tau"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Hits      []hitJSON `json:"hits"`
}

type hitJSON struct {
	Name       string  `json:"name"`
	Index      int     `json:"index"`
	Score      int     `json:"score"`
	Strand     string  `json:"strand"`
	AlignScore int     `json:"align_score"`
	AlignedX   string  `json:"aligned_x"`
	AlignedY   string  `json:"aligned_y"`
	Identity   float64 `json:"identity"`
}

// searchJSON is the index-path -json wire form: the ranked hits plus the
// prefilter funnel, mirroring the server's /search response.
type searchJSON struct {
	Index     string       `json:"index"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Hits      []corpus.Hit `json:"hits"`
	Stats     corpus.Stats `json:"stats"`
}

// buildJSON is the -build -json summary.
type buildJSON struct {
	Index       string  `json:"index"`
	Seqs        int     `json:"seqs"`
	TotalBases  int64   `json:"total_bases"`
	K           int     `json:"k"`
	Fingerprint string  `json:"fingerprint"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

func main() {
	query := flag.String("query", "", "query pattern (ACGT letters)")
	dbPath := flag.String("db", "", "FASTA file of database sequences")
	synthetic := flag.Int("synthetic", 0, "generate N synthetic database entries instead of -db")
	synLen := flag.Int("synlen", 1024, "synthetic entry length")
	plant := flag.Float64("plant", 0.05, "fraction of synthetic entries carrying a mutated copy of the query")
	seed := flag.Uint64("seed", 42, "synthetic generator seed")
	asJSON := flag.Bool("json", false, "print the result as JSON")

	index := flag.String("index", "", "corpus index directory (enables the indexed search path)")
	build := flag.Bool("build", false, "build the index from -db/-synthetic and exit (requires -index)")
	kmer := flag.Int("k", 0, "index k-mer length when building (0 = default)")
	topK := flag.Int("topk", 10, "ranked hits to return from an indexed search")
	minHits := flag.Int("minhits", 0, "distinct query k-mers a sequence must share to pass the prefilter (0 = default, -1 = scan all)")
	searchBackend := flag.String("search-backend", alignsvc.BackendStriped,
		"exact scoring backend for the indexed search")

	tau := flag.Int("tau", 0, "legacy screening: score threshold τ (default: 3/4 of the maximum score)")
	lanes := flag.Int("lanes", 32, "legacy screening: BPBC lane width, 32 or 64")
	both := flag.Bool("both", false, "legacy screening: also screen the reverse complement of the query")
	workers := flag.Int("workers", 1, "legacy screening: lane groups scored concurrently")
	flag.Parse()

	if flag.NArg() != 0 {
		flag.PrintDefaults()
		cli.Exitf(2, "dbfilter: unexpected arguments %v", flag.Args())
	}
	if *lanes != 32 && *lanes != 64 {
		flag.PrintDefaults()
		cli.Exitf(2, "dbfilter: -lanes must be 32 or 64, got %d", *lanes)
	}
	if *dbPath != "" && *synthetic > 0 {
		flag.PrintDefaults()
		cli.Exitf(2, "dbfilter: -db and -synthetic are mutually exclusive")
	}
	if *build && *index == "" {
		cli.Exitf(2, "dbfilter: -build requires -index")
	}

	// Ctrl-C / SIGTERM aborts between passes.
	ctx, stop := cli.SignalContext()
	defer stop()

	var q dna.Seq
	if *query != "" {
		var err error
		q, err = dna.Parse(*query)
		if err != nil {
			cli.Die(fmt.Errorf("query: %w", err))
		}
	}

	if *index != "" {
		runIndexed(ctx, q, *index, *build, *kmer, *topK, *minHits, *searchBackend,
			*dbPath, *synthetic, *synLen, *plant, *seed, *asJSON)
		return
	}

	// Legacy BPBC screening path below.
	if len(q) == 0 {
		flag.PrintDefaults()
		cli.Exitf(2, "dbfilter: -query is required")
	}
	names, texts := loadDatabase(q, *dbPath, *synthetic, *synLen, *plant, *seed)
	if len(texts) == 0 {
		cli.Exitf(1, "dbfilter: empty database")
	}

	pairs := make([]dna.Pair, len(texts))
	for i, t := range texts {
		pairs[i] = dna.Pair{X: q, Y: t}
	}
	threshold := *tau
	if threshold == 0 {
		threshold = swa.PaperScoring.MaxScore(len(q)) * 3 / 4
	}

	screen := func(pairs []dna.Pair) ([]bpbc.ScreenHit, error) {
		opt := bpbc.Options{Workers: *workers}
		switch *lanes {
		case 32:
			return bpbc.ScreenAndAlign[uint32](pairs, threshold, opt)
		case 64:
			return bpbc.ScreenAndAlign[uint64](pairs, threshold, opt)
		}
		return nil, fmt.Errorf("dbfilter: -lanes must be 32 or 64")
	}

	start := time.Now()
	hits, err := screen(pairs)
	cli.Check(err)
	cli.Check(ctx.Err())
	strand := make([]byte, len(hits))
	for i := range hits {
		strand[i] = '+'
	}
	if *both {
		rcPairs := make([]dna.Pair, len(texts))
		rc := q.ReverseComplement()
		for i, t := range texts {
			rcPairs[i] = dna.Pair{X: rc, Y: t}
		}
		rcHits, err := screen(rcPairs)
		cli.Check(err)
		cli.Check(ctx.Err())
		for _, h := range rcHits {
			hits = append(hits, h)
			strand = append(strand, '-')
		}
	}
	elapsed := time.Since(start)

	if *asJSON {
		out := screenJSON{
			Entries: len(pairs), M: len(q), N: len(texts[0]),
			Tau:       threshold,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			Hits:      []hitJSON{},
		}
		for i, h := range hits {
			out.Hits = append(out.Hits, hitJSON{
				Name: names[h.Index], Index: h.Index,
				Score: h.Score, Strand: string(strand[i]),
				AlignScore: h.Alignment.Score,
				AlignedX:   h.Alignment.AlignedX,
				AlignedY:   h.Alignment.AlignedY,
				Identity:   h.Alignment.Identity(),
			})
		}
		cli.Check(cli.PrintJSON(out))
		return
	}

	fmt.Printf("screened %d entries (m=%d, n=%d) at τ=%d in %v: %d hit(s)\n\n",
		len(pairs), len(q), len(texts[0]), threshold, elapsed.Round(time.Millisecond), len(hits))
	for i, h := range hits {
		fmt.Printf("--- %s (score %d, strand %c) ---\n%s\n\n",
			names[h.Index], h.Score, strand[i], h.Alignment)
	}
}

// loadDatabase reads the FASTA file or generates the synthetic database
// (planting mutated copies of q when q is non-empty).
func loadDatabase(q dna.Seq, dbPath string, synthetic, synLen int, plant float64, seed uint64) ([]string, []dna.Seq) {
	var names []string
	var texts []dna.Seq
	switch {
	case dbPath != "":
		f, err := os.Open(dbPath)
		cli.Check(err)
		recs, err := dna.ReadFASTA(f)
		f.Close()
		cli.Check(err)
		for _, r := range recs {
			names = append(names, r.Name)
			texts = append(texts, r.Seq)
		}
	case synthetic > 0:
		rng := rand.New(rand.NewPCG(seed, 0))
		mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
		for i := 0; i < synthetic; i++ {
			t := dna.RandSeq(rng, synLen)
			if len(q) > 0 && rng.Float64() < plant {
				c := mut.Mutate(rng, q)
				if len(c) > len(t) {
					c = c[:len(t)]
				}
				copy(t[rng.IntN(len(t)-len(c)+1):], c)
			}
			names = append(names, fmt.Sprintf("synthetic-%04d", i))
			texts = append(texts, t)
		}
	default:
		cli.Exitf(2, "dbfilter: need -db or -synthetic")
	}
	return names, texts
}

// runIndexed is the corpus-index path: build and/or open the index, then
// (unless -build) run a ranked top-K search and print the hits.
func runIndexed(ctx context.Context, q dna.Seq, dir string, buildOnly bool, k, topK, minHits int,
	backendName, dbPath string, synthetic, synLen int, plant float64, seed uint64, asJSON bool) {
	c, err := corpus.Open(dir)
	switch {
	case err == nil:
		if buildOnly {
			cli.Exitf(2, "dbfilter: -build: %s already holds an index (fingerprint %s)", dir, c.Fingerprint())
		}
	case errors.Is(err, os.ErrNotExist):
		// Build-or-open: no index yet, so a source must be supplied.
		if dbPath == "" && synthetic == 0 {
			cli.Exitf(2, "dbfilter: %s holds no index and no -db/-synthetic source was given", dir)
		}
		names, texts := loadDatabase(q, dbPath, synthetic, synLen, plant, seed)
		recs := make([]dna.Record, len(texts))
		for i := range texts {
			recs[i] = dna.Record{Name: names[i], Seq: texts[i]}
		}
		start := time.Now()
		c, err = corpus.Build(dir, recs, corpus.IndexOptions{K: k})
		cli.Check(err)
		elapsed := time.Since(start)
		if buildOnly {
			if asJSON {
				cli.Check(cli.PrintJSON(buildJSON{
					Index: dir, Seqs: c.Len(), TotalBases: c.TotalBases(),
					K: c.K(), Fingerprint: c.Fingerprint(),
					ElapsedMS: float64(elapsed) / float64(time.Millisecond),
				}))
			} else {
				fmt.Printf("built index %s: %d sequence(s), %d base(s), k=%d, fingerprint %s in %v\n",
					dir, c.Len(), c.TotalBases(), c.K(), c.Fingerprint(), elapsed.Round(time.Millisecond))
			}
			return
		}
	default:
		cli.Die(fmt.Errorf("dbfilter: open index: %w", err))
	}

	if len(q) == 0 {
		cli.Exitf(2, "dbfilter: -query is required for an indexed search")
	}
	be, err := alignsvc.NewBackend(backendName, pipeline.Config{}, 0)
	if err != nil {
		cli.Die(fmt.Errorf("dbfilter: -search-backend: %w", err))
	}
	s := corpus.NewSearcher(c, be, nil)
	p := corpus.Params{TopK: topK, MinKmerHits: minHits}
	start := time.Now()
	res, err := s.Search(ctx, q, p)
	cli.Check(err)
	elapsed := time.Since(start)

	if asJSON {
		cli.Check(cli.PrintJSON(searchJSON{
			Index:     dir,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			Hits:      res.Hits,
			Stats:     res.Stats,
		}))
		return
	}
	st := res.Stats
	fmt.Printf("searched %d sequence(s) in %v: %d candidate(s) after prefilter (%.1f%% pass), %d cell(s) scored\n\n",
		st.Seqs, elapsed.Round(time.Millisecond), st.Candidates, 100*st.PassRate, st.Cells)
	for i, h := range res.Hits {
		fmt.Printf("%2d. %-24s id=%-8d score=%d\n", i+1, h.Name, h.ID, h.Score)
	}
	if len(res.Hits) == 0 {
		fmt.Println("no hits")
	}
}
