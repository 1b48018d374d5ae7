// Command swabench regenerates every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	swabench [-preset quick|paper|unit] [-table N] [-figure N]
//	swabench -preset quick -bench-out BENCH_pipeline.json
//	swabench -check-bench BENCH_pipeline.json
//
// With no selection flags it prints everything. Tables I-III and the lemma
// checks are analytic and instant; Table IV measures the CPU engines on the
// chosen preset (the "paper" preset runs the full 32K-pair workload and
// takes hours on the CPU side, exactly as the paper's own CPU columns did)
// and extrapolates the GPU simulator's exact kernel statistics to the
// paper's scale.
//
// -bench-out runs only the bitwise pipeline over the preset's n-sweep and
// writes a machine-readable JSON document (schema repro/bench-pipeline/v1:
// workload shape, per-stage simulated ns, wall ns, GCUPS, host info) instead
// of the human-readable tables. -backends additionally serves the same sweep
// through the named execution backends (striped, bitwise-sim, wordwise-sim,
// cpu-ref) on the wall clock, with every score re-checked against the scalar
// reference, and records the striped-vs-bitwise-sim speedup. -search
// additionally sweeps the corpus-search prefilter over k-mer lengths 4, 6
// and 8 on a deterministic synthetic corpus, recording per-k selectivity
// and verifying every prefiltered top-K against a scan-all baseline.
// -check-bench validates such a file and exits nonzero if it is malformed —
// CI's bench-smoke job uses the two together, with -require-backends,
// -min-striped-speedup and -require-search gating the wall-clock win and
// the prefilter's selectivity.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tables"
	"repro/internal/workload"
)

func main() {
	preset := flag.String("preset", "quick", "workload preset: quick, paper or unit")
	table := flag.Int("table", 0, "print only table N (1-5); 0 = all")
	figure := flag.Int("figure", 0, "print only figure N (1-2); 0 = all selected by -table")
	ablations := flag.Bool("ablations", false, "also run the DESIGN.md §5 ablations")
	benchOut := flag.String("bench-out", "", "write a bench-pipeline JSON document to FILE and exit (skips the tables)")
	backends := flag.String("backends", "", "with -bench-out: comma-separated execution backends to sweep on the wall clock (e.g. striped,bitwise-sim,cpu-ref)")
	search := flag.Bool("search", false, "with -bench-out: also sweep the corpus-search prefilter selectivity across k-mer lengths 4, 6 and 8")
	searchSeqs := flag.Int("search-seqs", 4000, "with -search: synthetic corpus size in sequences")
	searchBackend := flag.String("search-backend", "striped", "with -search: scoring backend for the search sweep")
	checkBench := flag.String("check-bench", "", "validate a bench-pipeline JSON document and exit")
	requireBackends := flag.String("require-backends", "", "with -check-bench: fail unless the document carries a section for each comma-separated backend")
	requireSearch := flag.Bool("require-search", false, "with -check-bench: fail unless the document carries a search section whose default-k pass rate is under 0.2")
	minStripedSpeedup := flag.Float64("min-striped-speedup", 0, "with -check-bench: fail unless striped beats bitwise-sim on the wall clock by at least this factor")
	metricsOut := flag.String("metrics-out", "", "with -bench-out: also dump the run's Prometheus metrics to FILE (- = stderr)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *checkBench != "" {
		f, err := bench.ReadFile(*checkBench)
		if err == nil {
			err = f.Validate()
		}
		if err == nil && *requireBackends != "" {
			have := make(map[string]bool)
			for _, sec := range f.Backends {
				have[sec.Name] = true
			}
			for _, name := range strings.Split(*requireBackends, ",") {
				if name = strings.TrimSpace(name); name != "" && !have[name] {
					err = fmt.Errorf("%s has no %q backend section (regenerate with -backends)", *checkBench, name)
					break
				}
			}
		}
		if err == nil && *requireSearch {
			if f.Search == nil {
				err = fmt.Errorf("%s has no search section (regenerate with -search)", *checkBench)
			} else if r := f.Search.SearchRunAt(corpus.DefaultK); r == nil {
				err = fmt.Errorf("%s search section has no k=%d run", *checkBench, corpus.DefaultK)
			} else if r.PassRate >= 0.2 {
				err = fmt.Errorf("%s: prefilter pass rate %.3f at k=%d, gate requires < 0.2",
					*checkBench, r.PassRate, corpus.DefaultK)
			}
		}
		if err == nil && *minStripedSpeedup > 0 && f.SpeedupStripedVsBitwiseSim < *minStripedSpeedup {
			err = fmt.Errorf("%s: striped is %.1fx bitwise-sim on the wall clock, gate requires >= %.1fx",
				*checkBench, f.SpeedupStripedVsBitwiseSim, *minStripedSpeedup)
		}
		if err != nil {
			cli.Exitf(1, "swabench: %v", err)
		}
		sections := ""
		if len(f.Backends) > 0 {
			sections += fmt.Sprintf(", %d backend(s)", len(f.Backends))
		}
		if f.Search != nil {
			sections += fmt.Sprintf(", search sweep over %d k(s)", len(f.Search.Runs))
		}
		fmt.Printf("swabench: %s ok (%s workload, %d runs%s)\n", *checkBench, f.Workload, len(f.Runs), sections)
		return
	}

	spec, err := workload.ByName(*preset)
	if err != nil {
		cli.Exitf(2, "%v", err)
	}

	// Ctrl-C / SIGTERM cancels the pipeline context so long CPU sweeps and
	// simulated GPU runs stop at the next measurement or kernel block.
	ctx, stop := cli.SignalContext()
	defer stop()

	if *benchOut != "" {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "... bench: bitwise pipeline over preset %q (%d pairs, %d shapes)\n",
				spec.Name, spec.Pairs, len(spec.NList))
		}
		reg := obs.NewRegistry()
		f, err := bench.Collect(ctx, spec, pipeline.Config{Metrics: reg})
		if err != nil {
			cli.Die(fmt.Errorf("swabench: bench: %w", err))
		}
		if *backends != "" {
			var names []string
			for _, name := range strings.Split(*backends, ",") {
				if name = strings.TrimSpace(name); name != "" {
					names = append(names, name)
				}
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "... bench: wall-clock sweep across backends %s\n", strings.Join(names, ", "))
			}
			if err := f.CollectBackends(ctx, spec, pipeline.Config{Metrics: reg}, 0, names); err != nil {
				cli.Die(fmt.Errorf("swabench: bench: %w", err))
			}
		}
		if *search {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "... bench: corpus-search selectivity sweep (%d seqs, k = 4, 6, 8)\n", *searchSeqs)
			}
			if err := f.CollectSearch(ctx, *searchSeqs, nil, *searchBackend); err != nil {
				cli.Die(fmt.Errorf("swabench: bench: %w", err))
			}
		}
		if err := f.WriteFile(*benchOut); err != nil {
			cli.Die(fmt.Errorf("swabench: bench: %w", err))
		}
		if *metricsOut != "" {
			if err := cli.MetricsDump(*metricsOut, reg); err != nil {
				cli.Die(fmt.Errorf("swabench: metrics: %w", err))
			}
		}
		for _, r := range f.Runs {
			fmt.Printf("bench m=%d n=%d pairs=%d lanes=%d gcups=%.2f\n", r.M, r.N, r.Pairs, r.Lanes, r.GCUPS)
		}
		for _, sec := range f.Backends {
			fmt.Printf("backend %s wall_gcups=%.4f runs=%d\n", sec.Name, sec.AggregateWallGCUPS, len(sec.Runs))
		}
		if f.Search != nil {
			for _, r := range f.Search.Runs {
				fmt.Printf("search k=%d kmer_rate=%.3f pass_rate=%.4f cands/query=%.1f wall_gcups=%.3f exact=%v\n",
					r.K, r.KmerPassRate, r.PassRate, r.CandidatesPerQuery, r.WallGCUPS, r.ExactTopK)
			}
		}
		if f.SpeedupStripedVsBitwiseSim > 0 {
			fmt.Printf("backend speedup striped/bitwise-sim=%.1fx\n", f.SpeedupStripedVsBitwiseSim)
		}
		fmt.Printf("swabench: wrote %s\n", *benchOut)
		return
	}

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "... %s\n", msg)
		}
	}

	want := func(n int) bool { return *table == 0 && *figure == 0 || *table == n }
	wantFig := func(n int) bool { return *table == 0 && *figure == 0 || *figure == n }

	if want(1) {
		fmt.Println(tables.RenderTableI())
		fmt.Println(tables.RenderLemmas())
	}
	if want(2) {
		fmt.Println(tables.RenderTableII())
	}
	if want(3) {
		fmt.Println(tables.RenderTableIII())
	}
	if wantFig(1) {
		fmt.Println(tables.RenderFigure1())
	}
	if wantFig(2) {
		fmt.Println(tables.RenderFigure2())
	}
	if want(4) || want(5) {
		iv, err := tables.BuildTableIV(ctx, spec, progress)
		if err != nil {
			cli.Die(fmt.Errorf("table IV: %w", err))
		}
		if want(4) {
			fmt.Println(tables.RenderTableIV(iv))
			if spec.Name != "paper" {
				fmt.Printf("CPU columns measured on preset %q (%d pairs, n up to %d) and rescaled\n"+
					"to the paper's 32K pairs; rows beyond the preset's n sweep extrapolate the\n"+
					"largest measured n linearly. Run -preset paper for fully measured CPU columns.\n\n",
					spec.Name, spec.Pairs, spec.NList[len(spec.NList)-1])
			}
		}
		if want(5) {
			fmt.Println(tables.RenderTableV(tables.BuildTableV(iv)))
		}
	}
	if *ablations {
		progress("ablations")
		rows, err := tables.BuildAblations(ctx, spec)
		if err != nil {
			cli.Die(fmt.Errorf("ablations: %w", err))
		}
		fmt.Println(tables.RenderAblations(rows))
	}
}
