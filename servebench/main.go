package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Float64("seconds", 20, "the timed phase sends a fixed stream that lasts about this many seconds on the reference host")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "servebench-work"), "scratch directory for corpus indexes")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/servebench-traces/<workload>-seed<seed>.jsonl)")
	flag.Parse()

	sp, err := workloadByName(*workload)
	if err != nil || flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		spec:    sp,
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", sp.name, *seed, os.Getpid())),
	}
	if cfg.trace {
		cfg.traceOut = *traceOut
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", "servebench-traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed))
		}
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints the effective configuration, the request counts and every
// metric with its unit, then the result object as the last line.
func report(w io.Writer, cfg runConfig, res *result) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	conf, err := json.Marshal(res.config)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "servebench %s seed=%d trace=%v\n", cfg.spec.name, cfg.seed, cfg.trace)
	fmt.Fprintf(w, "config %s\n", conf)
	fmt.Fprintf(w, "requests sent=%d succeeded=%d failed=%d latency_samples=%d\n",
		res.attempted, res.attempted-res.failed, res.failed, res.samples)
	for _, e := range res.errs {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := finite(res.metrics[d.name])
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// finite replaces a NaN or infinity, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
