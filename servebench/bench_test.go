package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/swa"
)

// tiny shrinks a workload so a whole run takes about a second; the shape
// of its traffic is unchanged.
func tiny(sp spec) spec {
	sp.setups, sp.warmReqs, sp.rate = 1, 2, 1
	if sp.hotSet > 0 {
		sp.hotSet = 64
	}
	if sp.route == "/align" {
		sp.pairs, sp.n = min(sp.pairs, 16), 256
	} else {
		// Two families of three members each keep the top-2 homologues
		// clear of the random sequences, as the full corpus does for top-10.
		sp.corpusSeqs, sp.families, sp.topK = 600, 2, 2
	}
	return sp
}

func score(x, y dna.Seq) int { return swa.Score(x, y, swa.PaperScoring) }

// expected is the oracle answer for a generated request: every pair's
// score, or the query's scores against the first sequences of the corpus.
func expected(t *testing.T, in *inputs, rq request) []int {
	t.Helper()
	var out []int
	if rq.query != "" {
		q := dna.MustParse(rq.query)
		for _, r := range in.records[:20] {
			out = append(out, score(q, r.Seq))
		}
		return out
	}
	for _, p := range rq.pairs {
		out = append(out, score(dna.MustParse(string(in.pattern(p))), dna.MustParse(string(in.text(p)))))
	}
	return out
}

func TestSameSeedSameStreamAndAnswers(t *testing.T) {
	for _, w := range workloads {
		sp := tiny(w)
		a, b, other := newInputs(sp, 7), newInputs(sp, 7), newInputs(sp, 8)
		differs := false
		for c := range clients {
			for i := range 6 {
				ra, rb, ro := a.timedRequest(c, i, nil), b.timedRequest(c, i, nil), other.timedRequest(c, i, nil)
				if !bytes.Equal(ra.body, rb.body) {
					t.Fatalf("%s: seed 7 request (%d,%d) differs between two generations", sp.name, c, i)
				}
				if !slices.Equal(expected(t, a, ra), expected(t, b, rb)) {
					t.Fatalf("%s: seed 7 expected answers of request (%d,%d) differ", sp.name, c, i)
				}
				differs = differs || !bytes.Equal(ra.body, ro.body)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", sp.name)
		}
		if sp.route == "/search" && a.records[0].Seq.String() != b.records[0].Seq.String() {
			t.Errorf("%s: seed 7 corpus differs between two generations", sp.name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, err := percentile(sorted(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it, want an error")
	}
	if got, err := percentile(sorted(1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", got, err)
	}
	if _, err := percentile(sorted(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it, want an error")
	}
	if got, err := percentile(sorted(21), 0.5); err != nil || got != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
}

// TestMetricNamesMatchBenchmarkJSON checks the metric and workload names
// against the naming rule and against BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q) breaks the naming rule or repeats", d.name, d.unit)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list []metricDef
		json []def
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(c.list) != len(c.json) {
			t.Fatalf("%d metrics in the program, %d in BENCHMARK.json", len(c.list), len(c.json))
		}
		for i, d := range c.list {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: program %+v, BENCHMARK.json %+v", i, d, j)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(workloads), len(bj.Workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, bj.Workloads[i].Name)
		}
	}
}

func runTiny(t *testing.T, sp spec, trace bool, oracle func(x, y dna.Seq) int) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(runConfig{
		spec: sp, seed: 3, dur: 200 * time.Millisecond, trace: trace,
		workDir: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "spans.jsonl"), oracle: oracle,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// twice traced: no request fails, every metric is a finite number, and the
// traced counts that depend only on the stream repeat for a seed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	repeat := []string{"aligncache.hit_ratio", "corpus.kmer_pass_rate", "corpus.pass_rate",
		"cluster.forward_ratio", "striped.overflow_ratio"}
	for _, w := range workloads {
		sp := tiny(w)
		plain := runTiny(t, sp, false, nil)
		first := runTiny(t, sp, true, nil)
		second := runTiny(t, sp, true, nil)
		for _, r := range []*result{plain, first, second} {
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s: %d of %d requests failed: %v", sp.name, r.failed, r.attempted, r.errs)
			}
		}
		for _, d := range endToEnd {
			if v := plain.metrics[d.name]; v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: end-to-end %s = %v, want a positive number", sp.name, d.name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := first.metrics[d.name]; !ok && !bypassed(sp, d.name) || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (reported %v)", sp.name, d.name, v, ok)
			}
		}
		for _, name := range repeat {
			if first.metrics[name] != second.metrics[name] {
				t.Errorf("%s: %s = %v then %v for one seed", sp.name, name, first.metrics[name], second.metrics[name])
			}
		}
	}
}

// bypassed reports whether a workload skips the layer a metric belongs to,
// so the traced run leaves it at 0.
func bypassed(sp spec, metric string) bool {
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "aligncache", "alignsvc":
		return sp.route == "/search"
	case "corpus", "bitap":
		return sp.route != "/search"
	case "cluster":
		return !sp.cluster
	}
	return false
}

func TestPlantedWrongScoreFailsRun(t *testing.T) {
	sp := tiny(workloads[0])
	planted := false
	wrong := func(x, y dna.Seq) int {
		if !planted {
			planted = true
			return score(x, y) + 1
		}
		return score(x, y)
	}
	res := runTiny(t, sp, false, wrong)
	if !planted {
		t.Fatal("the oracle was never consulted")
	}
	if res.failed != 1 {
		t.Errorf("one planted wrong score gave %d failed requests (%v), want 1", res.failed, res.errs)
	}
}
