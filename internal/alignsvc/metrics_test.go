package alignsvc

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServiceMetrics drives a clean batch through the service and checks the
// obs registry picked up queue wait, per-tier counters and the pipeline's
// stage histograms (proving the registry flows service → pipeline).
func TestServiceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	defer s.Close()

	pairs := plantedPairs(64, 16, 32, 4)
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := s.Align(ctx, pairs); err != nil {
		t.Fatal(err)
	}

	if h := reg.Histogram("alignsvc_queue_wait_seconds", nil); h.Count() != 1 {
		t.Errorf("queue wait observations = %d, want 1", h.Count())
	}
	if c := reg.Counter(obs.L("alignsvc_batches_total", "tier", "bitwise")); c.Value() != 1 {
		t.Errorf("bitwise batches = %d, want 1", c.Value())
	}
	if h := reg.Histogram(obs.L("alignsvc_batch_seconds", "tier", "bitwise"), nil); h.Count() != 1 {
		t.Errorf("batch seconds observations = %d, want 1", h.Count())
	}
	// The pipeline recorded into the same registry.
	if h := reg.Histogram(obs.L("pipeline_stage_sim_seconds", "pipeline", "bitwise", "stage", "swa"), nil); h.Count() != 1 {
		t.Errorf("pipeline swa histogram = %d, want 1", h.Count())
	}

	// The trace carries the queue-wait → service → tier → stage span chain.
	names := make(map[string]bool)
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{
		"alignsvc.queue_wait", "alignsvc.process", "alignsvc.tier.bitwise", "pipeline.swa",
	} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestServiceRetryAndFallbackMetrics fails every bitwise call so the CPU
// fallback surfaces in the registry and the trace. Nothing is retried, and
// the exposition carries no retry or breaker series.
func TestServiceRetryAndFallbackMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	wrap, _ := flakyWrap(1, 6)
	s := New(Config{Metrics: reg, Wrap: wrap})
	defer s.Close()

	pairs := plantedPairs(32, 16, 32, 5)
	tr := obs.NewTrace("")
	res, err := s.Align(obs.WithTrace(context.Background(), tr), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierCPU || res.Report.Fallbacks != 1 {
		t.Fatalf("report %s, want cpu after 1 fallback", res.Report)
	}
	if c := reg.Counter(obs.L("alignsvc_fallbacks_total", "from", "bitwise")); c.Value() != 1 {
		t.Errorf("bitwise fallbacks = %d, want 1", c.Value())
	}
	if c := reg.Counter(obs.L("alignsvc_batches_total", "tier", "cpu")); c.Value() != 1 {
		t.Errorf("cpu batches = %d, want 1", c.Value())
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"alignsvc.tier.bitwise", "alignsvc.tier.cpu"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// The whole stack renders to one exposition.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `alignsvc_fallbacks_total{from="bitwise"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
	for _, gone := range []string{"alignsvc_retries_total", "alignsvc_breaker"} {
		if strings.Contains(b.String(), gone) {
			t.Errorf("exposition still carries %q", gone)
		}
	}
}
