package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alignsvc"
	"repro/internal/obs"
)

// newObsServer wires service and server to one private registry, as a
// production deployment would, so /metricsz exposes the whole stack.
func newObsServer(t *testing.T, scfg alignsvc.Config, cfg Config) (*Server, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	scfg.Metrics = reg
	cfg.Metrics = reg
	srv, ts := newTestServer(t, scfg, cfg)
	return srv, ts.URL, reg
}

// newOpsServer serves srv.OpsHandler() on its own httptest listener, the way
// swaserver's -ops-addr does.
func newOpsServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func TestMetricszExposesFullStack(t *testing.T) {
	_, url, _ := newObsServer(t, alignsvc.Config{}, Config{})
	pairs, _ := testPairs(16, 16, 32, 9)
	if status, raw := postAlign(t, url, AlignRequest{Pairs: pairsJSON(pairs)}); status != http.StatusOK {
		t.Fatalf("align: %d %s", status, raw)
	}

	status, hdr, raw := get(t, url+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("/metricsz: %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body := string(raw)
	for _, want := range []string{
		// server layer
		`http_requests_total{route="align",code="200"} 1`,
		`server_admission_total{outcome="ok"} 1`,
		"# TYPE server_inflight gauge",
		`http_request_seconds_bucket{route="align",le="+Inf"} 1`,
		// service layer
		`alignsvc_batches_total{tier="bitwise"} 1`,
		"# TYPE alignsvc_queue_wait_seconds histogram",
		`alignsvc_batch_seconds_bucket{tier="bitwise",le="+Inf"} 1`,
		// pipeline layer
		`pipeline_stage_sim_seconds_bucket{pipeline="bitwise",stage="swa",le="+Inf"} 1`,
		"# TYPE pipeline_gcups histogram",
		`pipeline_runs_total{pipeline="bitwise",result="ok"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}
}

func TestTraceIDFlowsEndToEnd(t *testing.T) {
	_, url, _ := newObsServer(t, alignsvc.Config{}, Config{})

	// A caller-supplied trace ID is honoured and echoed back.
	req, _ := http.NewRequest(http.MethodPost, url+"/align", strings.NewReader(`{"bad json`))
	req.Header.Set("X-Trace-Id", "cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "cafe0123" {
		t.Errorf("X-Trace-Id = %q, want the caller's cafe0123", got)
	}
	e := decodeError(t, raw)
	if e.TraceID != "cafe0123" {
		t.Errorf("error body trace_id = %q, want cafe0123", e.TraceID)
	}

	// Without a header, the server mints an ID.
	status, hdr, raw := get(t, url+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz: %d %s", status, raw)
	}
	if hdr.Get("X-Trace-Id") == "" {
		t.Error("server did not mint a trace ID")
	}
}

func TestTracezRecordsAlignSpans(t *testing.T) {
	srv, url, _ := newObsServer(t, alignsvc.Config{}, Config{})
	pairs, _ := testPairs(8, 16, 32, 10)
	if status, raw := postAlign(t, url, AlignRequest{Pairs: pairsJSON(pairs)}); status != http.StatusOK {
		t.Fatalf("align: %d %s", status, raw)
	}

	// /tracez lives on the ops handler, not the public mux.
	if status, _, _ := get(t, url+"/tracez"); status != http.StatusNotFound {
		t.Errorf("/tracez on the public mux: %d, want 404", status)
	}
	ops := newOpsServer(t, srv)
	status, _, raw := get(t, ops+"/tracez")
	if status != http.StatusOK {
		t.Fatalf("ops /tracez: %d", status)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatalf("tracez JSON: %v\n%s", err, raw)
	}
	if len(recs) != 1 {
		t.Fatalf("tracez holds %d traces, want 1 (only the align had spans)", len(recs))
	}
	names := make(map[string]bool)
	for _, sp := range recs[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"alignsvc.queue_wait", "alignsvc.tier.bitwise", "pipeline.swa"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

func TestOpsHandlerServesPprofAndMetrics(t *testing.T) {
	srv, url, _ := newObsServer(t, alignsvc.Config{}, Config{})
	ops := newOpsServer(t, srv)

	status, _, raw := get(t, ops+"/debug/pprof/cmdline")
	if status != http.StatusOK || len(raw) == 0 {
		t.Errorf("pprof cmdline: %d (%d bytes)", status, len(raw))
	}
	if status, _, _ := get(t, ops+"/metricsz"); status != http.StatusOK {
		t.Errorf("ops /metricsz: %d", status)
	}
	// pprof must NOT leak onto the public mux.
	if status, _, _ := get(t, url+"/debug/pprof/cmdline"); status != http.StatusNotFound {
		t.Errorf("pprof on the public mux: %d, want 404", status)
	}
}

func TestAdmissionMetrics(t *testing.T) {
	_, url, reg := newObsServer(t, slowServiceConfig(), Config{MaxInFlight: 1, MaxQueued: 1})
	pairs, _ := testPairs(4, 8, 16, 9)
	req := AlignRequest{Pairs: pairsJSON(pairs)}

	const clients = 6
	var wg sync.WaitGroup
	var ok200, shed429 atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, err := tryPostAlign(url, req)
			if err != nil {
				t.Error(err)
				return
			}
			switch status {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
			default:
				t.Errorf("unexpected status %d", status)
			}
		}()
	}
	wg.Wait()

	okC := reg.Counter(obs.L("server_admission_total", "outcome", "ok")).Value()
	shedC := reg.Counter(obs.L("server_admission_total", "outcome", "shed")).Value()
	if okC != ok200.Load() || shedC != shed429.Load() {
		t.Errorf("admission counters ok=%d shed=%d, HTTP saw ok=%d shed=%d",
			okC, shedC, ok200.Load(), shed429.Load())
	}
	if shedC == 0 {
		t.Error("no sheds with 6 clients against 1 slot + 1 queue entry")
	}
	reqs := reg.Counter(obs.L("http_requests_total", "route", "align", "code", "429")).Value()
	if reqs != shedC {
		t.Errorf("http_requests_total 429 = %d, admission shed = %d", reqs, shedC)
	}
}
