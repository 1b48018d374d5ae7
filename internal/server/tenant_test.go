// HTTP-level tests of the multi-tenant layer: credential resolution, typed
// 429 bodies with derived Retry-After, per-tenant /statsz and /metricsz
// sections, tenant-scoped job ownership, and the SSE progress stream.

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// testTenants builds the registry the tests share: acme is key-protected,
// lab is keyless (bare-header addressable), burst is tightly rate-limited.
func testTenants(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenant.Config{
		Tenants: []tenant.TenantConfig{
			{ID: "acme", Key: "sk-acme", Limits: tenant.Limits{Weight: 4, MaxRunningJobs: 1}},
			{ID: "lab", Limits: tenant.Limits{Weight: 2}},
			{ID: "burst", Key: "sk-burst", Limits: tenant.Limits{RPS: 0.1, Burst: 2}},
			{ID: "cells", Key: "sk-cells", Limits: tenant.Limits{CellsPerSec: 10}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postAlignAs is tryPostAlign with tenant credentials attached.
func postAlignAs(t *testing.T, url, apiKey, tenantID string, body any) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/align", strings.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set(APIKeyHeader, apiKey)
	}
	if tenantID != "" {
		req.Header.Set(TenantHeader, tenantID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err == nil {
		buf.Write(raw)
	}
	return resp.StatusCode, []byte(buf.String()), resp.Header
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func alignBody() AlignRequest {
	pairs, _ := testPairs(1, 4, 8, 3)
	return AlignRequest{Pairs: pairsJSON(pairs)}
}

func TestTenantResolution(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{}, Config{Tenants: testTenants(t)})
	body := alignBody()

	cases := []struct {
		name, key, id string
		want          int
	}{
		{"anonymous", "", "", http.StatusOK},
		{"by key", "sk-acme", "", http.StatusOK},
		{"key plus matching header", "sk-acme", "acme", http.StatusOK},
		{"keyless by header", "", "lab", http.StatusOK},
		{"unknown key", "sk-nope", "", http.StatusUnauthorized},
		{"unknown tenant header", "", "nope", http.StatusUnauthorized},
		{"bare header for keyed tenant", "", "acme", http.StatusUnauthorized},
		{"key and header disagree", "sk-acme", "lab", http.StatusUnauthorized},
	}
	for _, tc := range cases {
		status, raw, _ := postAlignAs(t, ts.URL, tc.key, tc.id, body)
		if status != tc.want {
			t.Fatalf("%s: status = %d, want %d\n%s", tc.name, status, tc.want, raw)
		}
		if tc.want == http.StatusUnauthorized {
			e := decodeError(t, raw)
			if e.Code != CodeBadTenant {
				t.Fatalf("%s: code = %q, want %q", tc.name, e.Code, CodeBadTenant)
			}
			if e.TraceID == "" {
				t.Fatalf("%s: 401 body has no trace_id", tc.name)
			}
		}
	}
}

// TestRateLimited429 pins the token-bucket rejection contract: typed code,
// machine-readable reason, trace_id, and a Retry-After derived from the
// bucket's own refill time rather than a fixed guess.
func TestRateLimited429(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{}, Config{Tenants: testTenants(t)})
	body := alignBody()

	// burst: 2 tokens, 0.1/s refill. Two requests pass, the third needs
	// ~10s of refill → Retry-After 10.
	for i := 0; i < 2; i++ {
		if status, raw, _ := postAlignAs(t, ts.URL, "sk-burst", "", body); status != http.StatusOK {
			t.Fatalf("warm-up %d: status = %d\n%s", i, status, raw)
		}
	}
	status, raw, hdr := postAlignAs(t, ts.URL, "sk-burst", "", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", status, raw)
	}
	e := decodeError(t, raw)
	if e.Code != CodeRateLimited || e.Reason != ReasonRateLimited {
		t.Fatalf("code/reason = %q/%q, want %q/%q", e.Code, e.Reason, CodeRateLimited, ReasonRateLimited)
	}
	if e.TraceID == "" {
		t.Fatal("429 body has no trace_id")
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", hdr.Get("Retry-After"), err)
	}
	if ra != 10 {
		t.Fatalf("Retry-After = %d, want 10 (bucket needs 1 token at 0.1/s)", ra)
	}

	// cells: burst 10 cells, but the batch is 4·8 = 32 cells. It can never
	// pass; the hint is the full refill time (22 missing / 10 per sec → 3s).
	status, raw, hdr = postAlignAs(t, ts.URL, "sk-cells", "", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("cells: status = %d, want 429\n%s", status, raw)
	}
	e = decodeError(t, raw)
	if e.Code != CodeRateLimited || e.Reason != ReasonRateLimited {
		t.Fatalf("cells: code/reason = %q/%q", e.Code, e.Reason)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Fatalf("cells: Retry-After = %q, want %q", got, "3")
	}
}

// TestErrorResponseReasonRoundTrip pins the wire shape of the typed 429
// bodies: reason and trace_id survive a JSON round trip, and reason is
// omitted when empty.
func TestErrorResponseReasonRoundTrip(t *testing.T) {
	in := ErrorResponse{
		Error:   "tenant \"x\" exceeded its request rate limit",
		Code:    CodeRateLimited,
		Reason:  ReasonRateLimited,
		TraceID: "abc123",
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason":"rate_limited"`, `"trace_id":"abc123"`, `"code":"rate_limited"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("marshalled %s lacks %s", raw, want)
		}
	}
	var out ErrorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	raw, _ = json.Marshal(ErrorResponse{Error: "x", Code: CodeBadRequest})
	if strings.Contains(string(raw), "reason") {
		t.Fatalf("empty reason not omitted: %s", raw)
	}
}

// TestShedRetryAfterDerived pins the queue-full 429 contract: reason
// queue_full, and a Retry-After inside the scheduler's clamp range that
// parses as an integer — the regression guard for the old fixed 1s guess.
func TestShedRetryAfterDerived(t *testing.T) {
	srv, ts := newTestServer(t, slowServiceConfig(), Config{
		MaxInFlight: 1, MaxQueued: 1,
		RetryAfter: 7 * time.Second, // the fallback before any drain is observed
	})
	pairs, _ := testPairs(1, 4, 8, 3)
	body := AlignRequest{Pairs: pairsJSON(pairs)}

	// Fill the slot and the queue, then overflow.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { defer func() { done <- struct{}{} }(); tryPostAlign(ts.URL, body) }()
	}
	waitFor(t, time.Second, func() bool {
		return srv.Stats().InFlight == 1 && srv.Stats().Queued == 1
	})
	status, raw, err := tryPostAlign(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", status, raw)
	}
	e := decodeError(t, raw)
	if e.Code != CodeShed || e.Reason != ReasonQueueFull {
		t.Fatalf("code/reason = %q/%q, want %q/%q", e.Code, e.Reason, CodeShed, ReasonQueueFull)
	}
	if e.TraceID == "" {
		t.Fatal("shed body has no trace_id")
	}
	// Before ≥8 grants are observed the hint is the clamped fallback (7s);
	// after that it must come from the measured drain rate. Either way it
	// is an integer in the scheduler's [1s, 30s] clamp.
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	for i := 0; i < 2; i++ {
		<-done
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatszAndMetricszTenants checks the observability surfaces: /statsz
// grows a per-tenant section and /metricsz carries tenant_* series.
func TestStatszAndMetricszTenants(t *testing.T) {
	reg := testTenants(t)
	_, ts := newTestServer(t, alignsvc.Config{}, Config{Tenants: reg, Metrics: obs.NewRegistry()})
	body := alignBody()
	for i := 0; i < 3; i++ {
		if status, raw, _ := postAlignAs(t, ts.URL, "sk-acme", "", body); status != http.StatusOK {
			t.Fatalf("align %d: %d\n%s", i, status, raw)
		}
	}
	if status, _, _ := postAlignAs(t, ts.URL, "", "lab", body); status != http.StatusOK {
		t.Fatal("lab align failed")
	}

	var stats StatszResponse
	resp := doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statsz: %d", resp.StatusCode)
	}
	acme, ok := stats.Tenants["acme"]
	if !ok {
		t.Fatalf("/statsz has no acme tenant section: %+v", stats.Tenants)
	}
	if acme.Admitted != 3 || acme.Weight != 4 {
		t.Fatalf("acme stats = %+v, want Admitted 3 Weight 4", acme)
	}
	if lab := stats.Tenants["lab"]; lab.Admitted != 1 {
		t.Fatalf("lab stats = %+v, want Admitted 1", stats.Tenants["lab"])
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metricsz", nil)
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	text := sb.String()
	for _, want := range []string{
		`tenant_requests_total{tenant="acme",outcome="ok"} 3`,
		`tenant_requests_total{tenant="lab",outcome="ok"} 1`,
		`tenant_inflight{tenant="acme"}`,
		`tenant_queued{tenant="acme"}`,
		`tenant_admission_wait_seconds`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metricsz lacks %s\n%s", want, text)
		}
	}
}

// newTenantJobsServer is newJobsTestServer with one registry wired into
// both the server (admission) and the manager (job quotas/ownership).
func newTenantJobsServer(t *testing.T, scfg alignsvc.Config, reg *tenant.Registry) (*Server, string, *jobs.Manager) {
	t.Helper()
	srv, ts, mgr := newJobsTestServer(t, scfg, Config{Tenants: reg}, func(jc *jobs.Config) {
		jc.Tenants = reg
	})
	return srv, ts.URL, mgr
}

// doJSONAs is doJSON with tenant credentials.
func doJSONAs(t *testing.T, method, url, apiKey, tenantID string, body, out any) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		rd = strings.NewReader(mustJSON(t, body))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set(APIKeyHeader, apiKey)
	}
	if tenantID != "" {
		req.Header.Set(TenantHeader, tenantID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp
}

// TestJobsTenantQuotaAndOwnership drives the tenant-scoped job API over
// HTTP: the running-job cap answers 429 quota_exceeded with Retry-After,
// and another tenant's credentials see 404 for a foreign job.
func TestJobsTenantQuotaAndOwnership(t *testing.T) {
	reg := testTenants(t) // acme: MaxRunningJobs 1
	_, url, _ := newTenantJobsServer(t, slowServiceConfig(), reg)
	pairs, _ := testPairs(8, 4, 8, 11)
	body := JobSubmitRequest{Pairs: pairsJSON(pairs)}

	var first jobs.Snapshot
	resp := doJSONAs(t, http.MethodPost, url+"/jobs", "sk-acme", "", body, &first)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if first.Tenant != "acme" {
		t.Fatalf("snapshot tenant = %q, want acme", first.Tenant)
	}

	// Second submission while the first job is live: over the cap of 1.
	var e ErrorResponse
	resp = doJSONAs(t, http.MethodPost, url+"/jobs", "sk-acme", "", body, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota submit: %d, want 429", resp.StatusCode)
	}
	if e.Code != CodeQuotaExceeded || e.Reason != ReasonQuotaExceeded {
		t.Fatalf("quota code/reason = %q/%q", e.Code, e.Reason)
	}
	if e.TraceID == "" {
		t.Fatal("quota body has no trace_id")
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("quota Retry-After = %q, want integer in [1,30]", resp.Header.Get("Retry-After"))
	}

	// Another tenant (and anonymous) must not even learn the job exists.
	for _, creds := range [][2]string{{"", "lab"}, {"", ""}} {
		resp = doJSONAs(t, http.MethodGet, url+"/jobs/"+first.ID, creds[0], creds[1], nil, &e)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("foreign GET as %v: %d, want 404", creds, resp.StatusCode)
		}
	}
	resp = doJSONAs(t, http.MethodDelete, url+"/jobs/"+first.ID, "", "lab", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign DELETE: %d, want 404", resp.StatusCode)
	}

	// The owner sees it, and once it finishes the quota frees.
	var snap jobs.Snapshot
	resp = doJSONAs(t, http.MethodGet, url+"/jobs/"+first.ID, "sk-acme", "", nil, &snap)
	if resp.StatusCode != http.StatusOK || snap.ID != first.ID {
		t.Fatalf("owner GET: %d %+v", resp.StatusCode, snap)
	}
	waitFor(t, 30*time.Second, func() bool {
		var s jobs.Snapshot
		doJSONAs(t, http.MethodGet, url+"/jobs/"+first.ID, "sk-acme", "", nil, &s)
		return s.State.Terminal()
	})
	resp = doJSONAs(t, http.MethodPost, url+"/jobs", "sk-acme", "", body, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-terminal submit: %d, want 202", resp.StatusCode)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  jobs.Event
}

// readSSE consumes an SSE stream until it closes, returning the frames.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	return out
}

// TestJobEventsSSE streams a slow job's progress feed end to end: the
// stream opens with a snapshot, reports every chunk checkpoint in order,
// ends after the terminal state, and the handler goroutine is released.
// A disconnected subscriber must also be released without leaking.
func TestJobEventsSSE(t *testing.T) {
	reg := testTenants(t)
	_, url, _ := newTenantJobsServer(t, slowServiceConfig(), reg)
	pairs, _ := testPairs(16, 4, 8, 13) // ChunkSize 4 → 4 chunks
	var snap jobs.Snapshot
	resp := doJSONAs(t, http.MethodPost, url+"/jobs", "", "lab", JobSubmitRequest{Pairs: pairsJSON(pairs)}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	baseline := runtime.NumGoroutine()

	// A subscriber that disconnects mid-stream must be released.
	ctx, cancel := context.WithCancel(context.Background())
	dreq, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/jobs/"+snap.ID+"/events", nil)
	dreq.Header.Set(TenantHeader, "lab")
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	dresp.Body.Close()

	// The patient subscriber sees the whole feed.
	req, _ := http.NewRequest(http.MethodGet, url+"/jobs/"+snap.ID+"/events", nil)
	req.Header.Set(TenantHeader, "lab")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewScanner(sresp.Body))
	if len(events) == 0 || events[0].event != jobs.EventSnapshot {
		t.Fatalf("stream did not open with a snapshot: %+v", events)
	}
	var chunks []int
	var sawDone bool
	lastSeq := uint64(0)
	for i, ev := range events {
		if i > 0 && ev.data.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing past %d", i, ev.data.Seq, lastSeq)
		}
		lastSeq = ev.data.Seq
		switch ev.event {
		case jobs.EventChunk:
			chunks = append(chunks, ev.data.Job.ChunksDone)
		case jobs.EventState:
			if ev.data.Job.State == jobstore.StateDone {
				sawDone = true
			}
		}
	}
	if !sawDone {
		t.Fatalf("stream ended without a done state: %+v", events)
	}
	// Subscribed from the start, so every checkpoint must be observed.
	if len(chunks) != 4 {
		t.Fatalf("chunk events = %v, want all 4 checkpoints", chunks)
	}
	for i, c := range chunks {
		if c != i+1 {
			t.Fatalf("chunk events out of order: %v", chunks)
		}
	}

	// Both handler goroutines (and the disconnected sub) must wind down.
	waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})

	// A foreign tenant cannot subscribe at all.
	fresp := doJSONAs(t, http.MethodGet, url+"/jobs/"+snap.ID+"/events", "sk-acme", "", nil, nil)
	if fresp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign events: %d, want 404", fresp.StatusCode)
	}
}
