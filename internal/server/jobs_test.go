package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// newJobsTestServer builds the full durable stack — store, manager, service,
// server — on a temp WAL dir, with cleanup in dependency order.
func newJobsTestServer(t *testing.T, scfg alignsvc.Config, cfg Config, jtweak func(*jobs.Config)) (*Server, *httptest.Server, *jobs.Manager) {
	t.Helper()
	svc := alignsvc.New(scfg)
	store, _, err := jobstore.Open(jobstore.Options{Dir: t.TempDir(), Sync: jobstore.SyncNever})
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	jcfg := jobs.Config{
		Store:        store,
		Service:      svc,
		ChunkSize:    4,
		ChunkTimeout: 30 * time.Second,
		Metrics:      obs.NewRegistry(),
	}
	if jtweak != nil {
		jtweak(&jcfg)
	}
	mgr, err := jobs.New(jcfg)
	if err != nil {
		store.Close()
		svc.Close()
		t.Fatal(err)
	}
	cfg.Service = svc
	cfg.Jobs = mgr
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := New(cfg)
	if err != nil {
		mgr.Close()
		store.Close()
		svc.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
		store.Close()
		svc.Close()
	})
	return srv, ts, mgr
}

// doJSON issues one request and decodes the response body into out (when
// non-nil), returning the raw response for header/status checks.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		switch b := body.(type) {
		case string:
			buf.WriteString(b)
		default:
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp
}

func pollJobDone(t *testing.T, url, id string, d time.Duration) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		var snap jobs.Snapshot
		resp := doJSON(t, http.MethodGet, url+"/jobs/"+id, nil, &snap)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
		}
		if snap.State == jobstore.StateDone {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s (%s)", id, snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, snap.State, d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobsAPILifecycle(t *testing.T) {
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2}, Config{}, nil)
	pairs, want := testPairs(10, 8, 16, 77)

	var snap jobs.Snapshot
	resp := doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Pairs: pairsJSON(pairs)}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	if snap.ID == "" || snap.Chunks != 3 {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+snap.ID {
		t.Fatalf("Location = %q", loc)
	}

	pollJobDone(t, ts.URL, snap.ID, 10*time.Second)

	var res JobResultResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}
	if res.Job.ID != snap.ID || len(res.Scores) != len(want) {
		t.Fatalf("result: %+v", res)
	}
	for i := range want {
		if res.Scores[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, res.Scores[i], want[i])
		}
	}

	// /statsz grows a jobs section when the manager is mounted.
	var stats StatszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &stats)
	if stats.Jobs == nil || stats.Jobs.Submitted != 1 || stats.Jobs.Completed != 1 {
		t.Fatalf("statsz jobs: %+v", stats.Jobs)
	}

	// Unknown IDs are typed 404s on all three verbs.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/job-ffffffffffffffff"},
		{http.MethodGet, "/jobs/job-ffffffffffffffff/result"},
		{http.MethodDelete, "/jobs/job-ffffffffffffffff"},
	} {
		var e ErrorResponse
		resp := doJSON(t, probe.method, ts.URL+probe.path, nil, &e)
		if resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
			t.Fatalf("%s %s: %d %q", probe.method, probe.path, resp.StatusCode, e.Code)
		}
	}
}

func TestJobsAPIIdempotencyKey(t *testing.T) {
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2}, Config{}, nil)
	pairs, _ := testPairs(4, 8, 16, 78)
	body := JobSubmitRequest{Pairs: pairsJSON(pairs)}

	send := func(headerKey string, req JobSubmitRequest) (int, jobs.Snapshot) {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if headerKey != "" {
			hr.Header.Set("Idempotency-Key", headerKey)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap jobs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, snap
	}

	st1, first := send("batch-7", body)
	if st1 != http.StatusAccepted || first.Key != "batch-7" {
		t.Fatalf("first submit: %d %+v", st1, first)
	}
	// Same header key → 200 with the same job, not a second 202.
	st2, second := send("batch-7", body)
	if st2 != http.StatusOK || second.ID != first.ID {
		t.Fatalf("dedup: %d id=%s want %s", st2, second.ID, first.ID)
	}
	// The body field works too, and the header wins when both are present.
	bodyReq := body
	bodyReq.IdempotencyKey = "ignored-when-header-set"
	st3, third := send("batch-7", bodyReq)
	if st3 != http.StatusOK || third.ID != first.ID {
		t.Fatalf("header precedence: %d id=%s want %s", st3, third.ID, first.ID)
	}

	// A NUL byte in the body key is rejected outright: the store namespaces
	// keys by tenant with a NUL separator, so "tenant\x00k" from one client
	// must never alias another tenant's namespaced key.
	nulReq := body
	nulReq.IdempotencyKey = "acme\x00batch-7"
	var e ErrorResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/jobs", nulReq, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Fatalf("NUL key: %d %q, want 400 %q", resp.StatusCode, e.Code, CodeBadRequest)
	}
}

func TestJobsAPICancelAndConflicts(t *testing.T) {
	_, ts, _ := newJobsTestServer(t, slowServiceConfig(), Config{}, func(c *jobs.Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	pairs, _ := testPairs(16, 8, 16, 79)

	var snap jobs.Snapshot
	resp := doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Pairs: pairsJSON(pairs)}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}

	// Result before the job finishes: 409 + not_ready.
	var e ErrorResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &e)
	if resp.StatusCode != http.StatusConflict || e.Code != CodeNotReady {
		t.Fatalf("early result: %d %q", resp.StatusCode, e.Code)
	}

	// Cancel, twice (idempotent).
	for i := 0; i < 2; i++ {
		var got jobs.Snapshot
		resp = doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+snap.ID, nil, &got)
		if resp.StatusCode != http.StatusOK || got.State != jobstore.StateCancelled {
			t.Fatalf("cancel #%d: %d %+v", i, resp.StatusCode, got)
		}
	}

	// Result of a cancelled job: 409 + job_cancelled.
	resp = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &e)
	if resp.StatusCode != http.StatusConflict || e.Code != CodeJobCancelled {
		t.Fatalf("cancelled result: %d %q", resp.StatusCode, e.Code)
	}
}

func TestJobsAPIValidationAndRouting(t *testing.T) {
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2}, Config{MaxPairs: 8}, nil)

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"bad json", http.MethodPost, "/jobs", `{"pairs": [`, http.StatusBadRequest, CodeBadRequest},
		{"no batch", http.MethodPost, "/jobs", JobSubmitRequest{}, http.StatusBadRequest, CodeBadRequest},
		{"bad bases", http.MethodPost, "/jobs",
			JobSubmitRequest{Pairs: []PairJSON{{X: "QQQQ", Y: "ACGTACGT"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"too many pairs", http.MethodPost, "/jobs",
			JobSubmitRequest{Preset: "paper"}, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"get on collection", http.MethodGet, "/jobs", nil, http.StatusMethodNotAllowed, CodeBadRequest},
		{"put on job", http.MethodPut, "/jobs/job-0", nil, http.StatusMethodNotAllowed, CodeBadRequest},
		{"junk subresource", http.MethodGet, "/jobs/job-0/nope", nil, http.StatusNotFound, CodeNotFound},
		{"empty id", http.MethodGet, "/jobs/", nil, http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		var e ErrorResponse
		resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, &e)
		if resp.StatusCode != tc.wantStatus || e.Code != tc.wantCode {
			t.Errorf("%s: got %d %q, want %d %q (%s)",
				tc.name, resp.StatusCode, e.Code, tc.wantStatus, tc.wantCode, e.Error)
		}
	}
}

func TestJobsAPIQueueFullSheds(t *testing.T) {
	_, ts, _ := newJobsTestServer(t, slowServiceConfig(), Config{}, func(c *jobs.Config) {
		c.MaxConcurrent = 1
		c.MaxQueued = 1
		c.ChunkSize = 1
	})
	pairs, _ := testPairs(16, 8, 16, 80)
	body := JobSubmitRequest{Pairs: pairsJSON(pairs)}

	var sawShed bool
	for i := 0; i < 8; i++ {
		var e ErrorResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/jobs", body, &e)
		if resp.StatusCode == http.StatusTooManyRequests {
			if e.Code != CodeShed {
				t.Fatalf("shed code = %q", e.Code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			sawShed = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit #%d: %d", i, resp.StatusCode)
		}
	}
	if !sawShed {
		t.Fatal("queue bound never shed a submission")
	}
}

func TestJobsAPIDrainRequeuesAndRefuses(t *testing.T) {
	srv, ts, mgr := newJobsTestServer(t, slowServiceConfig(), Config{}, func(c *jobs.Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	pairs, _ := testPairs(16, 8, 16, 81)

	var snap jobs.Snapshot
	resp := doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Pairs: pairsJSON(pairs)}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	// Wait for the runner to claim it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var cur jobs.Snapshot
		doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID, nil, &cur)
		if cur.State == jobstore.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain checkpointed and requeued the running job rather than losing or
	// finishing it.
	got, err := mgr.GetFor(snap.ID, "")
	if err != nil || got.State != jobstore.StateQueued {
		t.Fatalf("post-drain job: %+v err=%v", got, err)
	}
	if mgr.Stats().Requeued != 1 {
		t.Fatalf("requeued: %+v", mgr.Stats())
	}
	// New submissions are refused while draining.
	var e ErrorResponse
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Pairs: pairsJSON(pairs)}, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != CodeDraining {
		t.Fatalf("submit during drain: %d %q", resp.StatusCode, e.Code)
	}
}

func TestStatszOmitsJobsWhenUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{Workers: 2}, Config{})
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"jobs"`) {
		t.Fatalf("statsz has a jobs section without a manager: %s", raw)
	}
}
