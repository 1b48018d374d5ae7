package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/swa"
)

// newTestServer builds a service + server + httptest listener, with cleanup.
func newTestServer(t *testing.T, scfg alignsvc.Config, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := alignsvc.New(scfg)
	cfg.Service = svc
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return srv, ts
}

// slowBackend holds its engine slot for hold before scoring, and gives up
// as soon as the request's context ends.
type slowBackend struct {
	alignsvc.Backend
	hold time.Duration
}

func (b slowBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	t := time.NewTimer(b.hold)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, alignsvc.BatchStats{}, ctx.Err()
	case <-t.C:
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// slowServiceConfig makes every request hold its engine slot for 150 ms
// before the scalar reference scores its (tiny) batch in microseconds. The
// hold is a timer, not CPU, so latency stays stable under -race and busy
// slots do not starve the test's own clients.
func slowServiceConfig() alignsvc.Config {
	return alignsvc.Config{
		Backend: alignsvc.BackendCPURef,
		Workers: 8,
		Wrap: func(be alignsvc.Backend) alignsvc.Backend {
			return slowBackend{Backend: be, hold: 150 * time.Millisecond}
		},
	}
}

func testPairs(count, m, n int, seed uint64) ([]dna.Pair, []int) {
	rng := rand.New(rand.NewPCG(seed, 0))
	pairs := dna.RandomPairs(rng, count, m, n)
	want := make([]int, len(pairs))
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return pairs, want
}

func pairsJSON(pairs []dna.Pair) []PairJSON {
	out := make([]PairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = PairJSON{X: p.X.String(), Y: p.Y.String()}
	}
	return out
}

// tryPostAlign sends the request and returns the status plus raw body.
// Safe to call from helper goroutines.
func tryPostAlign(url string, body any) (int, []byte, error) {
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, nil, err
		}
	}
	resp, err := http.Post(url+"/align", "application/json", &buf)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// postAlign is tryPostAlign that fails the test on transport errors.
func postAlign(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	status, raw, err := tryPostAlign(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

func decodeError(t *testing.T, raw []byte) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not ErrorResponse JSON: %v\n%s", err, raw)
	}
	return e
}

func TestAlignExactScores(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{}, Config{})
	pairs, want := testPairs(48, 16, 32, 7)
	// A timeout_ms beyond what time.Duration holds is capped at MaxTimeout;
	// it must not wrap to an already-expired deadline.
	for _, ms := range []int64{0, 1 << 62} {
		status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs), TimeoutMS: ms})
		if status != http.StatusOK {
			t.Fatalf("timeout_ms %d: status %d: %s", ms, status, raw)
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != len(want) {
			t.Fatalf("got %d scores, want %d", len(res.Scores), len(want))
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("score[%d] = %d, want %d", i, res.Scores[i], want[i])
			}
		}
		if res.Report.Tier != alignsvc.TierBitwise {
			t.Fatalf("clean batch served by %v", res.Report.Tier)
		}
	}
}

func TestAlignPreset(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{}, Config{})
	status, raw := postAlign(t, ts.URL, AlignRequest{Preset: "unit"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var res AlignResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 64 { // workload.Unit.Pairs
		t.Fatalf("preset unit returned %d scores, want 64", len(res.Scores))
	}
}

func TestAlignRejections(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{},
		Config{MaxPairs: 8, MaxSeqLen: 64, MaxBodyBytes: 2048})
	long := strings.Repeat("A", 65)
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"bad json", `{"pairs": [`, http.StatusBadRequest, CodeBadRequest},
		{"empty", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"pairs and preset", AlignRequest{Preset: "unit", Pairs: []PairJSON{{X: "A", Y: "A"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"unknown preset", AlignRequest{Preset: "bogus"}, http.StatusBadRequest, CodeBadRequest},
		{"oversized preset", AlignRequest{Preset: "paper"}, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"bad base", AlignRequest{Pairs: []PairJSON{{X: "AXGT", Y: "ACGTACGT"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"empty pattern", AlignRequest{Pairs: []PairJSON{{X: "", Y: "ACGT"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"text shorter than pattern", AlignRequest{Pairs: []PairJSON{{X: "ACGTACGT", Y: "ACGT"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"ragged batch", AlignRequest{Pairs: []PairJSON{{X: "ACGT", Y: "ACGTACGT"}, {X: "AC", Y: "ACGTACGT"}}},
			http.StatusBadRequest, CodeBadRequest},
		{"too many pairs", AlignRequest{Pairs: func() []PairJSON {
			out := make([]PairJSON, 9)
			for i := range out {
				out[i] = PairJSON{X: "ACGT", Y: "ACGTACGT"}
			}
			return out
		}()}, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"sequence too long", AlignRequest{Pairs: []PairJSON{{X: "ACGT", Y: long}}},
			http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"body too large", `{"pairs": [{"x":"` + strings.Repeat("A", 4096) + `"}]}`,
			http.StatusRequestEntityTooLarge, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postAlign(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, raw)
			}
			if e := decodeError(t, raw); e.Code != tc.code {
				t.Fatalf("code %q, want %q", e.Code, tc.code)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/align")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /align = %d, want 405", resp.StatusCode)
	}
}

func TestAdmissionSheds429(t *testing.T) {
	_, ts := newTestServer(t, slowServiceConfig(), Config{MaxInFlight: 1, MaxQueued: 1})
	pairs, _ := testPairs(4, 8, 16, 9)
	req := AlignRequest{Pairs: pairsJSON(pairs)}

	const clients = 6
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(req)
			resp, err := http.Post(ts.URL+"/align", "application/json", &buf)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, st)
		}
	}
	// 1 executing + 1 queued = at most 2 can succeed per ~150ms window; with
	// 6 simultaneous clients at least 3 must be shed.
	if ok < 1 || shed < 3 {
		t.Fatalf("ok=%d shed=%d, want ≥1 and ≥3 (statuses %v)", ok, shed, statuses)
	}
}

func TestDeadlineReturns504(t *testing.T) {
	srv, ts := newTestServer(t, slowServiceConfig(), Config{})
	pairs, _ := testPairs(4, 8, 16, 10)
	status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs), TimeoutMS: 20})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", status, raw)
	}
	if e := decodeError(t, raw); e.Code != CodeDeadline {
		t.Fatalf("code %q, want %q", e.Code, CodeDeadline)
	}
	if st := srv.Stats(); st.Deadlines != 1 {
		t.Fatalf("deadline counter: %+v", st)
	}
}

func TestHealthEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, alignsvc.Config{}, Config{})
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	if st, raw := get("/healthz"); st != http.StatusOK || !strings.Contains(string(raw), `"ok":true`) {
		t.Fatalf("/healthz = %d %s", st, raw)
	}
	if st, raw := get("/readyz"); st != http.StatusOK || !strings.Contains(string(raw), `"ready":true`) {
		t.Fatalf("/readyz = %d %s", st, raw)
	}

	// One request so /statsz has something to show.
	pairs, _ := testPairs(8, 8, 16, 11)
	if st, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)}); st != http.StatusOK {
		t.Fatalf("align: %d %s", st, raw)
	}
	st, raw := get("/statsz")
	if st != http.StatusOK {
		t.Fatalf("/statsz = %d", st)
	}
	var stats StatszResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, raw)
	}
	if stats.Server.Requests != 1 || stats.Server.Completed != 1 {
		t.Fatalf("server stats: %+v", stats.Server)
	}
	if stats.Service.Batches != 1 {
		t.Fatalf("service stats: %+v", stats.Service)
	}

	srv.BeginDrain()
	if st, raw := get("/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(string(raw), `"ready":false`) {
		t.Fatalf("/readyz while draining = %d %s", st, raw)
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", st)
	}
}

// TestDrainCompletesInFlight is the graceful-shutdown contract: an in-flight
// request finishes with exact scores while /readyz flips to 503 and new
// aligns are refused, and Drain returns once the request is done.
func TestDrainCompletesInFlight(t *testing.T) {
	srv, ts := newTestServer(t, slowServiceConfig(), Config{})
	pairs, want := testPairs(4, 8, 16, 12)

	type result struct {
		status int
		raw    []byte
	}
	done := make(chan result, 1)
	go func() {
		st, raw, err := tryPostAlign(ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
		if err != nil {
			t.Errorf("in-flight request: %v", err)
		}
		done <- result{st, raw}
	}()

	// Let the request get in flight, then start draining.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	srv.BeginDrain()

	// New work is refused while the old request drains.
	status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("align during drain = %d (%s), want 503", status, raw)
	}
	if e := decodeError(t, raw); e.Code != CodeDraining {
		t.Fatalf("code %q, want %q", e.Code, CodeDraining)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d (%s), want 200", r.status, r.raw)
	}
	var res AlignResponse
	if err := json.Unmarshal(r.raw, &res); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Scores[i] != want[i] {
			t.Fatalf("drained request score[%d] = %d, want %d", i, res.Scores[i], want[i])
		}
	}
}

func TestDrainTimesOutWithStragglers(t *testing.T) {
	srv, ts := newTestServer(t, slowServiceConfig(), Config{})
	pairs, _ := testPairs(4, 8, 16, 13)
	go tryPostAlign(ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := srv.Drain(ctx)
	if err == nil {
		t.Fatal("1ms drain of a ~150ms request should time out")
	}
	if !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("drain error should count stragglers: %v", err)
	}
}

func TestServerRequiresService(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a service should fail")
	}
}
