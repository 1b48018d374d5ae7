package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/swa"
)

// errStorm is the failure the chaos storm injects.
var errStorm = errors.New("chaos: injected backend failure")

// stormBackend fails a seeded share of its engine calls before they run,
// standing in for a backend that rejects batches.
type stormBackend struct {
	alignsvc.Backend
	rate   float64
	failed *atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

func (b *stormBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	b.mu.Lock()
	fail := b.rng.Float64() < b.rate
	b.mu.Unlock()
	if fail {
		b.failed.Add(1)
		return nil, alignsvc.BatchStats{}, errStorm
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// chaosStorm is the storm the soak runs under: a Config.Wrap failing 20% of
// every backend's calls, seeded so a failing run replays. failed counts
// the injected failures.
func chaosStorm(seed uint64) (wrap func(alignsvc.Backend) alignsvc.Backend, failed *atomic.Int64) {
	failed = new(atomic.Int64)
	return func(be alignsvc.Backend) alignsvc.Backend {
		seed++
		return &stormBackend{Backend: be, rate: 0.2, failed: failed,
			rng: rand.New(rand.NewPCG(seed, 0xc4a05))}
	}, failed
}

// chaosBatch returns the deterministic batch and reference scores for one
// (client, iteration) slot.
func chaosBatch(client, iter int) ([]dna.Pair, []int) {
	rng := rand.New(rand.NewPCG(uint64(1000*client+iter), 0xc4a05))
	pairs := dna.RandomPairs(rng, 16, 12, 24)
	want := make([]int, len(pairs))
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return pairs, want
}

// TestChaosSoak is the no-hang/no-panic/no-wrong-score guarantee, enforced
// end to end: concurrent clients hammer a server whose backend fails a
// seeded fifth of its calls, mixed with hostile requests; every single
// response must be either an exact score set or a clean, typed error with
// the right HTTP status, and the server must then drain cleanly. Runs in
// CI under -race with a wall-clock timeout.
func TestChaosSoak(t *testing.T) {
	wrap, failed := chaosStorm(20170529)
	svc := alignsvc.New(alignsvc.Config{
		Workers: 4,
		Wrap:    wrap,
	})
	defer svc.Close()
	srv, err := New(Config{
		Service:     svc,
		MaxInFlight: 4,
		MaxQueued:   4,
		MaxPairs:    64,
		MaxSeqLen:   256,
		RetryAfter:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The no-hang guarantee: every request must answer within this client
	// timeout or the test fails.
	client := &http.Client{Timeout: 30 * time.Second}
	clients, iters := 8, 25
	if testing.Short() {
		iters = 6
	}

	type tally struct {
		ok, shed, errored, hostile int
	}
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local tally
			for i := 0; i < iters; i++ {
				// Every 5th iteration is hostile: malformed or oversized
				// input that must be rejected with a typed 4xx, never
				// crashing or wedging the server.
				if i%5 == 4 {
					local.hostile++
					if !sendHostile(t, client, ts.URL, c, i) {
						return
					}
					continue
				}
				pairs, want := chaosBatch(c, i)
				status, raw, err := postWith(client, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
				if err != nil {
					t.Errorf("client %d iter %d: transport: %v", c, i, err)
					return
				}
				switch status {
				case http.StatusOK:
					var res AlignResponse
					if err := json.Unmarshal(raw, &res); err != nil {
						t.Errorf("client %d iter %d: bad 200 body: %v", c, i, err)
						return
					}
					for k := range want {
						if res.Scores[k] != want[k] {
							t.Errorf("client %d iter %d: WRONG SCORE [%d] = %d, want %d (report %s)",
								c, i, k, res.Scores[k], want[k], res.Report)
							return
						}
					}
					local.ok++
				case http.StatusTooManyRequests:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code != CodeShed {
						t.Errorf("client %d iter %d: untyped 429: %s", c, i, raw)
						return
					}
					local.shed++
				case http.StatusGatewayTimeout, http.StatusServiceUnavailable, http.StatusInternalServerError:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code == "" {
						t.Errorf("client %d iter %d: untyped %d: %s", c, i, status, raw)
						return
					}
					local.errored++
				default:
					t.Errorf("client %d iter %d: unexpected status %d: %s", c, i, status, raw)
					return
				}
			}
			mu.Lock()
			total.ok += local.ok
			total.shed += local.shed
			total.errored += local.errored
			total.hostile += local.hostile
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if total.ok == 0 {
		t.Fatal("chaos soak produced zero successful responses")
	}
	st := svc.Stats()
	if failed.Load() == 0 || st.Fallbacks != failed.Load() {
		t.Fatalf("storm injected %d failures, service counted %d fallbacks: %+v", failed.Load(), st.Fallbacks, st)
	}
	t.Logf("storm: %+v; service stats: fallbacks=%d batches=%d", total, st.Fallbacks, st.Batches)

	// Drain under load must terminate cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.BeginDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

// sendHostile throws one malformed/oversized request and verifies the typed
// rejection. Returns false if the test should stop.
func sendHostile(t *testing.T, client *http.Client, url string, c, i int) bool {
	kind := (c + i) % 3
	var body any
	wantStatus, wantCode := http.StatusBadRequest, CodeBadRequest
	switch kind {
	case 0:
		body = `{"pairs": [{`
	case 1:
		body = AlignRequest{Pairs: []PairJSON{{X: "ACGZ", Y: "ACGTACGT"}}}
	default:
		out := make([]PairJSON, 65) // over the 64-pair cap
		for k := range out {
			out[k] = PairJSON{X: "ACGT", Y: "ACGTACGT"}
		}
		body = AlignRequest{Pairs: out}
		wantStatus, wantCode = http.StatusRequestEntityTooLarge, CodeTooLarge
	}
	status, raw, err := postWith(client, url, body)
	if err != nil {
		t.Errorf("hostile client %d iter %d: transport: %v", c, i, err)
		return false
	}
	if status != wantStatus {
		t.Errorf("hostile client %d iter %d: status %d, want %d (%s)", c, i, status, wantStatus, raw)
		return false
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != wantCode {
		t.Errorf("hostile client %d iter %d: untyped rejection: %s", c, i, raw)
		return false
	}
	return true
}

// postWith is tryPostAlign with a caller-supplied (timeout-bearing) client.
func postWith(client *http.Client, url string, body any) (int, []byte, error) {
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
	}
	resp, err := client.Post(url+"/align", "application/json", bytes.NewReader(buf))
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
