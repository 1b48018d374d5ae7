package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/server"
	"repro/internal/swa"
)

// TestSIGTERMDrainsMultiTenantFlood extends the graceful-shutdown e2e to
// multi-tenant queue pressure on the real binary: while a hostile tenant
// floods its queue (and is shed with 429 + Retry-After), two well-behaved
// tenants each hold an in-flight request. kill -TERM must complete both
// in-flight requests with exact scores, answer new work with the typed
// draining error, and exit 0 within the grace period. Skipped with -short.
func TestSIGTERMDrainsMultiTenantFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "swaserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Keyless tenants so the test only needs X-SWA-Tenant: a short-queued
	// weight-1 flooder and two weight-2 steady tenants.
	tenantsFile := filepath.Join(dir, "tenants.json")
	cfg := `{"tenants":[
		{"id":"flood","weight":1,"max_queued":3},
		{"id":"steady-a","weight":2},
		{"id":"steady-b","weight":2}
	]}`
	if err := os.WriteFile(tenantsFile, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	// Slow requests as in the single-tenant drain test: the scalar
	// reference spends ~0.15 s on each batch of eight 1024×3072 pairs. The
	// score cache is off — every client posts the same batch, and a cache
	// hit would serve it instantly, destroying the queue pressure under
	// test.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-backend", "cpu-ref",
		"-cache-bytes", "0",
		"-inflight", "3",
		"-queued", "6",
		"-grace", "10s",
		"-tenants", tenantsFile,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listening line on stdout; stderr:\n%s", stderr.String())
	}
	line := sc.Text()
	base := "http://" + line[strings.LastIndex(line, " ")+1:]
	go io.Copy(io.Discard, stdout)

	rng := rand.New(rand.NewPCG(33, 0))
	pairs := dna.RandomPairs(rng, 8, 1024, 3072)
	want := make([]int, len(pairs))
	req := server.AlignRequest{Pairs: make([]server.PairJSON, len(pairs))}
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
		req.Pairs[i] = server.PairJSON{X: p.X.String(), Y: p.Y.String()}
	}
	body, _ := json.Marshal(req)

	post := func(tenantID string) (int, http.Header, []byte, error) {
		hreq, err := http.NewRequest(http.MethodPost, base+"/align", bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(server.TenantHeader, tenantID)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, raw, err
	}

	// The flood: 6 unpaced loops on the short-queued tenant.
	var (
		floodShed     atomic.Int64
		floodDrained  atomic.Int64
		badRetryAfter atomic.Int64
		stop          = make(chan struct{})
		wg            sync.WaitGroup
	)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, hdr, raw, err := post("flood")
				if err != nil {
					return // listener closed after shutdown
				}
				switch status {
				case http.StatusTooManyRequests:
					floodShed.Add(1)
					if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
						badRetryAfter.Add(1)
					}
					time.Sleep(5 * time.Millisecond)
				case http.StatusServiceUnavailable:
					var e server.ErrorResponse
					if json.Unmarshal(raw, &e) == nil && e.Code == server.CodeDraining {
						floodDrained.Add(1)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}

	// The steady tenants: one closed loop each, recording every outcome so
	// the drain assertions can find the request that was in flight when the
	// signal arrived.
	type result struct {
		status     int
		raw        []byte
		start, end time.Time
	}
	var (
		steadyMu  sync.Mutex
		steadyLog = map[string][]result{}
	)
	for _, id := range []string{"steady-a", "steady-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				status, _, raw, err := post(id)
				if err != nil {
					return // listener closed after shutdown
				}
				steadyMu.Lock()
				steadyLog[id] = append(steadyLog[id], result{status, raw, start, time.Now()})
				steadyMu.Unlock()
				if status != http.StatusOK {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}

	// Wait until both steady tenants hold execution slots and the flooder
	// has already been shed at least once — sustained multi-tenant pressure.
	if err := waitFor(10*time.Second, func() bool {
		var st server.StatszResponse
		if getJSON(base+"/statsz", &st) != nil {
			return false
		}
		return st.Tenants["steady-a"].InFlight >= 1 &&
			st.Tenants["steady-b"].InFlight >= 1 &&
			floodShed.Load() >= 1
	}); err != nil {
		t.Fatalf("multi-tenant pressure never built up: %v; stderr:\n%s", err, stderr.String())
	}
	signalAt := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Let the drain and the flood overlap, then stop the clients once the
	// process has exited (below) and judge the logs.
	checkSteady := func(id string) {
		steadyMu.Lock()
		log := steadyLog[id]
		steadyMu.Unlock()
		inFlightCompleted := false
		for _, r := range log {
			switch r.status {
			case http.StatusOK:
				var res server.AlignResponse
				if err := json.Unmarshal(r.raw, &res); err != nil {
					t.Fatalf("%s: bad 200 body: %v", id, err)
				}
				for i := range want {
					if res.Scores[i] != want[i] {
						t.Fatalf("%s score[%d] = %d, want %d", id, i, res.Scores[i], want[i])
					}
				}
				if r.end.After(signalAt) {
					// Admitted before the drain began (it answered 200, not
					// 503) and completed after it: the in-flight guarantee.
					inFlightCompleted = true
				}
			case http.StatusServiceUnavailable:
				var e server.ErrorResponse
				if json.Unmarshal(r.raw, &e) != nil || e.Code != server.CodeDraining {
					t.Fatalf("%s: 503 without the typed draining code: %s", id, r.raw)
				}
			case http.StatusTooManyRequests:
				// Possible under flood spillover; fine.
			default:
				t.Fatalf("%s: unexpected status %d: %s", id, r.status, r.raw)
			}
		}
		if !inFlightCompleted {
			t.Errorf("%s: no in-flight request completed with 200 during the drain", id)
		}
	}

	// The process exits 0 within grace, flood still hammering.
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("swaserver exited non-zero: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("swaserver did not exit within the grace period; stderr:\n%s", stderr.String())
	}
	close(stop)
	wg.Wait()

	checkSteady("steady-a")
	checkSteady("steady-b")
	if floodShed.Load() == 0 {
		t.Error("the flooding tenant was never shed with 429")
	}
	if n := badRetryAfter.Load(); n != 0 {
		t.Errorf("%d flood 429s carried a missing or out-of-range Retry-After", n)
	}
	if floodDrained.Load() == 0 {
		t.Error("the flood never observed a typed draining rejection after SIGTERM")
	}
}
