package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/server"
	"repro/internal/swa"
)

// TestSIGTERMDrainsInFlight is the end-to-end graceful-shutdown check on
// the real binary: under load, kill -TERM must flip /readyz to not-ready,
// let the in-flight request complete with exact scores, and exit 0 within
// the grace period. Skipped with -short (it builds and runs the binary).
func TestSIGTERMDrainsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "swaserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// The scalar reference on 16 pairs of 1024×2048 (34M cells, ~0.2 s at
	// ~175 MCUPS) makes the request slow enough to SIGTERM mid-flight.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-backend", "cpu-ref",
		"-grace", "10s",
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

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listening line on stdout; stderr:\n%s", stderr.String())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	base := "http://" + addr
	go io.Copy(io.Discard, stdout)

	rng := rand.New(rand.NewPCG(21, 0))
	pairs := dna.RandomPairs(rng, 16, 1024, 2048)
	want := make([]int, len(pairs))
	req := server.AlignRequest{Pairs: make([]server.PairJSON, len(pairs))}
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
		req.Pairs[i] = server.PairJSON{X: p.X.String(), Y: p.Y.String()}
	}
	body, _ := json.Marshal(req)

	type result struct {
		status int
		raw    []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/align", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, raw, err}
	}()

	// Wait until the request is in flight, then send SIGTERM.
	if err := waitFor(5*time.Second, func() bool {
		var st server.StatszResponse
		return getJSON(base+"/statsz", &st) == nil && st.Server.InFlight >= 1
	}); err != nil {
		t.Fatalf("request never became in-flight: %v; stderr:\n%s", err, stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// /readyz must flip to 503 while the request drains.
	if err := waitFor(3*time.Second, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusServiceUnavailable
	}); err != nil {
		t.Fatalf("/readyz never reported not-ready during drain: %v", err)
	}

	// The in-flight request completes with exact scores.
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request = %d during drain, want 200: %s", r.status, r.raw)
	}
	var res server.AlignResponse
	if err := json.Unmarshal(r.raw, &res); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Scores[i] != want[i] {
			t.Fatalf("drained score[%d] = %d, want %d", i, res.Scores[i], want[i])
		}
	}

	// And the process exits 0 within the grace period.
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
}

func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
