package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"syscall"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/server"
	"repro/internal/swa"
)

// TestBackendFlagEndToEnd boots the real binary with the striped default
// and checks the whole backend seam over HTTP: exact scores served by the
// striped tier, /statsz carrying the backend name and striped counters, a
// per-request X-SWA-Backend override landing on the cpu tier, and an
// unknown header rejected as bad_backend. Skipped with -short.
func TestBackendFlagEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	bin := buildSwaserver(t)
	// -cache-bytes=0: the score cache is shared across backends by design,
	// so with it on, the second request would be served from cache and never
	// reach the overridden engine — this test wants to see the tiers.
	cmd, base, stderr := startSwaserver(t, bin,
		"-addr", "127.0.0.1:0",
		"-backend", "striped",
		"-cache-bytes", "0",
		"-grace", "5s",
	)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	rng := rand.New(rand.NewPCG(7, 0))
	pairs := dna.RandomPairs(rng, 12, 24, 48)
	req := server.AlignRequest{Pairs: make([]server.PairJSON, len(pairs))}
	want := make([]int, len(pairs))
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
		req.Pairs[i] = server.PairJSON{X: p.X.String(), Y: p.Y.String()}
	}
	body, _ := json.Marshal(req)

	post := func(backend string) (*http.Response, server.AlignResponse) {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, base+"/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if backend != "" {
			hreq.Header.Set(server.BackendHeader, backend)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("align: %v; stderr:\n%s", err, stderr.String())
		}
		defer resp.Body.Close()
		var out server.AlignResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	// Default path: the striped engine serves with exact scores.
	resp, out := post("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: status %d; stderr:\n%s", resp.StatusCode, stderr.String())
	}
	for i := range want {
		if out.Scores[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, out.Scores[i], want[i])
		}
	}
	if out.Report.Tier.String() != "striped" {
		t.Fatalf("served by %v, want striped", out.Report.Tier)
	}

	// Per-request override to the scalar reference.
	resp, out = post("cpu-ref")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override: status %d", resp.StatusCode)
	}
	if out.Report.Tier.String() != "cpu" {
		t.Fatalf("override served by %v, want cpu", out.Report.Tier)
	}
	for i := range want {
		if out.Scores[i] != want[i] {
			t.Fatalf("override score[%d] = %d, want %d", i, out.Scores[i], want[i])
		}
	}

	// Unknown backend is a 400 before any work runs.
	if resp, _ := post("hyperdrive"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d, want 400", resp.StatusCode)
	}

	// /statsz reports the default backend and the striped counters.
	sresp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statsz struct {
		Service struct {
			Backend string `json:"backend"`
			Striped struct {
				Pairs int64 `json:"pairs"`
			} `json:"striped"`
		} `json:"service"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	if statsz.Service.Backend != "striped" {
		t.Fatalf("/statsz backend = %q, want striped", statsz.Service.Backend)
	}
	if statsz.Service.Striped.Pairs != int64(len(pairs)) {
		t.Fatalf("/statsz striped pairs = %d, want %d (cpu-ref override must not count)",
			statsz.Service.Striped.Pairs, len(pairs))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
}
