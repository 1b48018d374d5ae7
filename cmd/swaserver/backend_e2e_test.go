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
// striped tier, a request carrying the retired engine-override header
// (naming cpu-ref, or an unknown engine) served by striped all the same,
// and /statsz carrying the backend name and striped counters for every
// request. Skipped with -short.
func TestBackendFlagEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	bin := buildSwaserver(t)
	// -cache-bytes=0: with the cache on, the repeated requests would be
	// served from it and never reach the engine — this test wants to see
	// the tier of each.
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

	// post sends the batch, with the retired engine-override header (in
	// lower case; header names are case-insensitive) when engine is set.
	post := func(engine string) (*http.Response, server.AlignResponse) {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, base+"/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if engine != "" {
			hreq.Header.Set("x-swa-backend", engine)
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

	// The striped engine serves every request with exact scores, whatever
	// engine the header names.
	engines := []string{"", "cpu-ref", "hyperdrive"}
	for _, engine := range engines {
		resp, out := post(engine)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q: status %d; stderr:\n%s", engine, resp.StatusCode, stderr.String())
		}
		for i := range want {
			if out.Scores[i] != want[i] {
				t.Fatalf("header %q: score[%d] = %d, want %d", engine, i, out.Scores[i], want[i])
			}
		}
		if out.Report.Tier.String() != "striped" {
			t.Fatalf("header %q: served by %v, want striped", engine, out.Report.Tier)
		}
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
	if want := int64(len(engines) * len(pairs)); statsz.Service.Striped.Pairs != want {
		t.Fatalf("/statsz striped pairs = %d, want %d", statsz.Service.Striped.Pairs, want)
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
