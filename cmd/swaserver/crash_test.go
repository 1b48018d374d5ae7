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
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/server"
	"repro/internal/swa"
)

// buildSwaserver compiles the binary once per test into a temp dir.
func buildSwaserver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swaserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startSwaserver launches the binary and returns the process, its base URL
// (parsed from the listening line) and its captured stderr.
func startSwaserver(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no listening line on stdout; stderr:\n%s", stderr.String())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	go io.Copy(io.Discard, stdout)
	return cmd, "http://" + addr, &stderr
}

// TestSIGKILLCrashRecovery is the durability guarantee on the real binary:
// submit an async job, SIGKILL the server mid-job, restart it on the same
// data dir, and the job must complete with scores byte-identical to the CPU
// reference — with the chunks checkpointed before the kill skipped, not
// re-executed (proven twice: by the manager's counters and by a WAL audit
// for duplicate checkpoint records). The restarted server must then drain
// cleanly on SIGTERM. Skipped with -short (it builds and runs the binary).
func TestSIGKILLCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	bin := buildSwaserver(t)
	dataDir := t.TempDir()

	// Phase 1: the scalar reference spends ~50 ms on each chunk of four
	// 1024×2048 pairs — slow enough to SIGKILL mid-job with checkpoints on
	// disk.
	cmd, base, stderr := startSwaserver(t, bin,
		"-addr", "127.0.0.1:0",
		"-backend", "cpu-ref",
		"-data-dir", dataDir,
		"-wal-sync", "always",
		"-chunk-size", "4",
		"-job-concurrency", "1",
	)
	defer cmd.Process.Kill()

	// 32 deterministic pairs = 8 chunks of 4.
	rng := rand.New(rand.NewPCG(31, 0))
	pairs := dna.RandomPairs(rng, 32, 1024, 2048)
	want := make([]int, len(pairs))
	req := server.JobSubmitRequest{Pairs: make([]server.PairJSON, len(pairs))}
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
		req.Pairs[i] = server.PairJSON{X: p.X.String(), Y: p.Y.String()}
	}
	body, _ := json.Marshal(req)

	hr, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Idempotency-Key", "crash-e2e")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("submit: %v; stderr:\n%s", err, stderr.String())
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || snap.Chunks != 8 {
		t.Fatalf("submit: %d %+v", resp.StatusCode, snap)
	}

	// Wait for at least 2 durable checkpoints, then SIGKILL — no drain, no
	// goodbye, the WAL is all that survives.
	if err := waitFor(30*time.Second, func() bool {
		var cur jobs.Snapshot
		return getJSON(base+"/jobs/"+snap.ID, &cur) == nil && cur.ChunksDone >= 2
	}); err != nil {
		t.Fatalf("no checkpoints before kill: %v; stderr:\n%s", err, stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is meaningless after SIGKILL

	// Phase 2: restart on the same data dir with the default backend.
	// Recovery must requeue the job and finish only the unfinished chunks.
	cmd2, base2, stderr2 := startSwaserver(t, bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-wal-sync", "always",
		"-chunk-size", "4",
		"-job-concurrency", "1",
		"-grace", "10s",
	)
	defer cmd2.Process.Kill()

	if err := waitFor(30*time.Second, func() bool {
		var cur jobs.Snapshot
		return getJSON(base2+"/jobs/"+snap.ID, &cur) == nil && cur.State == jobstore.StateDone
	}); err != nil {
		t.Fatalf("job never completed after restart: %v; stderr:\n%s", err, stderr2.String())
	}

	// Scores must be byte-identical to the reference.
	var res server.JobResultResponse
	if err := getJSON(base2+"/jobs/"+snap.ID+"/result", &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != len(want) {
		t.Fatalf("result has %d scores, want %d", len(res.Scores), len(want))
	}
	for i := range want {
		if res.Scores[i] != want[i] {
			t.Fatalf("recovered score[%d] = %d, want %d", i, res.Scores[i], want[i])
		}
	}

	// The counters must show a real resume: the job recovered, >= 2 chunks
	// skipped, and executed + skipped covering exactly the 8 chunks.
	var stats server.StatszResponse
	if err := getJSON(base2+"/statsz", &stats); err != nil {
		t.Fatal(err)
	}
	js := stats.Jobs
	if js == nil || js.Recovered != 1 {
		t.Fatalf("recovery stats: %+v", js)
	}
	if js.ChunksSkipped < 2 {
		t.Fatalf("only %d chunks skipped — checkpoints were re-executed", js.ChunksSkipped)
	}
	if js.ChunksExecuted+js.ChunksSkipped != 8 {
		t.Fatalf("executed %d + skipped %d != 8 chunks", js.ChunksExecuted, js.ChunksSkipped)
	}

	// The idempotency key survives the crash: re-sending answers 200 with
	// the same job, not a new 202.
	hr2, _ := http.NewRequest(http.MethodPost, base2+"/jobs", bytes.NewReader(body))
	hr2.Header.Set("Idempotency-Key", "crash-e2e")
	resp2, err := http.DefaultClient.Do(hr2)
	if err != nil {
		t.Fatal(err)
	}
	var dup jobs.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || dup.ID != snap.ID {
		t.Fatalf("post-crash dedup: %d id=%s want %s", resp2.StatusCode, dup.ID, snap.ID)
	}

	// SIGTERM must still exit 0 with the job stack wired in.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd2.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("swaserver exited non-zero after SIGTERM: %v; stderr:\n%s", err, stderr2.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("swaserver did not exit; stderr:\n%s", stderr2.String())
	}

	// Final authority: replay the WAL and check no (job, chunk) was ever
	// checkpointed twice across the crash boundary.
	recs, _, err := jobstore.ScanDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if rec.Type != jobstore.RecChunk {
			continue
		}
		key := fmt.Sprintf("%s/%d", rec.Chunk.ID, rec.Chunk.Index)
		if seen[key] {
			t.Fatalf("chunk %s checkpointed twice", key)
		}
		seen[key] = true
	}
	if len(seen) != 8 {
		t.Fatalf("WAL holds %d chunk checkpoints, want 8", len(seen))
	}
}
