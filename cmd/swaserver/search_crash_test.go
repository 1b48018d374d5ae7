package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/server"
)

// buildCrashCorpus writes a deterministic on-disk corpus index with a few
// planted homologs of the returned query.
func buildCrashCorpus(t *testing.T, dir string, seqs int) dna.Seq {
	t.Helper()
	rng := rand.New(rand.NewPCG(73, 11))
	q := dna.RandSeq(rng, 64)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	b, err := corpus.NewBuilder(dir, corpus.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seqs; i++ {
		y := dna.RandSeq(rng, 128)
		if i%500 == 0 {
			cp := mut.Mutate(rng, q)
			if len(cp) > 128 {
				cp = cp[:128]
			}
			copy(y[rng.IntN(128-len(cp)+1):], cp)
		}
		if err := b.Add(fmt.Sprintf("seq-%06d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSIGKILLSearchRecovery is the durability guarantee for search jobs
// on the real binary: submit a kind "search" job that scans the whole
// corpus on the scalar backend, SIGKILL the server mid-search, restart it
// on the same data dir with the striped backend, and the job must finish
// with hits byte-identical to a fresh synchronous /search — with the
// chunks checkpointed before the kill skipped, not re-executed (proven by
// the manager counters and a WAL audit). Skipped with -short.
func TestSIGKILLSearchRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	bin := buildSwaserver(t)
	dataDir := t.TempDir()
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	const seqs = 20000
	q := buildCrashCorpus(t, corpusDir, seqs)

	// Phase 1: scalar scoring (cpu-ref) and scan-all params make each
	// 500-sequence chunk slow enough to SIGKILL with checkpoints on disk.
	cmd, base, stderr := startSwaserver(t, bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-wal-sync", "always",
		"-corpus", "ref="+corpusDir,
		"-backend", "cpu-ref",
		"-search-chunk-size", "500",
		"-job-concurrency", "1",
	)
	defer cmd.Process.Kill()

	req := server.JobSubmitRequest{
		Kind:        jobstore.KindSearch,
		Corpus:      "ref",
		Query:       q.String(),
		TopK:        10,
		MinKmerHits: -1, // scan everything: 40 predictable chunks
	}
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Idempotency-Key", "search-crash-e2e")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("submit: %v; stderr:\n%s", err, stderr.String())
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || snap.Kind != jobstore.KindSearch ||
		snap.Chunks != seqs/500 {
		t.Fatalf("submit: %d %+v", resp.StatusCode, snap)
	}

	// Wait for ≥2 durable checkpoints but not completion, then SIGKILL.
	if err := waitFor(60*time.Second, func() bool {
		var cur jobs.Snapshot
		return getJSON(base+"/jobs/"+snap.ID, &cur) == nil && cur.ChunksDone >= 2
	}); err != nil {
		t.Fatalf("no checkpoints before kill: %v; stderr:\n%s", err, stderr.String())
	}
	var atKill jobs.Snapshot
	if err := getJSON(base+"/jobs/"+snap.ID, &atKill); err != nil {
		t.Fatal(err)
	}
	if atKill.State.Terminal() {
		t.Fatalf("job finished before it could be killed: %+v (raise seqs or lower chunk size)", atKill)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Phase 2: restart on the same data dir with a different (but exact)
	// scoring backend. The fingerprint pinned in the WAL still matches the
	// corpus, so the job resumes and must produce the identical top-K.
	cmd2, base2, stderr2 := startSwaserver(t, bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-wal-sync", "always",
		"-corpus", "ref="+corpusDir,
		"-backend", "striped",
		"-search-chunk-size", "500",
		"-job-concurrency", "1",
		"-grace", "10s",
	)
	defer cmd2.Process.Kill()

	if err := waitFor(60*time.Second, func() bool {
		var cur jobs.Snapshot
		return getJSON(base2+"/jobs/"+snap.ID, &cur) == nil && cur.State == jobstore.StateDone
	}); err != nil {
		t.Fatalf("job never completed after restart: %v; stderr:\n%s", err, stderr2.String())
	}

	// The resumed job's hits must be byte-identical to an uninterrupted
	// synchronous search over the same corpus and params.
	var res server.SearchJobResultResponse
	if err := getJSON(base2+"/jobs/"+snap.ID+"/result", &res); err != nil {
		t.Fatal(err)
	}
	sreq, _ := json.Marshal(server.SearchRequest{
		Query: q.String(), TopK: 10, MinKmerHits: -1, MaxEdits: -1,
	})
	sresp, err := http.Post(base2+"/search", "application/json", bytes.NewReader(sreq))
	if err != nil {
		t.Fatal(err)
	}
	var sync server.SearchResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("/search: %d", sresp.StatusCode)
	}
	gotJSON, _ := json.Marshal(res.Hits)
	wantJSON, _ := json.Marshal(sync.Hits)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("resumed hits %s != uninterrupted %s", gotJSON, wantJSON)
	}
	if len(res.Hits) != 10 {
		t.Fatalf("resumed job returned %d hits, want 10", len(res.Hits))
	}

	// The counters must show a real resume: the job recovered, the
	// pre-kill checkpoints skipped, and executed + skipped covering
	// exactly the chunk count.
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
	if js.ChunksExecuted+js.ChunksSkipped != int64(snap.Chunks) {
		t.Fatalf("executed %d + skipped %d != %d chunks",
			js.ChunksExecuted, js.ChunksSkipped, snap.Chunks)
	}
	if stats.Search == nil || len(stats.Search.Corpora) != 1 ||
		stats.Search.Corpora[0].Seqs != seqs {
		t.Fatalf("statsz search section: %+v", stats.Search)
	}

	// SIGTERM must still exit 0 with the search stack wired in.
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
	if len(seen) != snap.Chunks {
		t.Fatalf("WAL holds %d chunk checkpoints, want %d", len(seen), snap.Chunks)
	}
}
