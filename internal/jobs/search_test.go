package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// slowBackend throttles every scoring batch with a timer, not CPU, giving
// tests a window to interrupt a running job; it gives up as soon as the
// context ends. Scores stay exact.
type slowBackend struct {
	alignsvc.Backend
	delay time.Duration
}

func (s slowBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, alignsvc.BatchStats{}, ctx.Err()
	case <-t.C:
	}
	return s.Backend.AlignBatch(ctx, pairs, opts)
}

// newSearchCorpus builds a small deterministic corpus with a few planted
// homologs of the returned query, mounted as "ref" in a fresh registry.
// delay > 0 throttles each scoring batch (see slowBackend).
func newSearchCorpus(t *testing.T, seqs int, delay time.Duration) (*corpus.Registry, dna.Seq) {
	t.Helper()
	rng := rand.New(rand.NewPCG(31, 41))
	q := dna.RandSeq(rng, 48)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	b, err := corpus.NewBuilder(t.TempDir(), corpus.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seqs; i++ {
		y := dna.RandSeq(rng, 96)
		if i%50 == 0 {
			cp := mut.Mutate(rng, q)
			if len(cp) > 96 {
				cp = cp[:96]
			}
			copy(y[rng.IntN(96-len(cp)+1):], cp)
		}
		if err := b.Add(fmt.Sprintf("ref-%05d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delay > 0 {
		be = slowBackend{Backend: be, delay: delay}
	}
	reg := corpus.NewRegistry()
	if err := reg.Add("ref", c, corpus.NewSearcher(c, be, nil)); err != nil {
		t.Fatal(err)
	}
	return reg, q
}

func TestSearchJobRunsToCompletion(t *testing.T) {
	corpora, q := newSearchCorpus(t, 1000, 0)
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.Corpora = corpora
		c.SearchChunkSize = 100
	})
	defer store.Close()
	defer m.Close()

	p := corpus.Params{TopK: 5}
	snap, created, err := m.SubmitSearchFor("ref", q, p, "key-s", "")
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if snap.Kind != jobstore.KindSearch || snap.Corpus != "ref" || snap.TopK != 5 ||
		snap.Chunks != 10 || snap.Pairs != 1000 {
		t.Fatalf("submit snapshot: %+v", snap)
	}

	// Same key dedups to the same job.
	again, created, err := m.SubmitSearchFor("ref", q, p, "key-s", "")
	if err != nil || created || again.ID != snap.ID {
		t.Fatalf("dedup: created=%v id=%s err=%v", created, again.ID, err)
	}

	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
	hits, res, err := m.SearchResult(snap.ID)
	if err != nil || res.State != jobstore.StateDone {
		t.Fatalf("search result: %v (%+v)", err, res)
	}

	// The async result must equal a synchronous Search with the same params.
	h, _ := corpora.Get("ref")
	sync, err := h.Searcher.Search(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, sync.Hits) {
		t.Fatalf("job hits %v != sync hits %v", hits, sync.Hits)
	}
	if len(hits) != 5 || hits[0].Score < hits[len(hits)-1].Score {
		t.Fatalf("ranked hits malformed: %v", hits)
	}

	// Result() on a search job is a typed kind mismatch.
	if _, _, err := m.Result(snap.ID); !errors.Is(err, ErrWrongKind) {
		t.Errorf("Result on search job: %v, want ErrWrongKind", err)
	}
}

func TestSearchSubmitRejections(t *testing.T) {
	corpora, q := newSearchCorpus(t, 100, 0)
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) { c.Corpora = corpora })
	defer store.Close()
	defer m.Close()

	if _, _, err := m.SubmitSearchFor("nope", q, corpus.Params{}, "", ""); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("unknown corpus: %v, want ErrNoCorpus", err)
	}
	if _, _, err := m.SubmitSearchFor("ref", nil, corpus.Params{}, "", ""); err == nil {
		t.Error("empty query: want error")
	}
	if _, _, err := m.SubmitSearchFor("ref", q, corpus.Params{}, "a\x00b", ""); err == nil {
		t.Error("NUL in key: want error")
	}

	// A manager with no registry rejects every search.
	m2, store2 := newTestManager(t, t.TempDir(), svc, nil)
	defer store2.Close()
	defer m2.Close()
	if _, _, err := m2.SubmitSearchFor("ref", q, corpus.Params{}, "", ""); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("no registry: %v, want ErrNoCorpus", err)
	}
}

// TestSearchJobResumesFromCheckpoints is the in-process analogue of the
// SIGKILL e2e: close the manager mid-search (crash semantics), reopen,
// and verify the resumed job skips its checkpointed chunks and produces
// hits identical to an uninterrupted search.
func TestSearchJobResumesFromCheckpoints(t *testing.T) {
	corpora, q := newSearchCorpus(t, 1000, 5*time.Millisecond)
	dir := t.TempDir()
	svc := newTestService(t, nil)
	p := corpus.Params{TopK: 5, MinKmerHits: -1, MaxEdits: -1} // scan everything: plenty of chunks

	m1, store1 := newTestManager(t, dir, svc, func(c *Config) {
		c.Corpora = corpora
		c.SearchChunkSize = 50 // 20 chunks
	})
	snap, _, err := m1.SubmitSearchFor("ref", q, p, "", "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one checkpoint, then hard-stop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m1.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.ChunksDone >= 1 {
			break
		}
		if s.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted: %+v", s)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within deadline")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	store1.Close()

	m2, store2 := newTestManager(t, dir, svc, func(c *Config) {
		c.Corpora = corpora
		c.SearchChunkSize = 50
	})
	defer store2.Close()
	defer m2.Close()
	waitState(t, m2, snap.ID, jobstore.StateDone, 10*time.Second)
	if st := m2.Stats(); st.Recovered < 1 || st.ChunksSkipped < 1 {
		t.Fatalf("recovery stats: recovered=%d skipped=%d, want ≥1 each", st.Recovered, st.ChunksSkipped)
	}
	hits, _, err := m2.SearchResult(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := corpora.Get("ref")
	sync, err := h.Searcher.Search(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, sync.Hits) {
		t.Fatalf("resumed hits %v != uninterrupted %v", hits, sync.Hits)
	}

	// WAL audit: no chunk checkpointed twice.
	recs, _, err := jobstore.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if r.Type == jobstore.RecChunk && r.Chunk.ID == snap.ID {
			if seen[r.Chunk.Index] {
				t.Fatalf("chunk %d checkpointed twice", r.Chunk.Index)
			}
			seen[r.Chunk.Index] = true
		}
	}
	if len(seen) != snap.Chunks {
		t.Fatalf("%d chunk records in WAL, want %d", len(seen), snap.Chunks)
	}
}

// TestSearchJobFingerprintMismatch proves a resume against a rebuilt
// corpus fails typed instead of silently mixing result sets.
func TestSearchJobFingerprintMismatch(t *testing.T) {
	corpora, q := newSearchCorpus(t, 100, 0)
	svc := newTestService(t, nil)
	dir := t.TempDir()

	// Submit against "ref", then run the job under a registry whose "ref"
	// is a different corpus.
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h, _ := corpora.Get("ref")
	spec := jobstore.SearchSpec{
		Corpus:      "ref",
		Fingerprint: "00000000", // not the mounted corpus's fingerprint
		Query:       q.String(),
		TopK:        5,
		MinKmerHits: 4,
		MaxEdits:    12,
		SeqCount:    h.Corpus.Len(),
	}
	if _, err := store.SubmitSearch("job-fp", "", "", 50, spec); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Service: svc, Corpora: corpora, SearchChunkSize: 50,
		ChunkTimeout: 30 * time.Second, Metrics: obs.NewRegistry()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m.Get("job-fp")
		if err != nil {
			t.Fatal(err)
		}
		if s.State == jobstore.StateFailed {
			if !strings.Contains(s.Error, "fingerprint") {
				t.Fatalf("failure %q does not mention the fingerprint", s.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not fail: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}
