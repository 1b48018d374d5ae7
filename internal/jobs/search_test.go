package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync/atomic"
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

// newSearchCorpus builds a small deterministic corpus of seqs sequences
// with a few planted homologs of the returned query.
func newSearchCorpus(t *testing.T, seqs int) (*corpus.Corpus, dna.Seq) {
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
	return c, q
}

func stripedBackend(t *testing.T) alignsvc.Backend {
	t.Helper()
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// mountCorpus mounts c as "ref" in a fresh registry. delay > 0 throttles
// each scoring batch (see slowBackend).
func mountCorpus(t *testing.T, c *corpus.Corpus, delay time.Duration) *corpus.Registry {
	t.Helper()
	be := stripedBackend(t)
	if delay > 0 {
		be = slowBackend{Backend: be, delay: delay}
	}
	reg := corpus.NewRegistry()
	if err := reg.Add("ref", c, corpus.NewSearcher(c, be, nil)); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestSearchSubmitRejections(t *testing.T) {
	c, q := newSearchCorpus(t, 100)
	svc := newTestService(t, nil)
	m, store := newTestManager(t, t.TempDir(), svc, func(cfg *Config) { cfg.Corpora = mountCorpus(t, c, 0) })
	defer store.Close()
	defer m.Close()

	search := func(name string, q dna.Seq) Request {
		return Request{Search: &Search{Corpus: name, Query: q}}
	}
	if _, _, err := m.SubmitFor(search("nope", q), "", ""); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("unknown corpus: %v, want ErrNoCorpus", err)
	}
	if _, _, err := m.SubmitFor(search("ref", nil), "", ""); err == nil {
		t.Error("empty query: want error")
	}
	if _, _, err := m.SubmitFor(search("ref", q), "a\x00b", ""); err == nil {
		t.Error("NUL in key: want error")
	}

	// A manager with no registry rejects every search.
	m2, store2 := newTestManager(t, t.TempDir(), svc, nil)
	defer store2.Close()
	defer m2.Close()
	if _, _, err := m2.SubmitFor(search("ref", q), "", ""); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("no registry: %v, want ErrNoCorpus", err)
	}
}

// TestSearchJobFingerprintMismatch proves a resume against a rebuilt
// corpus fails typed instead of silently mixing result sets.
func TestSearchJobFingerprintMismatch(t *testing.T) {
	c, q := newSearchCorpus(t, 100)
	svc := newTestService(t, nil)
	dir := t.TempDir()

	// Submit against "ref", then run the job under a registry whose "ref"
	// is a different corpus.
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := jobstore.SearchSpec{
		Corpus:      "ref",
		Fingerprint: "00000000", // not the mounted corpus's fingerprint
		Query:       q.String(),
		TopK:        5,
		MinKmerHits: 4,
		MaxEdits:    12,
		SeqCount:    c.Len(),
	}
	if _, err := store.Submit(jobstore.SubmitRecord{ID: "job-fp", Kind: jobstore.KindSearch,
		ChunkSize: 50, Search: &spec}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Service: svc, Corpora: mountCorpus(t, c, 0), SearchChunkSize: 50,
		ChunkTimeout: 30 * time.Second, Metrics: obs.NewRegistry()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m.GetFor("job-fp", "")
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

// TestSearchJobRetiredEditStage covers search jobs recorded by a version
// that narrowed k-mer candidates with a bitap edit-distance stage (a
// max_edits ≥ 0 with a query of k to 64 bases). Such a job that already
// holds a checkpoint fails typed rather than merge chunks scored over two
// candidate sets; with no checkpoint it simply runs on the k-mer stage.
// New submissions record the stage as off (max_edits -1).
func TestSearchJobRetiredEditStage(t *testing.T) {
	c, q48 := newSearchCorpus(t, 100)
	q := append(q48.Clone(), q48[:16]...) // 64 bases: the old stage ran
	svc := newTestService(t, nil)
	dir := t.TempDir()

	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	old := func(id string) {
		spec := jobstore.SearchSpec{Corpus: "ref", Fingerprint: c.Fingerprint(), Query: q.String(),
			TopK: 5, MinKmerHits: 4, MaxEdits: 12, SeqCount: c.Len()}
		if _, err := store.Submit(jobstore.SubmitRecord{ID: id, Kind: jobstore.KindSearch,
			ChunkSize: 50, Search: &spec}); err != nil {
			t.Fatal(err)
		}
	}
	old("job-checkpointed")
	if _, err := store.SetState("job-checkpointed", jobstore.StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	ck := jobstore.Checkpoint{Hits: []jobstore.HitData{{ID: 0, Name: c.Name(0), Score: 96}}}
	if err := store.AddChunk("job-checkpointed", 0, ck); err != nil {
		t.Fatal(err)
	}
	old("job-fresh")

	cfg := Config{Store: store, Service: svc, Corpora: mountCorpus(t, c, 0), SearchChunkSize: 50,
		ChunkTimeout: 30 * time.Second, Metrics: obs.NewRegistry()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	failed := waitState(t, m, "job-checkpointed", jobstore.StateFailed, 10*time.Second)
	if !strings.Contains(failed.Error, "retired bitap edit-distance stage") {
		t.Fatalf("failure %q does not name the retired stage", failed.Error)
	}
	waitState(t, m, "job-fresh", jobstore.StateDone, 10*time.Second)
	want, err := corpus.NewSearcher(c, stripedBackend(t), nil).Search(context.Background(), q,
		corpus.Params{TopK: 5, MinKmerHits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultOf(t, m, "job-fresh").Hits; !reflect.DeepEqual(got, want.Hits) {
		t.Fatalf("fresh old-record job hits %v, k-mer-stage search %v", got, want.Hits)
	}

	snap, _, err := m.SubmitFor(Request{Search: &Search{Corpus: "ref", Query: q,
		Params: corpus.Params{TopK: 5, MaxEdits: 12}}}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := store.Get(snap.ID); !ok || j.Search == nil || j.Search.MaxEdits != -1 {
		t.Fatalf("new submission's record: %+v, want a search spec with max_edits -1", j)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
}

// panicOnceBackend panics on its first call, standing in for an engine
// bug, and scores normally after.
type panicOnceBackend struct {
	alignsvc.Backend
	fired *atomic.Bool
}

func (b panicOnceBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	if b.fired.CompareAndSwap(false, true) {
		panic("injected engine panic")
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// TestSearchJobRecoversBackendPanic runs a search job whose corpus scores
// through a service whose backend panics on its first call. The service
// recovers the panic in the job runner's goroutine and scores that batch
// on the scalar reference, so the job ends done with the hits of a bare
// striped search, and the service counts one recovered panic.
func TestSearchJobRecoversBackendPanic(t *testing.T) {
	c, q := newSearchCorpus(t, 200)
	var fired atomic.Bool
	svc := newTestService(t, func(be alignsvc.Backend) alignsvc.Backend {
		return panicOnceBackend{Backend: be, fired: &fired}
	})
	reg := corpus.NewRegistry()
	if err := reg.Add("ref", c, corpus.NewSearcher(c, svc, nil)); err != nil {
		t.Fatal(err)
	}
	m, store := newTestManager(t, t.TempDir(), svc, func(cfg *Config) {
		cfg.Corpora = reg
		cfg.SearchChunkSize = 50
	})
	defer store.Close()
	defer m.Close()

	params := corpus.Params{TopK: 5, MinKmerHits: -1}
	snap, _, err := m.SubmitFor(Request{Search: &Search{Corpus: "ref", Query: q, Params: params}}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
	want, err := corpus.NewSearcher(c, stripedBackend(t), nil).Search(context.Background(), q, params)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultOf(t, m, snap.ID).Hits; !reflect.DeepEqual(got, want.Hits) {
		t.Fatalf("job hits %v, striped search %v", got, want.Hits)
	}
	if st := svc.Stats(); !fired.Load() || st.PanicsRecovered != 1 || st.Fallbacks != 1 {
		t.Fatalf("panic fired %v, service stats %+v, want 1 recovered panic and 1 fallback", fired.Load(), st)
	}
}
