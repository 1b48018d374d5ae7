package jobstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
)

// testdata/golden is a WAL written by the store before alignment and
// search jobs shared one submit and one checkpoint entry point. It pins
// the on-disk format: three 1 KiB segments, 21 records, timestamps one
// second apart from 1760000000000 ms. writeGolden lists what it holds.
const goldenDir = "testdata/golden"

// writeGolden performs the fixture's operations on an empty WAL directory.
func writeGolden(t *testing.T, dir string) {
	t.Helper()
	clock := time.UnixMilli(1760000000000)
	s, _, err := Open(Options{Dir: dir, SegmentBytes: 1024,
		now: func() time.Time { clock = clock.Add(time.Second); return clock }})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	set := func(id string, st State, msg string) {
		t.Helper()
		_, err := s.SetState(id, st, msg)
		must(err)
	}
	// An alignment job of 3 pairs in 2 chunks, drained once between them.
	_, err = s.Submit(SubmitRecord{ID: "job-align", Key: "acme\x00k-align", Tenant: "acme", ChunkSize: 2,
		Pairs: []PairData{{X: "AC", Y: "ACGT"}, {X: "GT", Y: "GGTT"}, {X: "TTA", Y: "CTTAG"}}})
	must(err)
	set("job-align", StateRunning, "")
	must(s.AddChunk("job-align", 0, scores(4, 4)))
	set("job-align", StateQueued, "")
	set("job-align", StateRunning, "")
	must(s.AddChunk("job-align", 1, scores(6)))
	set("job-align", StateDone, "")

	// A search job over 10 sequences in 3 chunks; chunk 1 has no hits.
	_, err = submitSearch(s, "job-search", "k-search", "", 4, SearchSpec{
		Corpus: "ref", Fingerprint: "0123456789abcdef", Query: "ACGTACGT",
		TopK: 3, MinKmerHits: 4, MaxEdits: 2, SeqCount: 10})
	must(err)
	set("job-search", StateRunning, "")
	must(s.AddChunk("job-search", 0, Checkpoint{Hits: []HitData{{ID: 1, Name: "seq-1", Score: 9}, {ID: 3, Name: "seq-3", Score: 11}}}))
	must(s.AddChunk("job-search", 1, Checkpoint{Hits: []HitData{}}))
	must(s.AddChunk("job-search", 2, Checkpoint{Hits: []HitData{{ID: 8, Name: "seq-8", Score: 9}, {ID: 9, Score: 16}}}))
	set("job-search", StateDone, "")

	// A job cancelled while running, after one of its 2 chunks.
	_, err = submit(s, "job-cancel", "", 1, []PairData{{X: "A", Y: "AC"}, {X: "C", Y: "CG"}})
	must(err)
	set("job-cancel", StateRunning, "")
	must(s.AddChunk("job-cancel", 0, scores(2)))
	set("job-cancel", StateCancelled, "")

	// A job that failed and was then garbage-collected, freeing its key.
	_, err = submit(s, "job-drop", "k-drop", 4, []PairData{{X: "G", Y: "GG"}})
	must(err)
	set("job-drop", StateRunning, "")
	set("job-drop", StateFailed, "chunk 0/1: injected")
	_, err = s.Drop("job-drop")
	must(err)
	must(s.Close())
}

// TestGoldenWALReplays replays the fixture and checks the rebuilt jobs:
// state, checkpoints and merged result.
func TestGoldenWALReplays(t *testing.T) {
	dir := t.TempDir()
	segs, err := listSegments(goldenDir)
	if err != nil || len(segs) != 3 {
		t.Fatalf("fixture segments %v: %v", segs, err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(filepath.Join(goldenDir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seg), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep.Segments != 3 || rep.Records != 21 || rep.Jobs != 3 || rep.Truncated {
		t.Fatalf("replay report: %+v", rep)
	}

	a, ok := s.Get("job-align")
	if !ok || a.State != StateDone || a.Tenant != "acme" || a.Kind != "" || a.ChunksDone() != 2 {
		t.Fatalf("job-align: %+v", a)
	}
	if res, err := a.Result(); err != nil || !reflect.DeepEqual(res, scores(4, 4, 6)) {
		t.Fatalf("job-align result %+v: %v", res, err)
	}
	if k, ok := s.ByKey("acme\x00k-align"); !ok || k.ID != "job-align" {
		t.Fatal("job-align key lost")
	}

	sj, ok := s.Get("job-search")
	if !ok || sj.State != StateDone || sj.Kind != KindSearch || sj.Search.TopK != 3 || sj.ChunksDone() != 3 {
		t.Fatalf("job-search: %+v", sj)
	}
	if ck, ok := sj.Chunks[1]; !ok || len(ck.Hits) != 0 {
		t.Fatalf("job-search empty chunk: %+v ok=%v", ck, ok)
	}
	res, err := sj.Result()
	if err != nil || len(res.Scores) != 0 || len(res.Hits) != 4 {
		t.Fatalf("job-search result %+v: %v", res, err)
	}
	hits := make([]corpus.Hit, len(res.Hits))
	for i, h := range res.Hits {
		hits[i] = corpus.Hit(h)
	}
	want := []corpus.Hit{{ID: 9, Score: 16}, {ID: 3, Name: "seq-3", Score: 11}, {ID: 1, Name: "seq-1", Score: 9}}
	if got := corpus.RankHits(hits, sj.Search.TopK); !reflect.DeepEqual(got, want) {
		t.Fatalf("job-search ranked hits %v, want %v", got, want)
	}

	c, ok := s.Get("job-cancel")
	if !ok || c.State != StateCancelled || c.ChunksDone() != 1 {
		t.Fatalf("job-cancel: %+v", c)
	}
	if _, ok := s.Get("job-drop"); ok {
		t.Fatal("dropped job replayed")
	}
	if _, ok := s.ByKey("k-drop"); ok {
		t.Fatal("dropped job's key still held")
	}
}

// TestGoldenWALRewrites performs the fixture's operations with today's
// store and requires byte-identical segments: the record JSON, the CRC
// framing and the segment rotation are unchanged.
func TestGoldenWALRewrites(t *testing.T) {
	dir := t.TempDir()
	writeGolden(t, dir)
	want, err := listSegments(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := listSegments(dir)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("segments %v, want %v (%v)", got, want, err)
	}
	for _, seg := range want {
		a, err := os.ReadFile(filepath.Join(goldenDir, seg))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the fixture:\n got %s\nwant %s", seg, b, a)
		}
	}
}
