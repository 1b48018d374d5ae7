package jobstore

import (
	"errors"
	"reflect"
	"testing"
)

func testSpec() SearchSpec {
	return SearchSpec{
		Corpus:      "ref",
		Fingerprint: "deadbeef",
		Query:       "ACGTACGT",
		TopK:        3,
		MinKmerHits: 4,
		MaxEdits:    2,
		SeqCount:    10,
	}
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// submitSearch persists a search job.
func submitSearch(s *Store, id, key, tenant string, chunkSize int, spec SearchSpec) (*Job, error) {
	return s.Submit(SubmitRecord{ID: id, Key: key, Tenant: tenant, Kind: KindSearch, ChunkSize: chunkSize, Search: &spec})
}

func TestSubmitSearchValidation(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	bad := []SearchSpec{
		{},
		{Corpus: "ref", Query: "ACGT", SeqCount: 10}, // no top-k
		{Corpus: "ref", Query: "ACGT", TopK: 3},      // no seq count
		{Corpus: "ref", TopK: 3, SeqCount: 10},       // no query
		{Query: "ACGT", TopK: 3, SeqCount: 10},       // no corpus
	}
	for i, sp := range bad {
		if _, err := submitSearch(s, "job-x", "", "", 4, sp); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
	if _, err := submitSearch(s, "job-x", "", "", 0, testSpec()); err == nil {
		t.Error("zero chunk size: want error")
	}
	if _, err := submitSearch(s, "", "", "", 4, testSpec()); err == nil {
		t.Error("empty id: want error")
	}
	if _, err := s.Submit(SubmitRecord{ID: "job-x", Kind: KindSearch, ChunkSize: 4}); err == nil {
		t.Error("search submit without a spec: want error")
	}
	if _, err := s.Submit(SubmitRecord{ID: "job-x", ChunkSize: 4}); err == nil {
		t.Error("alignment submit without pairs: want error")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected submits left %d jobs", s.Len())
	}
}

func TestSearchJobLifecycleAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	spec := testSpec()
	j, err := submitSearch(s, "job-s", "key-s", "acme", 4, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Kind != KindSearch || j.NumChunks() != 3 || j.Search.TopK != 3 {
		t.Fatalf("submitted job: kind=%q chunks=%d spec=%+v", j.Kind, j.NumChunks(), j.Search)
	}
	if lo, hi := j.ChunkBounds(2); lo != 8 || hi != 10 {
		t.Fatalf("chunk 2 bounds [%d,%d), want [8,10)", lo, hi)
	}

	if err := s.AddChunk("job-s", 0, Checkpoint{}); !errors.Is(err, ErrBadTransition) {
		t.Errorf("checkpoint while queued: %v, want ErrBadTransition", err)
	}
	if _, err := s.SetState("job-s", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	// A checkpoint of the other kind is rejected.
	if err := s.AddChunk("job-s", 0, Checkpoint{Scores: []int{1, 2, 3, 4}}); err == nil {
		t.Error("scores on a search job: want error")
	}
	chunks := map[int][]HitData{
		0: {{ID: 1, Name: "a", Score: 9}, {ID: 3, Name: "b", Score: 9}},
		1: {}, // empty checkpoint: no candidates in range
		2: {{ID: 8, Name: "c", Score: 12}},
	}
	for idx, hits := range chunks {
		if err := s.AddChunk("job-s", idx, Checkpoint{Hits: hits}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddChunk("job-s", 1, Checkpoint{}); !errors.Is(err, ErrDuplicateChunk) {
		t.Errorf("duplicate chunk: %v, want ErrDuplicateChunk", err)
	}
	if err := s.AddChunk("job-s", 3, Checkpoint{}); err == nil {
		t.Error("out-of-range chunk: want error")
	}
	if err := s.AddChunk("job-s", 0, Checkpoint{Hits: make([]HitData, 4)}); !errors.Is(err, ErrDuplicateChunk) {
		// (dup wins over the over-top-k check; both are rejections)
		t.Errorf("oversized dup chunk: %v", err)
	}
	if _, err := s.SetState("job-s", StateDone, ""); err != nil {
		t.Fatal(err)
	}

	// The result is the union of the chunk top-Ks in chunk order; the job
	// manager ranks it.
	want := Checkpoint{Hits: []HitData{{ID: 1, Name: "a", Score: 9}, {ID: 3, Name: "b", Score: 9}, {ID: 8, Name: "c", Score: 12}}}
	got, _ := s.Get("job-s")
	if got.ChunksDone() != 3 {
		t.Fatalf("ChunksDone = %d, want 3", got.ChunksDone())
	}
	res, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("merged result %+v, want %+v", res, want)
	}

	// Replay: reopen and check everything — including the empty chunk 1
	// checkpoint — survived.
	s.Close()
	s2 := openTestStore(t, dir)
	re, ok := s2.Get("job-s")
	if !ok {
		t.Fatal("job lost on replay")
	}
	if re.Kind != KindSearch || !reflect.DeepEqual(re.Search, &spec) || re.Tenant != "acme" {
		t.Fatalf("replayed job: kind=%q tenant=%q spec=%+v", re.Kind, re.Tenant, re.Search)
	}
	if ck, ok := re.Chunks[1]; !ok || len(ck.Hits) != 0 {
		t.Fatalf("empty chunk checkpoint lost on replay: %+v ok=%v", ck, ok)
	}
	reres, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reres, want) {
		t.Fatalf("replayed result %+v, want %+v", reres, want)
	}
}

func TestSearchHitsMissingChunk(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if _, err := submitSearch(s, "job-m", "", "", 4, testSpec()); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get("job-m")
	if _, err := j.Result(); err == nil {
		t.Error("Result with no checkpoints: want error")
	}
	// And hits on an alignment job are rejected, even beside its scores.
	if _, err := submit(s, "job-a", "", 2, []PairData{{X: "AC", Y: "GT"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("job-a", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddChunk("job-a", 0, Checkpoint{Scores: []int{4}, Hits: []HitData{{ID: 1}}}); err == nil {
		t.Error("hits on an alignment job: want error")
	}
}

func TestSearchRecordValidate(t *testing.T) {
	spec := testSpec()
	cases := []struct {
		name string
		rec  Record
		ok   bool
	}{
		{"search-submit", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4, Search: &spec}}, true},
		{"search-submit-with-pairs", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4, Search: &spec,
			Pairs: []PairData{{X: "A", Y: "C"}}}}, false},
		{"align-submit-with-spec", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", ChunkSize: 4, Pairs: []PairData{{X: "A", Y: "C"}}, Search: &spec}}, false},
		{"unknown-kind", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: "mystery", ChunkSize: 4, Search: &spec}}, false},
		{"search-submit-no-spec", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4}}, false},
		{"search-chunk-empty-hits", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Search: true}}, true},
		{"search-chunk-with-scores", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Search: true, Scores: []int{1}}}, false},
		{"align-chunk-with-hits", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Scores: []int{1}, Hits: []HitData{{ID: 1}}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.rec.Seq, tc.rec.TimeMS = 1, 1
			err := tc.rec.validate()
			if (err == nil) != tc.ok {
				t.Errorf("validate() = %v, want ok=%v", err, tc.ok)
			}
			if err != nil {
				return
			}
			// Valid records must round-trip the encoder.
			line, err := encodeRecord(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRecord(line[:len(line)-1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.rec) {
				t.Errorf("round-trip %+v != %+v", got, tc.rec)
			}
		})
	}
}
