package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/swa"
)

// buildSmall builds a deterministic little corpus for round-trip tests.
func buildSmall(t *testing.T, dir string, n int, opts IndexOptions) *Corpus {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	recs := make([]dna.Record, n)
	for i := range recs {
		recs[i] = dna.Record{Name: fmt.Sprintf("seq-%04d", i), Seq: dna.RandSeq(rng, 20+rng.IntN(200))}
	}
	c, err := Build(dir, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	built := buildSmall(t, dir, 200, IndexOptions{})
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Len() != built.Len() || opened.K() != built.K() {
		t.Fatalf("opened len=%d k=%d, built len=%d k=%d", opened.Len(), opened.K(), built.Len(), built.K())
	}
	if opened.Fingerprint() != built.Fingerprint() {
		t.Fatalf("fingerprint %s != %s", opened.Fingerprint(), built.Fingerprint())
	}
	if opened.TotalBases() != built.TotalBases() {
		t.Fatalf("total bases %d != %d", opened.TotalBases(), built.TotalBases())
	}
	for id := 0; id < built.Len(); id++ {
		if opened.Name(id) != built.Name(id) || !opened.Seq(id).Equal(built.Seq(id)) {
			t.Fatalf("sequence %d differs after reopen", id)
		}
	}
	if !reflect.DeepEqual(opened.postings, built.postings) {
		t.Fatal("posting lists differ after reopen")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if seg, _ := filepath.Match("seqs-*.log", e.Name()); !seg && e.Name() != "manifest.json" {
			t.Errorf("index holds %s; want only manifest.json and seqs-*.log", e.Name())
		}
	}
}

func TestBuilderRejects(t *testing.T) {
	if _, err := NewBuilder(t.TempDir(), IndexOptions{K: 1}); err == nil {
		t.Error("k=1: want error")
	}
	if _, err := NewBuilder(t.TempDir(), IndexOptions{K: 11}); err == nil {
		t.Error("k=11: want error")
	}
	dir := t.TempDir()
	b, err := NewBuilder(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add("long", dna.RandSeq(rand.New(rand.NewPCG(3, 3)), maxSeqLen+1)); err == nil {
		t.Error("over maxSeqLen: want error")
	}
	if _, err := b.Commit(); err == nil {
		t.Error("commit after sticky error: want error")
	}
	b2, _ := NewBuilder(t.TempDir(), IndexOptions{})
	if _, err := b2.Commit(); err == nil {
		t.Error("empty commit: want error")
	}
	buildSmall(t, dir+"/idx", 3, IndexOptions{})
	if _, err := NewBuilder(dir+"/idx", IndexOptions{}); err == nil {
		t.Error("rebuilding over an existing index: want error")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	flip := func(t *testing.T, path string, off int) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off = len(raw) + off
		}
		raw[off] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"segment-bitflip", func(t *testing.T, dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "seqs-*.log"))
			if len(segs) == 0 {
				t.Fatal("no segments")
			}
			flip(t, segs[0], 30)
		}},
		{"manifest-fingerprint", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "manifest.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one hex digit of the fingerprint value.
			i := len(raw) - 1
			for ; i > 0; i-- {
				if raw[i] == '"' {
					break
				}
			}
			raw[i-1] = '0' + ('9' - raw[i-1]) // deterministic different digit
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-segment", func(t *testing.T, dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "seqs-*.log"))
			st, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segs[0], st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		// A count too large to allocate must fail before Open sizes its
		// tables by it.
		{"manifest-seqs-huge", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "manifest.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := regexp.MustCompile(`"seqs": *\d+`).ReplaceAll(raw, []byte(`"seqs":4611686018427387904`))
			if bytes.Equal(damaged, raw) {
				t.Fatal("manifest has no seqs count")
			}
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-segment", func(t *testing.T, dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "seqs-*.log"))
			if err := os.Remove(segs[0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildSmall(t, dir, 50, IndexOptions{})
			tc.damage(t, dir)
			_, err := Open(dir)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open after damage: err = %v, want ErrCorrupt", err)
			}
			// Only a missing manifest means no index (dbfilter builds one then).
			if errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Open after damage: err = %v wraps os.ErrNotExist", err)
			}
		})
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("open of empty dir: want error")
	}
}

func TestTopKHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(200)
		k := 1 + rng.IntN(20)
		all := make([]Hit, n)
		heap := newTopK(k, n)
		for i := range all {
			all[i] = Hit{ID: i, Score: rng.IntN(30)} // dense scores force ties
			heap.push(all[i])
		}
		want := RankHits(all, k)
		if got := heap.ranked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: heap %v, sort %v", trial, got, want)
		}
	}
}

func TestPrefilterBypasses(t *testing.T) {
	c := buildSmall(t, t.TempDir(), 30, IndexOptions{})
	short := c.Prefilter(dna.MustParse("ACG"), Params{}) // shorter than k=6
	if short.Prefiltered || len(short.IDs) != c.Len() {
		t.Errorf("short query: %+v, want full bypass", short)
	}
	off := c.Prefilter(dna.RandSeq(rand.New(rand.NewPCG(4, 4)), 40), Params{MinKmerHits: -1})
	if off.Prefiltered || len(off.IDs) != c.Len() {
		t.Errorf("disabled prefilter: %+v, want full bypass", off)
	}
}

// stripedSearcher builds a Searcher on the exact striped backend.
func stripedSearcher(t *testing.T, c *Corpus, reg *obs.Registry) *Searcher {
	t.Helper()
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewSearcher(c, be, reg)
}

// TestSearchOracle100k is the acceptance oracle: over a ≥100k-sequence
// synthetic corpus with planted homologs, the prefiltered top-K must be
// identical to brute-force SW over every sequence, and the prefilter
// must pass under 20% of the corpus at the default k.
func TestSearchOracle100k(t *testing.T) {
	const (
		seqs   = 100_000
		seqLen = 128
		qLen   = 64
		plants = 40
		topK   = 10
	)
	rng := rand.New(rand.NewPCG(42, 7))
	q := dna.RandSeq(rng, qLen)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}

	b, err := NewBuilder(t.TempDir(), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plantAt := map[int]bool{}
	for len(plantAt) < plants {
		plantAt[rng.IntN(seqs)] = true
	}
	for i := 0; i < seqs; i++ {
		y := dna.RandSeq(rng, seqLen)
		if plantAt[i] {
			cp := mut.Mutate(rng, q)
			if len(cp) > seqLen {
				cp = cp[:seqLen]
			}
			copy(y[rng.IntN(seqLen-len(cp)+1):], cp)
		}
		if err := b.Add(fmt.Sprintf("ref-%06d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	s := stripedSearcher(t, c, obs.NewRegistry())
	ctx := context.Background()

	brute, err := s.Search(ctx, q, Params{TopK: topK, MinKmerHits: -1, MaxEdits: -1})
	if err != nil {
		t.Fatal(err)
	}
	if brute.Stats.Candidates != seqs || brute.Stats.Prefiltered {
		t.Fatalf("brute-force stats: %+v, want full scan", brute.Stats)
	}
	filtered, err := s.Search(ctx, q, Params{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(filtered.Hits, brute.Hits) {
		t.Errorf("prefiltered top-%d differs from brute force:\n  filtered: %v\n  brute:    %v",
			topK, filtered.Hits, brute.Hits)
	}
	st := filtered.Stats
	if !st.Prefiltered || st.Candidates == 0 {
		t.Fatalf("prefilter did not engage: %+v", st)
	}
	if st.PassRate >= 0.20 {
		t.Errorf("prefilter pass rate %.3f, want < 0.20", st.PassRate)
	}
	if st.Cells >= st.BruteCells {
		t.Errorf("prefilter saved nothing: cells %d, brute %d", st.Cells, st.BruteCells)
	}
	if st.Scores.N != st.Candidates {
		t.Errorf("score summary over %d samples, want %d", st.Scores.N, st.Candidates)
	}

	// Independent score check: every reported hit re-scored by the
	// scalar reference.
	for _, h := range filtered.Hits {
		if want := swa.Score(q, c.Seq(h.ID), swa.PaperScoring); h.Score != want {
			t.Errorf("hit %d (%s): score %d, want %d", h.ID, h.Name, h.Score, want)
		}
	}
	// The plants dominate the ranking by construction.
	for _, h := range filtered.Hits {
		if !plantAt[h.ID] {
			t.Errorf("hit %d is not a planted homolog (score %d)", h.ID, h.Score)
		}
	}
}

// TestChunkedMergeMatchesSearch proves the per-chunk top-K merge used by
// search jobs reproduces an uninterrupted search exactly.
func TestChunkedMergeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	b, err := NewBuilder(t.TempDir(), IndexOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := dna.RandSeq(rng, 48)
	mut := dna.MutationModel{SubRate: 0.08, InsRate: 0.02, DelRate: 0.02}
	for i := 0; i < 3000; i++ {
		y := dna.RandSeq(rng, 100)
		if i%150 == 0 {
			cp := mut.Mutate(rng, q)
			if len(cp) > 100 {
				cp = cp[:100]
			}
			copy(y[rng.IntN(100-len(cp)+1):], cp)
		}
		if err := b.Add(fmt.Sprintf("m-%04d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	s := stripedSearcher(t, c, nil)
	ctx := context.Background()
	p := Params{TopK: 7}
	full, err := s.Search(ctx, q, p)
	if err != nil {
		t.Fatal(err)
	}
	cand := c.Prefilter(q, p)
	for _, chunk := range []int{1, 64, 257, 3000, 5000} {
		var union []Hit
		for lo := 0; lo < c.Len(); lo += chunk {
			hits, _, err := s.ScoreRange(ctx, q, cand.IDs, lo, min(lo+chunk, c.Len()), p.TopK)
			if err != nil {
				t.Fatal(err)
			}
			union = append(union, hits...)
		}
		if got := RankHits(union, p.TopK); !reflect.DeepEqual(got, full.Hits) {
			t.Errorf("chunk size %d: merged %v, full %v", chunk, got, full.Hits)
		}
	}
}

// TestSearchCandidates pins the entry point the /search handler uses to
// skip a second prefilter: fed Prefilter's output it is Search, hits and
// stats alike; fed a hand-picked subset it scores that subset alone.
func TestSearchCandidates(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	b, err := NewBuilder(t.TempDir(), IndexOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := dna.RandSeq(rng, 48)
	for i := 0; i < 2000; i++ {
		y := dna.RandSeq(rng, 100)
		if i%50 == 0 {
			copy(y[rng.IntN(53):], q)
		}
		if err := b.Add(fmt.Sprintf("c-%04d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	s := stripedSearcher(t, c, nil)
	ctx := context.Background()
	p := Params{TopK: 9}

	want, err := s.Search(ctx, q, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SearchCandidates(ctx, q, p, c.Prefilter(q, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchCandidates over Prefilter:\n  got  %+v\n  want %+v", got, want)
	}

	subset := Candidates{IDs: []int32{3, 50, 77, 1999}, Prefiltered: true}
	got, err = s.SearchCandidates(ctx, q, p, subset)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Candidates != 4 || got.Stats.Cells != 4*48*100 || len(got.Hits) != 4 {
		t.Fatalf("subset search: %d hits, stats %+v", len(got.Hits), got.Stats)
	}
	for _, h := range got.Hits {
		if !slices.Contains(subset.IDs, int32(h.ID)) {
			t.Errorf("hit %d is outside the subset", h.ID)
		}
		if w := swa.Score(q, c.Seq(h.ID), swa.PaperScoring); h.Score != w {
			t.Errorf("hit %d: score %d, want %d", h.ID, h.Score, w)
		}
	}
}

func TestRegistry(t *testing.T) {
	c := buildSmall(t, t.TempDir(), 10, IndexOptions{})
	s := stripedSearcher(t, c, nil)
	r := NewRegistry()
	if err := r.Add("", c, s); err == nil {
		t.Error("empty mount name: want error")
	}
	if err := r.Add("ref", c, s); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("ref", c, s); err == nil {
		t.Error("duplicate mount: want error")
	}
	if err := r.Add("other", c, s); err != nil {
		t.Fatal(err)
	}
	h, ok := r.Get("ref")
	if !ok || h.Corpus != c || h.Searcher != s || h.Name != "ref" {
		t.Fatalf("Get: %+v ok=%v", h, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get of unknown mount succeeded")
	}
	want := []string{"other", "ref"}
	if got := r.Names(); !reflect.DeepEqual(got, want) || r.Len() != 2 {
		t.Errorf("Names() = %v len=%d, want %v len=2", got, r.Len(), want)
	}
	if !sort.StringsAreSorted(r.Names()) {
		t.Error("Names() not sorted")
	}
}

// TestPrefilterIsKmerStage pins the prefilter to one rule for every
// query length: a sequence is a candidate exactly when it shares at least
// min(MinKmerHits, distinct query k-mers) of the query's distinct k-mers.
// Queries run from k to 120 bases, on both sides of 64, and half of them
// are mutated windows of corpus sequences so candidate sets are not empty.
func TestPrefilterIsKmerStage(t *testing.T) {
	c := buildSmall(t, t.TempDir(), 200, IndexOptions{})
	k := c.K()
	kmers := func(s dna.Seq) map[string]bool {
		set := map[string]bool{}
		for i := 0; i+k <= len(s); i++ {
			set[s[i:i+k].String()] = true
		}
		return set
	}
	rng := rand.New(rand.NewPCG(17, 23))
	mut := dna.MutationModel{SubRate: 0.1, InsRate: 0.02, DelRate: 0.02}
	lens := []int{k, 63, 64, 65, 120}
	for len(lens) < 60 {
		lens = append(lens, k+rng.IntN(120-k+1))
	}
	nonEmpty := map[bool]int{} // by query length ≤ 64
	for trial, qLen := range lens {
		q := dna.RandSeq(rng, qLen)
		if trial%2 == 1 {
			src := c.Seq(rng.IntN(c.Len()))
			for len(src) < qLen {
				src = append(src.Clone(), src...)
			}
			at := rng.IntN(len(src) - qLen + 1)
			q = mut.Mutate(rng, src[at:at+qLen])
			q = append(q, dna.RandSeq(rng, max(0, k-len(q)))...)
			q = q[:min(len(q), 120)]
		}
		p := Params{MinKmerHits: []int{0, 1, 2, 8}[trial%4]}
		qk := kmers(q)
		need := min(p.Resolved().MinKmerHits, len(qk))
		var want []int32
		for id := 0; id < c.Len(); id++ {
			shared := 0
			for km := range kmers(c.Seq(id)) {
				if qk[km] {
					shared++
				}
			}
			if shared >= need {
				want = append(want, int32(id))
			}
		}
		got := c.Prefilter(q, p)
		if !got.Prefiltered || !slices.Equal(got.IDs, want) {
			t.Fatalf("trial %d (%d bases, min hits %d): prefiltered=%v IDs %v, want %v",
				trial, len(q), p.MinKmerHits, got.Prefiltered, got.IDs, want)
		}
		if len(want) > 0 {
			nonEmpty[len(q) <= 64]++
		}
	}
	if nonEmpty[true] == 0 || nonEmpty[false] == 0 {
		t.Fatalf("non-empty candidate sets by query ≤ 64 bases: %v; want both sides covered", nonEmpty)
	}
}

// testdata/old-index was written by Build before Open built the posting
// lists itself, so it also holds them stored, in postings.log. Recipe:
//
//	rng := rand.New(rand.NewPCG(2017, 5))
//	recs := make([]dna.Record, 12)
//	for i := range recs {
//		recs[i] = dna.Record{Name: fmt.Sprintf("old-%02d", i), Seq: dna.RandSeq(rng, 10+rng.IntN(61))}
//	}
//	Build(dir, recs, IndexOptions{K: 3})
//
// Its 12 sequences of 12-70 bases fill the buckets 16, 32, 64 and 128.
const oldIndexDir = "testdata/old-index"

// kmerRule is the prefilter's rule, the one TestPrefilterIsKmerStage
// pins, by brute force: the IDs of the sequences sharing at least
// min(MinKmerHits, distinct query k-mers) of the query's distinct k-mers.
func kmerRule(c *Corpus, q dna.Seq, p Params) []int32 {
	kmers := func(s dna.Seq) map[string]bool {
		set := map[string]bool{}
		for i := 0; i+c.K() <= len(s); i++ {
			set[s[i:i+c.K()].String()] = true
		}
		return set
	}
	qk := kmers(q)
	need := min(p.Resolved().MinKmerHits, len(qk))
	var ids []int32
	for id := 0; id < c.Len(); id++ {
		shared := 0
		for km := range kmers(c.Seq(id)) {
			if qk[km] {
				shared++
			}
		}
		if shared >= need {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// TestOpenOldIndex pins that an index written with a postings.log still
// opens, to the fingerprint its manifest records and to the k-mer rule's
// candidates, also after that file is damaged, since Open never reads it.
func TestOpenOldIndex(t *testing.T) {
	entries, err := os.ReadDir(oldIndexDir)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(oldIndexDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}

	mustOpen := func(t *testing.T) *Corpus {
		t.Helper()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() != man.Fingerprint {
			t.Fatalf("fingerprint %s, manifest says %s", c.Fingerprint(), man.Fingerprint)
		}
		return c
	}
	c := mustOpen(t)

	// Random queries and mutated windows of the fixture's sequences, at
	// thresholds from one shared k-mer to more than most queries hold.
	rng := rand.New(rand.NewPCG(32, 1))
	mut := dna.MutationModel{SubRate: 0.1, InsRate: 0.02, DelRate: 0.02}
	var queries []dna.Seq
	for i := 0; i < 12; i++ {
		q := dna.RandSeq(rng, c.K()+rng.IntN(40))
		if i%2 == 1 {
			src := c.Seq(rng.IntN(c.Len()))
			at := rng.IntN(len(src) - c.K() + 1)
			q = mut.Mutate(rng, src[at:min(len(src), at+8+rng.IntN(40))])
		}
		queries = append(queries, q)
	}
	check := func(t *testing.T, c *Corpus) {
		t.Helper()
		proper := 0
		for i, q := range queries {
			p := Params{MinKmerHits: []int{1, 4, 8, 16}[i%4]}
			want := kmerRule(c, q, p)
			if got := c.Prefilter(q, p); !got.Prefiltered || !slices.Equal(got.IDs, want) {
				t.Fatalf("query %d (%d bases, min hits %d): IDs %v, want %v", i, len(q), p.MinKmerHits, got.IDs, want)
			}
			if len(want) > 0 && len(want) < c.Len() {
				proper++
			}
		}
		if proper == 0 {
			t.Fatal("every candidate set is empty or the whole corpus")
		}
	}
	check(t, c)

	// Break the CRC header of the file's second line.
	postings := filepath.Join(dir, "postings.log")
	raw, err = os.ReadFile(postings)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01
	if err := os.WriteFile(postings, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check(t, mustOpen(t))
}
