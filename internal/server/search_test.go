// HTTP-level tests of the corpus-search layer: POST /search request
// validation and exactness against the in-process Searcher, the search
// job kind on POST /jobs with its hits result body, the /statsz search
// section, and prefilter-cell quota accounting.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/pipeline"
	"repro/internal/swa"
	"repro/internal/tenant"
)

// newServerCorpus builds a small deterministic corpus with planted
// homologs of the returned query, mounted as "ref" in a fresh registry.
func newServerCorpus(t *testing.T, seqs int) (*corpus.Registry, dna.Seq) {
	t.Helper()
	rng := rand.New(rand.NewPCG(91, 17))
	q := dna.RandSeq(rng, 48)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	b, err := corpus.NewBuilder(t.TempDir(), corpus.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seqs; i++ {
		y := dna.RandSeq(rng, 96)
		if i%40 == 0 {
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
	reg := corpus.NewRegistry()
	if err := reg.Add("ref", c, corpus.NewSearcher(c, be, nil)); err != nil {
		t.Fatal(err)
	}
	return reg, q
}

func TestSearchEndpoint(t *testing.T) {
	corpora, q := newServerCorpus(t, 800)
	_, ts := newTestServer(t, alignsvc.Config{Workers: 2}, Config{Corpora: corpora})

	var got SearchResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/search",
		SearchRequest{Query: q.String(), TopK: 7}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Corpus != "ref" || len(got.Hits) != 7 {
		t.Fatalf("response: corpus=%q hits=%d", got.Corpus, len(got.Hits))
	}

	// The HTTP answer must match an in-process Search with the same params.
	h, _ := corpora.Get("ref")
	sync, err := h.Searcher.Search(context.Background(), q, corpus.Params{TopK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hits, sync.Hits) {
		t.Fatalf("HTTP hits %v != in-process %v", got.Hits, sync.Hits)
	}
	if got.Stats.Seqs != 800 || got.Stats.Candidates == 0 || got.Stats.Cells == 0 {
		t.Fatalf("stats funnel malformed: %+v", got.Stats)
	}

	// /statsz gains a search section with the corpus inventory.
	var statsz StatszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &statsz)
	if statsz.Search == nil {
		t.Fatal("/statsz has no search section")
	}
	if statsz.Search.Requests != 1 || statsz.Search.Completed != 1 ||
		statsz.Search.ScoredCells == 0 {
		t.Fatalf("search counters: %+v", statsz.Search)
	}
	if len(statsz.Search.Corpora) != 1 {
		t.Fatalf("corpus inventory: %+v", statsz.Search.Corpora)
	}
	inv := statsz.Search.Corpora[0]
	if inv.Name != "ref" || inv.Seqs != 800 || inv.K != h.Corpus.K() ||
		inv.Fingerprint != h.Corpus.Fingerprint() || inv.Backend != alignsvc.BackendStriped {
		t.Fatalf("corpus inventory entry: %+v", inv)
	}
}

func TestSearchEndpointRejections(t *testing.T) {
	corpora, q := newServerCorpus(t, 100)
	_, ts := newTestServer(t, alignsvc.Config{Workers: 2}, Config{Corpora: corpora})

	check := func(method string, body any, wantStatus int, wantCode string) {
		t.Helper()
		var errResp ErrorResponse
		req, _ := http.NewRequest(method, ts.URL+"/search", nil)
		var resp *http.Response
		if body != nil {
			resp = doJSON(t, method, ts.URL+"/search", body, &errResp)
		} else {
			var err error
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %v: status %d want %d (%+v)", method, body, resp.StatusCode, wantStatus, errResp)
		}
		if wantCode != "" && errResp.Code != wantCode {
			t.Fatalf("%s %v: code %q want %q", method, body, errResp.Code, wantCode)
		}
	}

	check(http.MethodGet, nil, http.StatusMethodNotAllowed, "")
	check(http.MethodPost, SearchRequest{Corpus: "nope", Query: q.String()},
		http.StatusNotFound, CodeNoCorpus)
	check(http.MethodPost, SearchRequest{Query: ""}, http.StatusBadRequest, CodeBadRequest)
	check(http.MethodPost, SearchRequest{Query: "NOTDNA!"}, http.StatusBadRequest, CodeBadRequest)
	check(http.MethodPost, "{bad json", http.StatusBadRequest, CodeBadRequest)

	// A server with no corpora has no /search route at all.
	_, ts2 := newTestServer(t, alignsvc.Config{Workers: 2}, Config{})
	resp, err := http.Post(ts2.URL+"/search", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted /search: status %d", resp.StatusCode)
	}
}

// TestSearchJobOverHTTP drives the kind "search" job end to end through
// the HTTP API: submit, poll, fetch the hits result, and confirm it
// matches the synchronous endpoint.
// twoBaseSeq draws n bases from {a, b} only.
func twoBaseSeq(rng *rand.Rand, n int, a, b dna.Base) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = a
		if rng.IntN(2) == 1 {
			s[i] = b
		}
	}
	return s
}

func TestSearchJobOverHTTP(t *testing.T) {
	corpora, q := newServerCorpus(t, 600)
	// A second mount over A and T shares no k-mer with a query over G and
	// C, so that query has no candidates: the empty-result case.
	rng := rand.New(rand.NewPCG(5, 6))
	recs := make([]dna.Record, 20)
	for i := range recs {
		recs[i] = dna.Record{Name: fmt.Sprintf("at-%02d", i), Seq: twoBaseSeq(rng, 96, dna.A, dna.T)}
	}
	at, err := corpus.Build(t.TempDir(), recs, corpus.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpora.Add("at", at, corpus.NewSearcher(at, be, nil)); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2},
		Config{Corpora: corpora},
		func(jc *jobs.Config) {
			jc.Corpora = corpora
			jc.SearchChunkSize = 128
		})

	var snap jobs.Snapshot
	resp := doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: jobstore.KindSearch, Corpus: "ref", Query: q.String(), TopK: 4}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%+v)", resp.StatusCode, snap)
	}
	if snap.Kind != jobstore.KindSearch || snap.Corpus != "ref" || snap.TopK != 4 ||
		snap.Pairs != 600 || snap.Chunks != 5 {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	done := pollJobDone(t, ts.URL, snap.ID, 15*time.Second)
	if done.State != jobstore.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	var res SearchJobResultResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var sync SearchResponse
	doJSON(t, http.MethodPost, ts.URL+"/search", SearchRequest{Corpus: "ref", Query: q.String(), TopK: 4}, &sync)
	if !reflect.DeepEqual(res.Hits, sync.Hits) {
		t.Fatalf("job hits %v != /search hits %v", res.Hits, sync.Hits)
	}

	// A search without hits answers an empty list, never null.
	none := twoBaseSeq(rng, len(q), dna.G, dna.C).String()
	doJSON(t, http.MethodPost, ts.URL+"/search", SearchRequest{Corpus: "at", Query: none, TopK: 4}, &sync)
	if len(sync.Hits) != 0 || sync.Stats.Candidates != 0 {
		t.Fatalf("G/C query on the A/T corpus: %d hits of %d candidates; the empty-result check needs none",
			len(sync.Hits), sync.Stats.Candidates)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: jobstore.KindSearch, Corpus: "at", Query: none, TopK: 4}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty-result submit status %d", resp.StatusCode)
	}
	pollJobDone(t, ts.URL, snap.ID, 15*time.Second)
	var body map[string]json.RawMessage
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &body)
	if string(body["hits"]) != "[]" || body["scores"] != nil {
		t.Fatalf("empty-result body: hits %s scores %s", body["hits"], body["scores"])
	}

	// Malformed search submissions are typed 4xx.
	var errResp ErrorResponse
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: jobstore.KindSearch, Corpus: "ref", Query: q.String(),
			Preset: "unit"}, &errResp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("search+preset: status %d", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: "frobnicate", Query: q.String()}, &errResp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: jobstore.KindSearch, Corpus: "nope", Query: q.String()}, &errResp)
	if resp.StatusCode != http.StatusNotFound || errResp.Code != CodeNoCorpus {
		t.Fatalf("unknown corpus: status %d code %q", resp.StatusCode, errResp.Code)
	}
}

// TestSearchMaxEditsIgnored pins max_edits as an accepted, ignored field:
// 0 (the old default), 3 and -1 (the old "stage off") give byte-identical
// hits on /search and on a search job, for a query of at most 64 bases
// (where the retired edit-distance stage used to run) and one above. A
// top_k above the candidate count ranks every candidate, so a filter
// that max_edits still switched would show.
func TestSearchMaxEditsIgnored(t *testing.T) {
	corpora, q := newServerCorpus(t, 600)
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2},
		Config{Corpora: corpora},
		func(jc *jobs.Config) {
			jc.Corpora = corpora
			jc.SearchChunkSize = 128
		})
	for _, query := range []string{q.String(), q.String() + q[:24].String()} {
		var want []byte
		for _, maxEdits := range []int{0, 3, -1} {
			var sync SearchResponse
			resp := doJSON(t, http.MethodPost, ts.URL+"/search",
				SearchRequest{Query: query, TopK: 50, MaxEdits: maxEdits}, &sync)
			if resp.StatusCode != http.StatusOK || len(sync.Hits) == 0 {
				t.Fatalf("%d-base query, max_edits %d: /search status %d, %d hits",
					len(query), maxEdits, resp.StatusCode, len(sync.Hits))
			}
			var snap jobs.Snapshot
			resp = doJSON(t, http.MethodPost, ts.URL+"/jobs", fmt.Sprintf(
				`{"kind":"search","corpus":"ref","query":%q,"top_k":50,"max_edits":%d}`, query, maxEdits), &snap)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("max_edits %d: submit status %d", maxEdits, resp.StatusCode)
			}
			if done := pollJobDone(t, ts.URL, snap.ID, 15*time.Second); done.State != jobstore.StateDone {
				t.Fatalf("max_edits %d: job ended %s: %s", maxEdits, done.State, done.Error)
			}
			var res SearchJobResultResponse
			doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &res)
			syncHits, _ := json.Marshal(sync.Hits)
			jobHits, _ := json.Marshal(res.Hits)
			if want == nil {
				want = syncHits
			}
			if !bytes.Equal(syncHits, want) || !bytes.Equal(jobHits, want) {
				t.Fatalf("%d-base query, max_edits %d: /search %s, job %s, want %s",
					len(query), maxEdits, syncHits, jobHits, want)
			}
		}
	}
}

// TestSearchHugeTopK sends a client-chosen top_k of 2^62 to both search
// routes. The top-K heap is sized by the candidates it ranks, not by k,
// so each route answers every candidate ranked instead of panicking on
// the allocation (which killed the process from the job runner).
func TestSearchHugeTopK(t *testing.T) {
	corpora, q := newServerCorpus(t, 600)
	_, ts, _ := newJobsTestServer(t, alignsvc.Config{Workers: 2},
		Config{Corpora: corpora},
		func(jc *jobs.Config) {
			jc.Corpora = corpora
			jc.SearchChunkSize = 128
		})
	const huge = 1 << 62

	var sync SearchResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/search", SearchRequest{Query: q.String(), TopK: huge}, &sync)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search status %d", resp.StatusCode)
	}
	if sync.Stats.Candidates == 0 || len(sync.Hits) != sync.Stats.Candidates {
		t.Fatalf("/search ranked %d hits of %d candidates", len(sync.Hits), sync.Stats.Candidates)
	}

	var snap jobs.Snapshot
	resp = doJSON(t, http.MethodPost, ts.URL+"/jobs",
		JobSubmitRequest{Kind: jobstore.KindSearch, Corpus: "ref", Query: q.String(), TopK: huge}, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%+v)", resp.StatusCode, snap)
	}
	if done := pollJobDone(t, ts.URL, snap.ID, 15*time.Second); done.State != jobstore.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	var res SearchJobResultResponse
	if resp = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(res.Hits, sync.Hits) {
		t.Fatalf("job ranked %d hits, /search %d; want the same %d candidates",
			len(res.Hits), len(sync.Hits), sync.Stats.Candidates)
	}
}

// TestSearchTenantCellQuota proves /search charges the tenant cell
// bucket with the post-prefilter candidate cells: a scan-all search
// (prefilter disabled) blows a small bucket, while the default
// prefiltered search of the same query fits.
func TestSearchTenantCellQuota(t *testing.T) {
	corpora, q := newServerCorpus(t, 400)
	reg, err := tenant.NewRegistry(tenant.Config{
		Tenants: []tenant.TenantConfig{
			// Budget sized between the prefiltered cost (a few candidates
			// × 96 bases × 48 query bases) and the scan-all cost (400 × 96
			// × 48 ≈ 1.8M cells).
			{ID: "cells", Key: "sk-cells", Limits: tenant.Limits{CellsPerSec: 500_000}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, alignsvc.Config{Workers: 2},
		Config{Corpora: corpora, Tenants: reg})

	post := func(body SearchRequest) (int, ErrorResponse) {
		t.Helper()
		var errResp ErrorResponse
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/search",
			strings.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(APIKeyHeader, "sk-cells")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_ = json.NewDecoder(resp.Body).Decode(&errResp)
		return resp.StatusCode, errResp
	}

	// Scan-all: candidate cells ≈ the whole corpus, over budget.
	status, errResp := post(SearchRequest{Query: q.String(), MinKmerHits: -1, MaxEdits: -1})
	if status != http.StatusTooManyRequests || errResp.Reason != ReasonRateLimited {
		t.Fatalf("scan-all: status %d reason %q", status, errResp.Reason)
	}
	// Prefiltered: a handful of candidates, well under budget.
	if status, errResp = post(SearchRequest{Query: q.String()}); status != http.StatusOK {
		t.Fatalf("prefiltered: status %d (%+v)", status, errResp)
	}
}

// newServiceSearchServer starts a server whose corpus c, mounted as "ref",
// scores its candidates through the server's own service, as swaserver
// mounts it.
func newServiceSearchServer(t *testing.T, scfg alignsvc.Config, cfg Config, c *corpus.Corpus) (*alignsvc.Service, *httptest.Server) {
	t.Helper()
	svc := alignsvc.New(scfg)
	t.Cleanup(svc.Close)
	cfg.Service = svc
	cfg.Corpora = corpus.NewRegistry()
	if err := cfg.Corpora.Add("ref", c, corpus.NewSearcher(c, svc, nil)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// TestSearchFallsBackThroughService mounts a corpus of 100–156-base
// sequences behind a bitwise-sim service. The simulated kernels reject a
// batch whose texts differ in length, so the service answers each
// candidate batch from the scalar reference: /search answers 200 with the
// hits of a brute-force swa.Score ranking, and the service counts the
// fallbacks.
func TestSearchFallsBackThroughService(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 156))
	q := dna.RandSeq(rng, 64)
	recs := make([]dna.Record, 300)
	for i := range recs {
		recs[i] = dna.Record{Name: fmt.Sprintf("mixed-%03d", i), Seq: dna.RandSeq(rng, 100+rng.IntN(57))}
	}
	c, err := corpus.Build(t.TempDir(), recs, corpus.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServiceSearchServer(t, alignsvc.Config{Backend: alignsvc.BackendBitwiseSim}, Config{}, c)

	var got SearchResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/search",
		SearchRequest{Query: q.String(), TopK: 10, MinKmerHits: -1}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search status %d", resp.StatusCode)
	}
	brute := make([]corpus.Hit, len(recs))
	for i, r := range recs {
		brute[i] = corpus.Hit{ID: i, Name: r.Name, Score: swa.Score(q, r.Seq, swa.PaperScoring)}
	}
	if want := corpus.RankHits(brute, 10); !reflect.DeepEqual(got.Hits, want) {
		t.Fatalf("/search hits %v, brute force %v", got.Hits, want)
	}
	var statsz StatszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &statsz)
	if statsz.Service.Fallbacks == 0 || statsz.Service.Backend != alignsvc.BackendBitwiseSim {
		t.Fatalf("service stats %+v, want bitwise-sim with fallbacks", statsz.Service)
	}
	if inv := statsz.Search.Corpora; len(inv) != 1 || inv[0].Backend != alignsvc.BackendBitwiseSim {
		t.Fatalf("corpus inventory %+v, want the service's backend", inv)
	}
}

// peakBackend records the most AlignBatch calls in progress at once.
type peakBackend struct {
	alignsvc.Backend
	cur, peak *atomic.Int64
}

func (b peakBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	n := b.cur.Add(1)
	defer b.cur.Add(-1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// TestSearchSharesEngineSlots pins that /search takes the engine slots
// /align takes: with Workers 1 and a backend that holds every call for
// 20 ms, concurrent /align batches and /search queries never score at
// once, and every answer is exact.
func TestSearchSharesEngineSlots(t *testing.T) {
	corpora, q := newServerCorpus(t, 200)
	h, _ := corpora.Get("ref")
	var cur, peak atomic.Int64
	svc, ts := newServiceSearchServer(t, alignsvc.Config{
		Backend: alignsvc.BackendStriped,
		Workers: 1,
		Wrap: func(be alignsvc.Backend) alignsvc.Backend {
			return peakBackend{Backend: slowBackend{Backend: be, hold: 20 * time.Millisecond}, cur: &cur, peak: &peak}
		},
	}, Config{MaxInFlight: 8}, h.Corpus) // admit all 8 requests at once on any host
	want, err := h.Searcher.Search(context.Background(), q, corpus.Params{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantHits, _ := json.Marshal(want.Hits)
	pairs, wantScores := testPairs(8, 16, 32, 5)
	alignBody := AlignRequest{Pairs: pairsJSON(pairs)}
	searchBody := mustJSON(t, SearchRequest{Query: q.String(), TopK: 5})

	const rounds = 4
	var wg sync.WaitGroup
	for range rounds {
		wg.Add(2)
		go func() {
			defer wg.Done()
			status, raw, err := tryPostAlign(ts.URL, alignBody)
			var res AlignResponse
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(raw, &res)
			}
			if err != nil || status != http.StatusOK || !reflect.DeepEqual(res.Scores, wantScores) {
				t.Errorf("/align: status %d, err %v, body %s", status, err, raw)
			}
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(searchBody))
			if err != nil {
				t.Errorf("/search: %v", err)
				return
			}
			defer resp.Body.Close()
			var res SearchResponse
			err = json.NewDecoder(resp.Body).Decode(&res)
			hits, _ := json.Marshal(res.Hits)
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(hits, wantHits) {
				t.Errorf("/search: status %d, err %v, hits %s, want %s", resp.StatusCode, err, hits, wantHits)
			}
		}()
	}
	wg.Wait()
	if st := svc.Stats(); st.Batches < 2*rounds {
		t.Fatalf("service scored %d batches, want at least %d", st.Batches, 2*rounds)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrent backend calls = %d, want Workers = 1", p)
	}
}
