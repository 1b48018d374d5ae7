// HTTP-level tests of the corpus-search layer: POST /search request
// validation and exactness against the in-process Searcher, the search
// job kind on POST /jobs with its hits result body, the /statsz search
// section, and prefilter-cell quota accounting.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/pipeline"
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
func TestSearchJobOverHTTP(t *testing.T) {
	corpora, q := newServerCorpus(t, 600)
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
	doJSON(t, http.MethodPost, ts.URL+"/search", SearchRequest{Query: q.String(), TopK: 4}, &sync)
	if !reflect.DeepEqual(res.Hits, sync.Hits) {
		t.Fatalf("job hits %v != /search hits %v", res.Hits, sync.Hits)
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
