// Corpus-search endpoints: POST /search answers a ranked top-K query
// synchronously (small corpora, interactive use), while POST /jobs with
// kind "search" runs the same query as a durable chunk-checkpointed job
// (see jobs.go). Both charge the tenant's cell bucket with the cells of
// the k-mer prefilter's candidates — the work the query will actually
// buy — so a selective prefilter makes searches proportionally cheaper
// against quota, exactly like the DP-cell accounting on /align. The
// endpoints are mounted only when Config.Corpora is set.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/corpus"
	"repro/internal/dna"
)

// CodeNoCorpus rejects a search naming an unmounted corpus (404: the
// resource addressed by the request does not exist).
const CodeNoCorpus = "no_corpus"

// SearchRequest is the POST /search body. Corpus may be omitted when
// exactly one corpus is mounted. TopK and MinKmerHits follow
// corpus.Params semantics (zero = default, negative MinKmerHits = scan
// all). MaxEdits is accepted and ignored, as in corpus.Params.
type SearchRequest struct {
	Corpus      string `json:"corpus,omitempty"`
	Query       string `json:"query"`
	TopK        int    `json:"top_k,omitempty"`
	MinKmerHits int    `json:"min_kmer_hits,omitempty"`
	MaxEdits    int    `json:"max_edits,omitempty"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
}

// SearchResponse is the POST /search success body: the ranked hits plus
// the funnel statistics of the query.
type SearchResponse struct {
	Corpus string       `json:"corpus"`
	Hits   []corpus.Hit `json:"hits"`
	Stats  corpus.Stats `json:"stats"`
}

// SearchCorpusInfo is one mounted corpus in the /statsz inventory.
type SearchCorpusInfo struct {
	Name        string `json:"name"`
	Seqs        int    `json:"seqs"`
	K           int    `json:"k"`
	TotalBases  int64  `json:"total_bases"`
	Fingerprint string `json:"fingerprint"`
	Backend     string `json:"backend"`
}

// SearchStats is the /statsz search section: the synchronous /search
// counters plus the mounted-corpus inventory.
type SearchStats struct {
	Requests    int64              `json:"requests"`     // /search requests received
	Completed   int64              `json:"completed"`    // answered 200 with hits
	Candidates  int64              `json:"candidates"`   // sequences that reached SW scoring
	ScoredCells int64              `json:"scored_cells"` // DP cells scored by /search
	Corpora     []SearchCorpusInfo `json:"corpora"`
}

// searchStats assembles the /statsz search section.
func (s *Server) searchStats() *SearchStats {
	st := &SearchStats{
		Requests:    s.searchRequests.Load(),
		Completed:   s.searchCompleted.Load(),
		Candidates:  s.searchCandidates.Load(),
		ScoredCells: s.searchCells.Load(),
	}
	for _, name := range s.cfg.Corpora.Names() {
		h, ok := s.cfg.Corpora.Get(name)
		if !ok {
			continue
		}
		st.Corpora = append(st.Corpora, SearchCorpusInfo{
			Name:        h.Name,
			Seqs:        h.Corpus.Len(),
			K:           h.Corpus.K(),
			TotalBases:  h.Corpus.TotalBases(),
			Fingerprint: h.Corpus.Fingerprint(),
			Backend:     h.Searcher.Backend(),
		})
	}
	return st
}

// corpusHandle resolves a request's corpus name (or the sole mounted
// corpus when the name is empty) to its handle.
func (s *Server) corpusHandle(name string) (*corpus.Handle, error) {
	reg := s.cfg.Corpora
	if name == "" {
		if names := reg.Names(); len(names) == 1 {
			name = names[0]
		} else {
			return nil, fmt.Errorf("corpus is required (mounted: %s)", strings.Join(reg.Names(), ", "))
		}
	}
	h, ok := reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown corpus %q (mounted: %s)", name, strings.Join(reg.Names(), ", "))
	}
	return h, nil
}

// parseSearchQuery validates and converts a query string under the same
// sequence-length cap as /align.
func (s *Server) parseSearchQuery(raw string) (dna.Seq, error) {
	if raw == "" {
		return nil, errors.New("query is required")
	}
	if len(raw) > s.cfg.MaxSeqLen {
		return nil, fmt.Errorf("query length %d exceeds the %d-base cap", len(raw), s.cfg.MaxSeqLen)
	}
	return dna.Parse(raw)
}

// candidateCells is the cost of a query: query length × the total length
// of the prefilter's candidate sequences — the DP cells the search will
// actually score, charged to the tenant's cell bucket.
func candidateCells(c *corpus.Corpus, qLen int, cand corpus.Candidates) int64 {
	var total int64
	for _, id := range cand.IDs {
		total += int64(c.SeqLen(int(id)))
	}
	return total * int64(qLen)
}

// handleSearch serves POST /search: resolve the tenant, validate, run
// the prefilter, charge the tenant's cell bucket with the candidate
// cells, take an admission slot, score, answer hits + stats.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	s.searchRequests.Add(1)
	t, end := s.enter(w, r)
	if t == nil {
		return
	}
	defer end()

	var req SearchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.rejected.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	h, err := s.corpusHandle(req.Corpus)
	if err != nil {
		s.rejected.Add(1)
		s.writeError(w, r, http.StatusNotFound, CodeNoCorpus, err.Error())
		return
	}
	q, err := s.parseSearchQuery(req.Query)
	if err != nil {
		s.rejected.Add(1)
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "query: "+err.Error())
		return
	}
	p := corpus.Params{TopK: req.TopK, MinKmerHits: req.MinKmerHits}

	// One request token, then the candidate cells. The prefilter is pure
	// and cheap (one posting-list walk per query k-mer), so running it
	// before admission is safe; the expensive SW stage is what the
	// admission slot and the cell bucket actually guard. The same
	// candidates are then scored, so the prefilter runs once per request.
	var cand corpus.Candidates
	if !s.charge(w, r, t, func() int64 {
		cand = h.Corpus.Prefilter(q, p)
		return candidateCells(h.Corpus, len(q), cand)
	}) {
		return
	}
	release, ok := s.admit(w, r, t)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	res, err := h.Searcher.SearchCandidates(ctx, q, p, cand)
	if err != nil {
		s.writeAlignError(w, r, err)
		return
	}
	s.searchCompleted.Add(1)
	s.searchCandidates.Add(int64(res.Stats.Candidates))
	s.searchCells.Add(res.Stats.Cells)
	writeJSON(w, http.StatusOK, SearchResponse{Corpus: h.Name, Hits: res.Hits, Stats: res.Stats})
}
