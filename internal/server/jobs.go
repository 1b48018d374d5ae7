// Async job endpoints: the durable counterpart of POST /align and POST
// /search. A job submitted to POST /jobs is persisted to the WAL-backed job
// store before the 202 goes out, executed chunk by chunk in the background,
// and survives crashes and restarts — clients poll GET /jobs/{id}, stream
// progress from GET /jobs/{id}/events (Server-Sent Events), and fetch scores
// or hits from GET /jobs/{id}/result when the job reaches "done". Every
// route is tenant-scoped: jobs belong to the tenant that submitted them, and
// another tenant's credentials see 404, not 403 — existence is
// tenant-private. The endpoints are mounted only when Config.Jobs is set.

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// Job-specific error codes (alongside the Code* constants in server.go).
const (
	CodeNotFound     = "not_found"      // unknown job ID
	CodeNotReady     = "not_ready"      // result requested before the job finished
	CodeJobFailed    = "job_failed"     // result requested for a failed job
	CodeJobCancelled = "job_cancelled"  // result requested for a cancelled job
	CodeConflict     = "state_conflict" // operation illegal in the job's current state
)

// JobSubmitRequest is the POST /jobs body. With Kind empty (alignment)
// either Pairs or Preset must be set (same shapes and caps as /align).
// With Kind "search" the Corpus/Query/TopK/MinKmerHits fields describe a
// corpus search (same semantics as POST /search; a max_edits key is
// ignored like any unknown key) and Pairs/Preset must be absent.
// IdempotencyKey deduplicates re-sent submissions per tenant; the
// Idempotency-Key header takes precedence when both are present.
type JobSubmitRequest struct {
	Pairs          []PairJSON `json:"pairs,omitempty"`
	Preset         string     `json:"preset,omitempty"`
	N              int        `json:"n,omitempty"`
	IdempotencyKey string     `json:"idempotency_key,omitempty"`

	// Search-job fields (Kind "search").
	Kind        string `json:"kind,omitempty"`
	Corpus      string `json:"corpus,omitempty"`
	Query       string `json:"query,omitempty"`
	TopK        int    `json:"top_k,omitempty"`
	MinKmerHits int    `json:"min_kmer_hits,omitempty"`
}

// JobResultResponse is the GET /jobs/{id}/result success body.
type JobResultResponse struct {
	Job    jobs.Snapshot `json:"job"`
	Scores []int         `json:"scores"`
}

// SearchJobResultResponse is the GET /jobs/{id}/result success body for
// a search job: the merged ranked hits instead of raw scores.
type SearchJobResultResponse struct {
	Job  jobs.Snapshot `json:"job"`
	Hits []corpus.Hit  `json:"hits"`
}

// jobSubmission is the parsed POST /jobs body.
type jobSubmission struct {
	key    string
	req    jobs.Request
	handle *corpus.Handle // the searched corpus, for search jobs
}

// handleJobs serves POST /jobs: resolve the tenant, validate, charge the
// tenant's rate buckets and job quota, persist, enqueue, answer 202 with
// the job snapshot (or 200 when an idempotency key matched an existing
// job — the Location header points at it either way).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	t, end := s.enter(w, r)
	if t == nil {
		return
	}
	defer end()
	sub, status, code, err := s.parseJobRequest(w, r)
	if err != nil {
		s.rejected.Add(1)
		s.writeError(w, r, status, code, err.Error())
		return
	}
	// The same token buckets as /align guard the async door: a tenant
	// cannot dodge its rate limits by submitting jobs instead. Search
	// jobs charge their post-prefilter candidate cells, like /search.
	if !s.charge(w, r, t, func() int64 {
		if q := sub.req.Search; q != nil {
			cand := sub.handle.Corpus.Prefilter(q.Query, q.Params)
			return candidateCells(sub.handle.Corpus, len(q.Query), cand)
		}
		return alignsvc.Cells(sub.req.Pairs)
	}) {
		return
	}
	snap, created, err := s.cfg.Jobs.SubmitFor(sub.req, sub.key, t.ID)
	switch {
	case errors.Is(err, jobs.ErrQuota):
		s.sched.NoteQuotaRejected(t.ID)
		s.tenantOutcome(t.ID, "quota_exceeded")
		// A quota slot frees when one of the tenant's own jobs finishes —
		// the queue drain rate is the best available proxy for that.
		setRetryAfter(w, s.sched.RetryAfterHint(s.cfg.RetryAfter))
		s.writeErrorReason(w, r, http.StatusTooManyRequests, CodeQuotaExceeded,
			ReasonQuotaExceeded, err.Error())
		return
	case errors.Is(err, jobs.ErrQueueFull):
		s.shed.Add(1)
		s.tenantOutcome(t.ID, "shed")
		setRetryAfter(w, s.sched.RetryAfterHint(s.cfg.RetryAfter))
		s.writeErrorReason(w, r, http.StatusTooManyRequests, CodeShed, ReasonQueueFull,
			err.Error())
		return
	case errors.Is(err, jobs.ErrDraining):
		s.refuseDraining(w, r)
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	if created {
		writeJSON(w, http.StatusAccepted, snap)
	} else {
		writeJSON(w, http.StatusOK, snap) // idempotency-key dedup hit
	}
}

// handleJob serves the per-job routes: GET /jobs/{id}, GET
// /jobs/{id}/result, GET /jobs/{id}/events (SSE) and DELETE /jobs/{id}
// (cancel). All of them are scoped to the resolved tenant.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "result" && sub != "events") {
		s.writeError(w, r, http.StatusNotFound, CodeNotFound, "no such route")
		return
	}
	t := s.resolveTenant(w, r)
	if t == nil {
		return
	}
	switch {
	case sub == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, r, id, t.ID)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id, t.ID)
	case sub == "" && r.Method == http.MethodGet:
		snap, err := s.cfg.Jobs.GetFor(id, t.ID)
		if err != nil {
			s.writeJobError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	case sub == "" && r.Method == http.MethodDelete:
		snap, err := s.cfg.Jobs.CancelFor(id, t.ID)
		if err != nil {
			s.writeJobError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeBadRequest, "GET or DELETE only")
	}
}

// handleJobResult answers with the assembled scores of a done alignment
// job or the ranked hits of a done search job, or a typed error explaining
// why there are none (yet, or ever).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id, tenantID string) {
	res, err := s.cfg.Jobs.ResultFor(id, tenantID)
	switch {
	case err != nil:
		s.writeJobError(w, r, err)
	case res.Job.State == jobstore.StateFailed:
		s.writeError(w, r, http.StatusConflict, CodeJobFailed,
			fmt.Sprintf("job %s failed: %s", id, res.Job.Error))
	case res.Job.State == jobstore.StateCancelled:
		s.writeError(w, r, http.StatusConflict, CodeJobCancelled,
			fmt.Sprintf("job %s was cancelled", id))
	case res.Job.Kind == jobstore.KindSearch:
		if res.Hits == nil {
			res.Hits = []corpus.Hit{} // JSON renders hits as a list, never null
		}
		writeJSON(w, http.StatusOK, SearchJobResultResponse{Job: res.Job, Hits: res.Hits})
	default:
		writeJSON(w, http.StatusOK, JobResultResponse{Job: res.Job, Scores: res.Scores})
	}
}

// handleJobEvents streams a job's progress feed as Server-Sent Events: a
// snapshot of the current state on subscribe (so a late client replays the
// last checkpoint), then one event per state transition and chunk
// checkpoint, ending with the terminal state (or a drain event on manager
// shutdown). The subscription rides a bounded per-subscriber ring that
// drops oldest on a slow reader — the job runner never blocks on a stalled
// client — and is released on disconnect.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id, tenantID string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal,
			"response writer cannot stream")
		return
	}
	sub, err := s.cfg.Jobs.EventsFor(id, tenantID)
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // tell proxies not to buffer
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	defer obs.FromContext(r.Context()).StartSpan("job_events." + id)()
	for {
		ev, err := sub.Next(r.Context())
		if err != nil {
			// ErrSubClosed (feed finished, drain) or the client went away:
			// either way the stream is over.
			return
		}
		payload, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
		flusher.Flush()
	}
}

// writeJobError maps manager errors onto HTTP statuses + typed codes.
func (s *Server) writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, r, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, jobs.ErrNotReady):
		s.writeError(w, r, http.StatusConflict, CodeNotReady, err.Error())
	default:
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// parseJobRequest decodes and bounds the POST /jobs body, reusing the
// /align pair and preset validation (alignment kind) or the /search
// query validation (search kind) so every entry point enforces
// identical caps.
func (s *Server) parseJobRequest(w http.ResponseWriter, r *http.Request) (sub jobSubmission, status int, code string, err error) {
	var req JobSubmitRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return sub, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return sub, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
	sub.key = req.IdempotencyKey
	if h := r.Header.Get("Idempotency-Key"); h != "" {
		sub.key = h
	}
	if strings.ContainsRune(sub.key, 0) {
		// NUL is the store's tenant-namespacing separator: a key like
		// "tenantA\x00k" would collide with tenant A's namespaced key and
		// clobber its idempotent dedup.
		return sub, http.StatusBadRequest, CodeBadRequest,
			errors.New("idempotency key must not contain NUL bytes")
	}

	switch req.Kind {
	case jobstore.KindSearch:
		if s.cfg.Corpora == nil {
			return sub, http.StatusBadRequest, CodeBadRequest,
				errors.New("search jobs are not enabled (no corpora mounted)")
		}
		if len(req.Pairs) > 0 || req.Preset != "" {
			return sub, http.StatusBadRequest, CodeBadRequest,
				errors.New("search jobs take a query, not pairs or preset")
		}
		h, err := s.corpusHandle(req.Corpus)
		if err != nil {
			return sub, http.StatusNotFound, CodeNoCorpus, err
		}
		q, err := s.parseSearchQuery(req.Query)
		if err != nil {
			return sub, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("query: %w", err)
		}
		sub.handle = h
		sub.req.Search = &jobs.Search{Corpus: h.Name, Query: q,
			Params: corpus.Params{TopK: req.TopK, MinKmerHits: req.MinKmerHits}}
		return sub, 0, "", nil
	case "":
		// Alignment, below.
	default:
		return sub, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown job kind %q", req.Kind)
	}

	switch {
	case len(req.Pairs) > 0 && req.Preset != "":
		return sub, http.StatusBadRequest, CodeBadRequest,
			errors.New("pairs and preset are mutually exclusive")
	case req.Preset != "":
		sub.req.Pairs, status, code, err = s.presetPairs(AlignRequest{Preset: req.Preset, N: req.N})
	case len(req.Pairs) > 0:
		sub.req.Pairs, status, code, err = s.parsePairs(req.Pairs)
	default:
		return sub, http.StatusBadRequest, CodeBadRequest,
			errors.New("request needs pairs or preset")
	}
	if err != nil {
		return sub, status, code, err
	}
	return sub, 0, "", nil
}
