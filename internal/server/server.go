// Package server is the network face of the alignment service: a
// long-running HTTP server that wraps alignsvc.Service with the admission
// control a production deployment needs. Requests are bounded three ways —
// body size (http.MaxBytesReader), batch shape (max pairs, max sequence
// length) and concurrency (a semaphore-bounded in-flight limit with a
// bounded wait queue that sheds load with 429 + Retry-After) — and every
// request carries a deadline that flows through context.Context into the
// pipeline and kernel-block plumbing, surfacing as 504 on expiry. /healthz,
// /readyz and /statsz expose liveness, drain state and the JSON counters;
// /metricsz exposes the obs registry in Prometheus text format;
// Server.BeginDrain + Drain implement graceful shutdown.
//
// Every request is assigned a trace ID at the edge (honouring an incoming
// X-Trace-Id header), which propagates through context into the service and
// pipeline, is echoed in the X-Trace-Id response header, and is stamped into
// error bodies. Completed traces land in a bounded ring served by /tracez on
// the opt-in ops handler (OpsHandler), which also mounts net/http/pprof.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Config tunes the server. Service is required; every other field has a
// serving-friendly default.
type Config struct {
	// Service executes the batches. The server does not own it: callers
	// Close it after Drain.
	Service *alignsvc.Service
	// MaxInFlight bounds how many align requests execute concurrently
	// (default 2×GOMAXPROCS). MaxQueued bounds how many more may wait for a
	// slot (default MaxInFlight); beyond that the server sheds load with
	// 429 + Retry-After instead of queueing unboundedly.
	MaxInFlight, MaxQueued int
	// MaxBodyBytes caps the request body via http.MaxBytesReader
	// (default 8 MiB).
	MaxBodyBytes int64
	// MaxPairs and MaxSeqLen cap the batch shape (defaults 4096 pairs,
	// 16384 bases). Oversized requests get 413.
	MaxPairs, MaxSeqLen int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout caps what a client may ask for (defaults 30s, 2m).
	DefaultTimeout, MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Metrics receives the server's request/admission metrics (default:
	// obs.Default()). Point the service at the same registry so one
	// /metricsz scrape covers the whole stack.
	Metrics *obs.Registry
	// TraceRing, when set, replaces the 64-trace ring the server would
	// create — point the job manager's Config.Traces at the same ring so
	// one /tracez covers requests and background job runs alike.
	TraceRing *obs.TraceRing
	// Jobs, when set, mounts the async job API: POST /jobs (202 + job id,
	// Idempotency-Key honoured), GET /jobs/{id}, GET /jobs/{id}/result and
	// DELETE /jobs/{id}. BeginDrain/Drain then also checkpoint-and-requeue
	// in-flight jobs. The server does not own the manager: callers Close it
	// (after Drain) themselves.
	Jobs *jobs.Manager
	// Tenants, when set, turns on multi-tenant admission: API-key/header
	// resolution, per-tenant token-bucket rate limits (requests/sec and DP
	// cells/sec), per-tenant concurrency caps and queue bounds, and
	// weighted-fair (deficit round-robin) slot scheduling. Nil falls back
	// to the anonymous-only registry, which reproduces untenanted
	// admission exactly: one weight-1 queue bounded by MaxQueued.
	Tenants *tenant.Registry
	// Corpora, when set, mounts the corpus-search API: POST /search for
	// synchronous ranked top-K queries against the mounted reference
	// corpora, plus kind "search" on POST /jobs (when Jobs is also set)
	// for durable chunk-checkpointed searches. Adds a search section to
	// /statsz with per-corpus inventory.
	Corpora *corpus.Registry
	// Cluster, when set, routes non-forwarded align batches through the
	// coordinator-free peer layer (consistent-hash ownership with local
	// fallback), enforces the X-SWA-Forwarded hop guard, and adds a cluster
	// section to /statsz. A draining server fails /readyz, which is how its
	// peers learn to route around it. The server does not own the cluster:
	// callers Close it themselves.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = c.MaxInFlight
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4096
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 16384
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// Error codes returned in ErrorResponse.Code — the machine-readable half of
// every non-200 answer.
const (
	CodeBadRequest = "bad_request" // malformed JSON, bad bases, bad shape
	CodeTooLarge   = "too_large"   // body, pairs or sequence length over the cap
	CodeShed       = "shed"        // admission queue full, retry later
	CodeDraining   = "draining"    // server is shutting down
	CodeDeadline   = "deadline"    // per-request deadline expired
	CodeCanceled   = "canceled"    // client went away mid-request
	CodeInternal   = "internal"    // every tier exhausted (should not happen)

	// CodeForwardLoop rejects a forwarded request whose X-SWA-Forwarded
	// chain is longer than one hop or already contains this node: forwards
	// are one-hop by construction, so a longer chain means a stale ring
	// tried to bounce the batch around the cluster.
	CodeForwardLoop = "forward_loop"

	// CodeBadTenant rejects credentials that resolve to no tenant: an
	// unknown API key, an unknown or key-protected tenant named by bare
	// header, or a key/header pair naming different tenants (401).
	CodeBadTenant = "bad_tenant"
	// CodeRateLimited rejects a request that outran the tenant's
	// requests/sec or cells/sec token bucket (429; Retry-After is the
	// bucket's refill time).
	CodeRateLimited = "rate_limited"
	// CodeQuotaExceeded rejects a job submission beyond the tenant's
	// running-job cap (429; retry after one of the tenant's jobs ends).
	CodeQuotaExceeded = "quota_exceeded"
)

// Machine-readable 429 reasons (ErrorResponse.Reason): clients distinguish
// "slow down" (rate_limited), "finish what you started" (quota_exceeded)
// and "everyone is queueing" (queue_full) without parsing prose.
const (
	ReasonRateLimited   = "rate_limited"
	ReasonQuotaExceeded = "quota_exceeded"
	ReasonQueueFull     = "queue_full"
)

// Tenant resolution headers: the API key is the credential; the bare
// tenant header works alone only for keyless (trusted-network) tenants
// and must agree with the key when both are sent.
const (
	APIKeyHeader = "X-SWA-API-Key"
	TenantHeader = "X-SWA-Tenant"
)

// AlignRequest is the /align request body. Either Pairs or Preset must be
// set. TimeoutMS overrides the server's default deadline (capped at
// MaxTimeout).
type AlignRequest struct {
	Pairs []PairJSON `json:"pairs,omitempty"`
	// Preset generates the batch server-side from a named workload.Spec
	// ("unit", "quick", "paper"); N selects the text length from the
	// spec's sweep (default: the first entry).
	Preset    string `json:"preset,omitempty"`
	N         int    `json:"n,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// PairJSON is one (pattern, text) pair as ACGT strings.
type PairJSON struct {
	X string `json:"x"`
	Y string `json:"y"`
}

// AlignResponse is the /align success body.
type AlignResponse struct {
	Scores []int           `json:"scores"`
	Report alignsvc.Report `json:"report"`
}

// ErrorResponse is the body of every non-200 answer. TraceID lets a client
// correlate the failure with /tracez and server logs. Reason is set on 429
// responses to say which limit fired (rate_limited, quota_exceeded,
// queue_full).
type ErrorResponse struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	Reason  string `json:"reason,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// ServerStats counts what the admission layer did, for /statsz.
type ServerStats struct {
	Requests    int64 `json:"requests"`     // align requests received
	Completed   int64 `json:"completed"`    // answered 200 with scores
	Shed        int64 `json:"shed"`         // 429: queue full
	RateLimited int64 `json:"rate_limited"` // 429: tenant token bucket empty
	Rejected    int64 `json:"rejected"`     // 4xx: malformed or oversized
	BadTenant   int64 `json:"bad_tenant"`   // 401: credentials resolved to no tenant
	Deadlines   int64 `json:"deadlines"`    // 504: deadline expired
	Draining    int64 `json:"draining"`     // 503: refused during drain
	InFlight    int64 `json:"in_flight"`    // executing right now
	Queued      int64 `json:"queued"`       // waiting for a slot right now
	MaxQueued   int64 `json:"max_queued"`   // the default per-tenant queue bound
}

// StatszResponse is the /statsz body: admission counters plus the service's
// own counters, the score-cache counters
// when a cache is configured, and the job manager's counters when the async
// job API is mounted.
type StatszResponse struct {
	Server  ServerStats             `json:"server"`
	Service alignsvc.Stats          `json:"service"`
	Cache   *aligncache.Stats       `json:"cache,omitempty"`
	Jobs    *jobs.Stats             `json:"jobs,omitempty"`
	Cluster *cluster.Stats          `json:"cluster,omitempty"`
	Search  *SearchStats            `json:"search,omitempty"`
	Tenants map[string]tenant.Stats `json:"tenants,omitempty"`
}

// Server is the HTTP alignment server. Create with New, expose Handler()
// behind an http.Server, and BeginDrain + Drain on shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	reg    *tenant.Registry
	sched  *tenant.Scheduler
	obs    *obs.Registry
	traces *obs.TraceRing

	draining  chan struct{}
	drainOnce func()

	requests, completed, shed, rejected atomic.Int64
	rateLimited, badTenant              atomic.Int64
	deadlines, drainRefusals            atomic.Int64

	searchRequests, searchCompleted atomic.Int64
	searchCandidates, searchCells   atomic.Int64
}

// New builds the server around an existing service.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Service == nil {
		return nil, errors.New("server: Config.Service is required")
	}
	traces := cfg.TraceRing
	if traces == nil {
		traces = obs.NewTraceRing(64)
	}
	reg := cfg.Tenants
	if reg == nil {
		reg = tenant.Default()
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		reg: reg,
		sched: tenant.NewScheduler(tenant.SchedulerConfig{
			Capacity:     cfg.MaxInFlight,
			DefaultQueue: cfg.MaxQueued,
			Registry:     reg,
		}),
		obs:      cfg.Metrics,
		traces:   traces,
		draining: make(chan struct{}),
	}
	var once atomic.Bool
	s.drainOnce = func() {
		if once.CompareAndSwap(false, true) {
			close(s.draining)
			s.sched.BeginDrain()
		}
	}
	s.obs.Help("http_requests_total", "HTTP requests by route and status code.")
	s.obs.Help("http_request_seconds", "HTTP request wall time by route.")
	s.obs.Help("server_admission_total", "Align admission decisions by outcome.")
	s.obs.Help("server_inflight", "Align requests executing right now.")
	s.obs.Help("server_queued", "Align requests waiting for an execution slot.")
	s.obs.Help("tenant_requests_total", "Align admission outcomes by tenant.")
	s.obs.Help("tenant_admission_wait_seconds", "Admission queue wait by tenant.")
	s.obs.Help("tenant_inflight", "Execution slots held right now, by tenant.")
	s.obs.Help("tenant_queued", "Admission waiters right now, by tenant.")
	s.mux.Handle("/align", s.instrument("align", s.handleAlign))
	if cfg.Jobs != nil {
		s.mux.Handle("/jobs", s.instrument("jobs", s.handleJobs))
		s.mux.Handle("/jobs/", s.instrument("jobs_id", s.handleJob))
	}
	if cfg.Corpora != nil {
		s.mux.Handle("/search", s.instrument("search", s.handleSearch))
	}
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.Handle("/statsz", s.instrument("statsz", s.handleStatsz))
	s.mux.Handle("/metricsz", s.instrument("metricsz", s.handleMetricsz))
	return s, nil
}

// statusWriter captures the status code a handler wrote, for the per-route
// request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE responses stream: embedding
// promotes only the ResponseWriter methods, not the Flusher the job-events
// handler type-asserts for.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route with the edge concerns: a trace (new, or adopted
// from X-Trace-Id) installed into the request context and echoed in the
// response header, plus per-route request/latency metrics. Traces that
// accumulated spans are kept for /tracez.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	reqs := func(code int) *obs.Counter {
		return s.obs.Counter(obs.L("http_requests_total",
			"route", route, "code", strconv.Itoa(code)))
	}
	lat := s.obs.Histogram(obs.L("http_request_seconds", "route", route), obs.LatencyBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get("X-Trace-Id"))
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		w.Header().Set("X-Trace-Id", tr.ID())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		lat.Observe(time.Since(begin).Seconds())
		reqs(sw.status).Inc()
		if len(tr.Spans()) > 0 {
			s.traces.Add(tr)
		}
	})
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz to 503 and makes new /align and /jobs requests
// fail fast with 503 "draining"; in-flight requests keep running, and job
// runners stop at their next chunk boundary, checkpointing and requeueing
// their jobs (the WAL resumes them on the next start). Safe to call more
// than once.
func (s *Server) BeginDrain() {
	s.drainOnce()
	if s.cfg.Jobs != nil {
		s.cfg.Jobs.BeginDrain()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain blocks until every in-flight align request has finished and every
// job runner has checkpointed and parked its job, or ctx expires (the
// grace period). It implies BeginDrain.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if s.sched.InFlight() == 0 && s.sched.Queued() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d request(s) still in flight: %w",
				s.sched.InFlight()+s.sched.Queued(), ctx.Err())
		case <-t.C:
		}
	}
	if s.cfg.Jobs != nil {
		return s.cfg.Jobs.Drain(ctx)
	}
	return nil
}

// Stats snapshots the admission counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.requests.Load(),
		Completed:   s.completed.Load(),
		Shed:        s.shed.Load(),
		RateLimited: s.rateLimited.Load(),
		Rejected:    s.rejected.Load(),
		BadTenant:   s.badTenant.Load(),
		Deadlines:   s.deadlines.Load(),
		Draining:    s.drainRefusals.Load(),
		InFlight:    int64(s.sched.InFlight()),
		Queued:      int64(s.sched.Queued()),
		MaxQueued:   int64(s.cfg.MaxQueued),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"reason":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"ready":true}`)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := StatszResponse{
		Server:  s.Stats(),
		Service: s.cfg.Service.Stats(),
		Cache:   s.cfg.Service.CacheStats(),
	}
	if s.cfg.Jobs != nil {
		js := s.cfg.Jobs.Stats()
		resp.Jobs = &js
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		resp.Cluster = &cs
	}
	if s.cfg.Corpora != nil {
		resp.Search = s.searchStats()
	}
	if ts := s.sched.Snapshot(); len(ts) > 0 {
		resp.Tenants = ts
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetricsz renders the obs registry as Prometheus text (exposition
// format 0.0.4). The inflight/queued gauges — global and per-tenant — are
// refreshed at scrape time so they are exact, not sampled.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.obs.Gauge("server_inflight").Set(float64(s.sched.InFlight()))
	s.obs.Gauge("server_queued").Set(float64(s.sched.Queued()))
	for id, st := range s.sched.Snapshot() {
		s.obs.Gauge(obs.L("tenant_inflight", "tenant", id)).Set(float64(st.InFlight))
		s.obs.Gauge(obs.L("tenant_queued", "tenant", id)).Set(float64(st.Queued))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.WritePrometheus(w)
}

// handleTracez dumps the recent-trace ring as JSON, oldest first.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.Snapshot())
}

// OpsHandler returns the operational mux — /metricsz, /tracez and the full
// net/http/pprof suite. It is NOT mounted on Handler(): pprof can dump heap
// contents and stall the process, so serve it on a separate, firewalled
// listener (swaserver's -ops-addr).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}
	s.requests.Add(1)

	// Hop guard: a forwarded batch is served locally, never re-forwarded.
	// Forwards are one-hop by construction, so a chain longer than one
	// entry — or a chain that already names this node — can only come from
	// a stale or buggy ring and is rejected with a typed error instead of
	// bouncing around the cluster.
	forwarded := false
	if cl := s.cfg.Cluster; cl != nil {
		if hops := forwardChain(r); len(hops) > 0 {
			if len(hops) > 1 || hopsContain(hops, cl.NodeID()) {
				s.rejected.Add(1)
				cl.NoteLoopReject()
				s.writeError(w, r, http.StatusBadRequest, CodeForwardLoop,
					fmt.Sprintf("forward chain %v is more than one hop from %s", hops, cl.NodeID()))
				return
			}
			forwarded = true
		}
	}

	t, end := s.enter(w, r)
	if t == nil {
		return
	}
	defer end()

	pairs, timeout, status, code, err := s.parseRequest(w, r)
	if err != nil {
		s.rejected.Add(1)
		s.writeError(w, r, status, code, err.Error())
		return
	}

	if !s.charge(w, r, t, func() int64 { return alignsvc.Cells(pairs) }) {
		return
	}
	release, ok := s.admit(w, r, t)
	if !ok {
		return
	}
	defer release()

	// Deadline propagation: the request context (client disconnects) plus
	// the per-request deadline flow into the service, the pipeline, and the
	// kernel-block scheduler.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	align := s.cfg.Service.Align
	if s.cfg.Cluster != nil && !forwarded {
		// First-hop requests route through the ring; forwarded ones run on
		// the local service directly, which is what terminates every chain.
		align = s.cfg.Cluster.Align
	}
	res, err := align(ctx, pairs)
	if err != nil {
		s.writeAlignError(w, r, err)
		return
	}
	s.completed.Add(1)
	if forwarded {
		s.cfg.Cluster.NoteForwardedServed()
	}
	writeJSON(w, http.StatusOK, AlignResponse{Scores: res.Scores, Report: res.Report})
}

// forwardChain parses the X-SWA-Forwarded header into its hop list.
func forwardChain(r *http.Request) []string {
	var hops []string
	for _, v := range r.Header.Values(cluster.ForwardHeader) {
		for _, h := range strings.Split(v, ",") {
			if h = strings.TrimSpace(h); h != "" {
				hops = append(hops, h)
			}
		}
	}
	return hops
}

func hopsContain(hops []string, id string) bool {
	for _, h := range hops {
		if h == id {
			return true
		}
	}
	return false
}

// decodeAlign is the general decode: encoding/json, then the checks of
// parsePairs or presetPairs. Any body JSON allows decodes here: escapes,
// preset, keys in any case, duplicate keys, null.
func (s *Server) decodeAlign(body io.Reader) (pairs []dna.Pair, timeout time.Duration, status int, code string, err error) {
	var req AlignRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, 0, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return nil, 0, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad JSON: %w", err)
	}

	switch {
	case len(req.Pairs) > 0 && req.Preset != "":
		return nil, 0, http.StatusBadRequest, CodeBadRequest,
			errors.New("pairs and preset are mutually exclusive")
	case req.Preset != "":
		pairs, status, code, err = s.presetPairs(req)
		if err != nil {
			return nil, 0, status, code, err
		}
	case len(req.Pairs) > 0:
		pairs, status, code, err = s.parsePairs(req.Pairs)
		if err != nil {
			return nil, 0, status, code, err
		}
	default:
		return nil, 0, http.StatusBadRequest, CodeBadRequest,
			errors.New("request needs pairs or preset")
	}

	return pairs, s.timeout(req.TimeoutMS), 0, "", nil
}

// parsePairs converts and bounds client-supplied pairs. The pipeline wants
// a uniform batch (same m, same n, n ≥ m), so reject ragged input here with
// a clear 400 before any work is queued.
func (s *Server) parsePairs(in []PairJSON) ([]dna.Pair, int, string, error) {
	if len(in) > s.cfg.MaxPairs {
		return nil, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("%d pairs exceeds the %d-pair cap", len(in), s.cfg.MaxPairs)
	}
	pairs := make([]dna.Pair, len(in))
	m, n := len(in[0].X), len(in[0].Y)
	if m == 0 || n < m {
		return nil, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid shape: pattern %d bases, text %d (need 0 < m ≤ n)", m, n)
	}
	if n > s.cfg.MaxSeqLen {
		return nil, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("sequence length %d exceeds the %d-base cap", n, s.cfg.MaxSeqLen)
	}
	for i, p := range in {
		if len(p.X) != m || len(p.Y) != n {
			return nil, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("pair %d has shape (%d,%d), want the batch's uniform (%d,%d)",
					i, len(p.X), len(p.Y), m, n)
		}
		x, err := dna.Parse(p.X)
		if err != nil {
			return nil, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("pair %d pattern: %w", i, err)
		}
		y, err := dna.Parse(p.Y)
		if err != nil {
			return nil, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("pair %d text: %w", i, err)
		}
		pairs[i] = dna.Pair{X: x, Y: y}
	}
	return pairs, 0, "", nil
}

// presetPairs generates a named workload server-side, reusing the validated
// workload.Spec presets.
func (s *Server) presetPairs(req AlignRequest) ([]dna.Pair, int, string, error) {
	spec, err := workload.ByName(req.Preset)
	if err != nil {
		return nil, http.StatusBadRequest, CodeBadRequest, err
	}
	if err := spec.Validate(); err != nil {
		return nil, http.StatusBadRequest, CodeBadRequest, err
	}
	n := req.N
	if n == 0 {
		n = spec.NList[0]
	}
	if n < spec.M || n <= 0 {
		return nil, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("preset %q: n = %d invalid (need %d ≤ n)", req.Preset, n, spec.M)
	}
	if spec.Pairs > s.cfg.MaxPairs {
		return nil, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("preset %q generates %d pairs, over the %d-pair cap", req.Preset, spec.Pairs, s.cfg.MaxPairs)
	}
	if n > s.cfg.MaxSeqLen {
		return nil, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("preset %q at n = %d exceeds the %d-base cap", req.Preset, n, s.cfg.MaxSeqLen)
	}
	return spec.Generate(n), 0, "", nil
}

// enter is the front door of every route that takes work (/align, /search,
// POST /jobs): it refuses while draining, then resolves the request's
// credentials to a tenant before anything is parsed, so a bad credential is
// a cheap 401 and everything after charges the resolved tenant. On refusal
// it writes the typed error and returns a nil tenant; otherwise the caller
// defers end, which closes the request's tenant.<id> span.
func (s *Server) enter(w http.ResponseWriter, r *http.Request) (t *tenant.Tenant, end func()) {
	if s.Draining() {
		s.refuseDraining(w, r)
		return nil, nil
	}
	if t = s.resolveTenant(w, r); t == nil {
		return nil, nil
	}
	return t, obs.FromContext(r.Context()).StartSpan("tenant." + t.ID)
}

// resolveTenant maps the request's credentials onto a tenant; on failure it
// writes the 401 itself and returns nil.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) *tenant.Tenant {
	t, err := s.reg.Resolve(r.Header.Get(APIKeyHeader), r.Header.Get(TenantHeader))
	if err != nil {
		s.badTenant.Add(1)
		s.admissionOutcome("bad_tenant")
		s.writeError(w, r, http.StatusUnauthorized, CodeBadTenant, err.Error())
		return nil
	}
	return t
}

// refuseDraining writes the typed 503 for work arriving during drain.
func (s *Server) refuseDraining(w http.ResponseWriter, r *http.Request) {
	s.drainRefusals.Add(1)
	s.admissionOutcome("draining")
	s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
}

// charge takes one request token, then cells() DP cells, from the tenant's
// token buckets, and writes the typed 429 when either is empty. cells runs
// only once the request token is granted, so a request over its rate never
// pays for /search's prefilter. The refusal's Retry-After is the bucket's
// own refill time, not a fixed guess.
func (s *Server) charge(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, cells func() int64) bool {
	if ok, wait := t.AllowRequest(); !ok {
		s.rejectRateLimited(w, r, t, wait, "request rate limit")
		return false
	}
	if ok, wait := t.AllowCells(float64(cells())); !ok {
		s.rejectRateLimited(w, r, t, wait, "cell rate limit")
		return false
	}
	return true
}

// admit asks the weighted-fair scheduler for an execution slot. A
// backlogged tenant waits in its own bounded FIFO and is shed beyond it,
// with Retry-After from the observed queue drain rate. When no slot is
// granted admit writes the typed answer and returns false; otherwise the
// caller defers release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) (release func(), ok bool) {
	waitBegin := time.Now()
	release, res := s.sched.Admit(r.Context(), t.ID)
	s.obs.Histogram(obs.L("tenant_admission_wait_seconds", "tenant", t.ID),
		obs.LatencyBuckets).Observe(time.Since(waitBegin).Seconds())
	switch res {
	case tenant.AdmitShed:
		s.shed.Add(1)
		s.admissionOutcome("shed")
		s.tenantOutcome(t.ID, "shed")
		setRetryAfter(w, s.sched.RetryAfterHint(s.cfg.RetryAfter))
		s.writeErrorReason(w, r, http.StatusTooManyRequests, CodeShed, ReasonQueueFull,
			fmt.Sprintf("admission queue full for tenant %q", t.ID))
		return nil, false
	case tenant.AdmitDraining:
		s.refuseDraining(w, r)
		return nil, false
	case tenant.AdmitCtxDone:
		s.admissionOutcome("canceled")
		s.writeError(w, r, statusClientClosedRequest, CodeCanceled, "client went away while queued")
		return nil, false
	}
	s.admissionOutcome("ok")
	s.tenantOutcome(t.ID, "ok")
	return release, true
}

// timeout is a request's deadline: timeout_ms when the client sets it,
// capped at MaxTimeout, else DefaultTimeout. The cap is checked in
// milliseconds, before the conversion, so a huge timeout_ms cannot wrap
// time.Duration into an already-expired deadline.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	if ms >= s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// rejectRateLimited writes the typed 429 for an empty token bucket, with
// Retry-After derived from the bucket's refill time (clamped to the same
// sane range as queue-drain hints).
func (s *Server) rejectRateLimited(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, wait time.Duration, what string) {
	s.rateLimited.Add(1)
	s.sched.NoteRateLimited(t.ID)
	s.admissionOutcome("rate_limited")
	s.tenantOutcome(t.ID, "rate_limited")
	setRetryAfter(w, tenant.ClampRetryAfter(wait))
	s.writeErrorReason(w, r, http.StatusTooManyRequests, CodeRateLimited, ReasonRateLimited,
		fmt.Sprintf("tenant %q exceeded its %s", t.ID, what))
}

// setRetryAfter writes the Retry-After header, rounded up to whole seconds
// (the header's only portable unit).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
}

// statusClientClosedRequest is nginx's conventional 499 for a client that
// disconnected before the response was ready.
const statusClientClosedRequest = 499

// admissionOutcome counts an admission decision into the obs registry.
func (s *Server) admissionOutcome(outcome string) {
	s.obs.Counter(obs.L("server_admission_total", "outcome", outcome)).Inc()
}

// tenantOutcome counts a per-tenant admission decision.
func (s *Server) tenantOutcome(id, outcome string) {
	s.obs.Counter(obs.L("tenant_requests_total", "tenant", id, "outcome", outcome)).Inc()
}

// writeAlignError maps service errors onto HTTP statuses + typed codes.
func (s *Server) writeAlignError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlines.Add(1)
		s.writeError(w, r, http.StatusGatewayTimeout, CodeDeadline, "deadline expired: "+err.Error())
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, statusClientClosedRequest, CodeCanceled, "request canceled")
	case errors.Is(err, alignsvc.ErrClosed):
		s.drainRefusals.Add(1)
		s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "service closed")
	default:
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{
		Error:   msg,
		Code:    code,
		TraceID: obs.TraceID(r.Context()),
	})
}

// writeErrorReason is writeError plus the machine-readable 429 reason.
func (s *Server) writeErrorReason(w http.ResponseWriter, r *http.Request, status int, code, reason, msg string) {
	writeJSON(w, status, ErrorResponse{
		Error:   msg,
		Code:    code,
		Reason:  reason,
		TraceID: obs.TraceID(r.Context()),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
