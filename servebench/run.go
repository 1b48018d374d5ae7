package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/bitap"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/swa"
	"repro/internal/tenant"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, as a client sees them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"gcups", "GCUPS", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run. A layer the workload bypasses
// reads 0.
var perLayer = []metricDef{
	{"server.handler_ms", "ms", "lower"},
	{"server.transport_ms", "ms", "lower"},
	{"server.decode_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.req_kb", "KiB", "lower"},
	{"server.rejected", "count", "lower"},
	{"runtime.alloc_kb_per_req", "KiB", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.heap_live_mb", "MiB", "lower"},
	{"tenant.admit_wait_ms", "ms", "lower"},
	{"tenant.shed", "count", "lower"},
	{"aligncache.hit_ratio", "ratio", "higher"},
	{"aligncache.evictions", "count", "lower"},
	{"aligncache.key_ms", "ms", "lower"},
	{"aligncache.lookup_us", "us", "lower"},
	{"alignsvc.queue_wait_ms", "ms", "lower"},
	{"alignsvc.queue_wait_p99_ms", "ms", "lower"},
	{"alignsvc.process_ms", "ms", "lower"},
	{"alignsvc.retries", "count", "lower"},
	{"alignsvc.fallbacks", "count", "lower"},
	{"striped.tier_ms", "ms", "lower"},
	{"striped.gcups", "GCUPS", "higher"},
	{"striped.overflow_ratio", "ratio", "lower"},
	{"striped.scalar_fallbacks", "count", "lower"},
	{"corpus.build_s", "s", "lower"},
	{"corpus.open_s", "s", "lower"},
	{"corpus.prefilter_ms", "ms", "lower"},
	{"corpus.kmer_ms", "ms", "lower"},
	{"bitap.refine_ms", "ms", "lower"},
	{"corpus.score_ms", "ms", "lower"},
	{"corpus.search_self_ms", "ms", "lower"},
	{"corpus.kmer_pass_rate", "ratio", "lower"},
	{"corpus.pass_rate", "ratio", "lower"},
	{"corpus.scored_cells", "cells", "lower"},
	{"cluster.forward_ratio", "ratio", "lower"},
	{"cluster.peer_hit_ratio", "ratio", "higher"},
	{"cluster.peer_handler_ms", "ms", "lower"},
	{"cluster.fallback_pairs", "count", "lower"},
	{"host.probe_ms", "ms", "lower"},
	{"trace.p50_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// runConfig is one benchmark run.
type runConfig struct {
	spec     spec
	seed     uint64
	dur      time.Duration
	trace    bool
	workDir  string // corpus indexes; removed at the end
	traceOut string // span file of a traced run
	// oracle is the reference score of one pair; nil means swa.Score under
	// the service's scoring. Tests plant a wrong one.
	oracle func(x, y dna.Seq) int
}

// result is what a run prints.
type result struct {
	config    map[string]any
	attempted int
	failed    int
	samples   int // latency samples behind the percentiles
	errs      []string
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
}

func (r *result) fail(n int, msgs ...string) {
	r.failed += n
	for _, m := range msgs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, m)
		}
	}
}

func effectiveConfig(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":       cfg.spec.name,
		"seed":           cfg.seed,
		"seconds":        cfg.dur.Seconds(),
		"trace":          cfg.trace,
		"backend":        backend,
		"search_backend": backend,
		"cache_bytes":    cacheBytes,
		"cache_shards":   cacheShards,
		"cache_ttl":      cacheTTL.String(),
		"clients":        clients,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
	}
}

// minP99Samples is the smallest phase whose p99 has ten samples beyond it.
const minP99Samples = 1000

// phaseCount is the fixed number of requests per client of a phase lasting
// about d on the reference host, never fewer than a p99 needs.
func phaseCount(sp spec, d time.Duration) int {
	return max(int(float64(sp.rate)*d.Seconds()), (minP99Samples+clients-1)/clients)
}

// run sets the stack up sp.setups times, then drives the last one through
// the timed phase, or through the traced and the comparison phases, and
// checks the answers.
func run(cfg runConfig) (*result, error) {
	if cfg.oracle == nil {
		cfg.oracle = func(x, y dna.Seq) int { return swa.Score(x, y, swa.PaperScoring) }
	}
	res := &result{config: effectiveConfig(cfg), metrics: map[string]float64{}}
	probes := []float64{hostProbe(), hostProbe(), hostProbe()}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	in := newInputs(cfg.spec, cfg.seed)
	var tr *tracer
	ringSize := 64 // server.Config's default
	if cfg.trace {
		tr = &tracer{}
		// One node holds its own client's traces plus the forwards it
		// serves for the peer.
		ringSize = 2*phaseCount(cfg.spec, cfg.dur/2) + 256
	}
	s, err := setUp(cfg, in, tr, ringSize)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		err = traced(cfg, in, s, tr, res)
	} else {
		err = timed(cfg, in, s, res)
	}
	if err != nil {
		return nil, err
	}
	probes = append(probes, hostProbe(), hostProbe(), hostProbe())
	res.metrics["host.probe_ms"] = median(probes)
	res.notes = append(res.notes, fmt.Sprintf("host.probe_ms: %.3f, median of %d probes before and after the run", median(probes), len(probes)))
	return res, nil
}

// setup is the stack that serves the measured phases, its clients, and
// what setting it up cost.
type setup struct {
	st                    *stack
	cls                   []*client
	setupS, buildS, openS []float64
}

func (s *setup) close() {
	for _, c := range s.cls {
		c.close()
	}
	if s.st != nil {
		s.st.close()
	}
	s.st, s.cls = nil, nil
}

// setUp builds and warms the stack sp.setups times and keeps the last one.
// Each set-up is timed from the start of stack construction to the last
// warm-up answer; rendering the warm-up bodies happens before.
func setUp(cfg runConfig, in *inputs, tr *tracer, ringSize int) (*setup, error) {
	sp := cfg.spec
	warmUp := make([][]request, clients)
	if sp.hotSet > 0 {
		warmUp = in.hotRequests(clients)
	}
	for c := range warmUp {
		for i := range sp.warmReqs {
			warmUp[c] = append(warmUp[c], in.warmRequest(c, i, nil))
		}
	}
	s := &setup{}
	for k := range sp.setups {
		s.close()
		// Collect the previous stack so every set-up starts from the same
		// heap, and so do the measured phases after the last one.
		runtime.GC()
		begin := time.Now()
		st, err := buildStack(sp, in, filepath.Join(cfg.workDir, fmt.Sprintf("corpus-%d", k)), tr, ringSize)
		if err != nil {
			return s, fmt.Errorf("setup: %w", err)
		}
		s.st = st
		s.cls = make([]*client, clients)
		for c := range s.cls {
			s.cls[c] = newClient(c, st.nodes[c%len(st.nodes)].url)
		}
		if err := warm(sp, s.cls, warmUp); err != nil {
			return s, fmt.Errorf("setup: %w", err)
		}
		s.setupS = append(s.setupS, time.Since(begin).Seconds())
		s.buildS = append(s.buildS, st.buildS)
		s.openS = append(s.openS, st.openS)
	}
	runtime.GC()
	return s, nil
}

// hardStop bounds a phase on a host far slower than the reference one.
func hardStop(cfg runConfig) time.Duration {
	return min(3*cfg.dur+10*time.Second, 120*time.Second)
}

// timed runs the untraced timed phase and computes the end-to-end metrics.
func timed(cfg runConfig, in *inputs, s *setup, res *result) error {
	sp := cfg.spec
	ph := runPhase(sp, s.cls, phase{
		next: in.timedRequest, count: phaseCount(sp, cfg.dur), hardStop: hardStop(cfg),
		oracleEvery: sp.oracleEvery,
	})
	res.attempted = ph.sent
	res.samples = len(ph.latMS)
	res.fail(ph.failed, ph.errs...)
	bad, msgs := checkOracle(sp, in, s.st, s.cls[0], ph.samples, cfg.oracle)
	res.fail(len(bad), msgs...)
	p50, err := percentile(ph.latMS, 0.50)
	if err != nil {
		return err
	}
	p99, err := percentile(ph.latMS, 0.99)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	reqPerS, cellsPerS, perWindow := windowRates(ph.done, bad, ph.wall)
	m := res.metrics
	m["setup_s"] = median(s.setupS)
	m["req_per_s"] = reqPerS
	m["gcups"] = cellsPerS / 1e9
	m["p50_ms"] = p50
	m["p99_ms"] = p99
	m["rss_peak_mb"] = rss
	res.notes = append(res.notes,
		fmt.Sprintf("timed phase: %d requests per client in %.3f s; req_per_s and gcups are medians over %d windows (%.4f req/s over the whole phase)",
			phaseCount(sp, cfg.dur), ph.wall.Seconds(), windows, float64(ph.ok-len(bad))/ph.wall.Seconds()),
		fmt.Sprintf("req_per_s by window: %.1f", perWindow),
		fmt.Sprintf("setup_s: median of %d set-ups %.4f", len(s.setupS), s.setupS))
	return nil
}

// traced runs a traced phase from the start of the stream, so its counts
// repeat for a seed, then an untraced phase continuing the stream whose
// p50 prices the tracing, and computes the per-layer metrics.
func traced(cfg runConfig, in *inputs, s *setup, tr *tracer, res *result) error {
	sp := cfg.spec
	count := phaseCount(sp, cfg.dur/2)
	before := snapshot(s.st)
	rtBefore := readRuntime()
	tr.on.Store(true)
	phB := runPhase(sp, s.cls, phase{
		next: in.timedRequest, count: count, hardStop: hardStop(cfg), tracer: tr,
		oracleEvery: sp.oracleEvery, replayEvery: max(1, clients*count/sp.replays),
	})
	tr.on.Store(false)
	rtAfter := readRuntime()
	after := snapshot(s.st)
	spans := tr.take()
	handlers := map[string]span{}
	for _, x := range spans {
		if x.Name == spanHandler || x.Name == spanPeer {
			handlers[x.Node+"/"+x.Trace] = x
		}
	}
	for _, nd := range s.st.nodes {
		spans = append(spans, ringSpans(nd, handlers)...)
	}
	phA := runPhase(sp, s.cls, phase{
		next: in.timedRequest, from: count, count: count, hardStop: hardStop(cfg),
		oracleEvery: sp.oracleEvery,
	})
	res.attempted = phB.sent + phA.sent
	res.samples = len(phB.latMS)
	res.fail(phB.failed+phA.failed, append(phB.errs, phA.errs...)...)
	bad, msgs := checkOracle(sp, in, s.st, s.cls[0], append(phB.samples, phA.samples...), cfg.oracle)
	res.fail(len(bad), msgs...)

	m := res.metrics
	if err := layerMetrics(m, sp, s.st, phB, spans, before, after, rtBefore, rtAfter); err != nil {
		return err
	}
	replayMetrics(m, sp, s.st, phB.replays)
	if s.st.corpus != nil {
		m["corpus.build_s"] = median(s.buildS)
		m["corpus.open_s"] = median(s.openS)
	}
	tracedP50, err := percentile(phB.latMS, 0.50)
	if err != nil {
		return err
	}
	untracedP50, err := percentile(phA.latMS, 0.50)
	if err != nil {
		return err
	}
	m["trace.p50_ms"] = tracedP50
	m["trace.overhead_ms"] = tracedP50 - untracedP50
	res.notes = append(res.notes,
		fmt.Sprintf("traced phase: %d requests per client in %.3f s; untraced phase: %d more in %.3f s, p50 %.4f ms",
			count, phB.wall.Seconds(), count, phA.wall.Seconds(), untracedP50),
		fmt.Sprintf("setup_s: median %.4f s of %d set-ups", median(s.setupS), len(s.setupS)))
	if cfg.traceOut == "" {
		return nil
	}
	linkParents(spans)
	origin := time.Now()
	for _, x := range spans {
		if x.Start.Before(origin) {
			origin = x.Start
		}
	}
	if err := writeTrace(cfg.traceOut, res.config, spans, origin); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(spans), cfg.traceOut))
	return nil
}

// counters is the sum over a stack's nodes of the program counters the
// traced run reads through the layers' public Stats and registries.
type counters struct {
	hits, misses, coalesced, evictions int64
	pairs, overflows, scalar           int64
	retries, fallbacks                 int64
	rejected, shed                     int64
	local, forwarded, fallbackPairs    int64
	peerHits                           int64
	admitSum, lookupSum                float64
	admitN, lookupN                    int64
}

func snapshot(st *stack) counters {
	var c counters
	for _, nd := range st.nodes {
		cs := nd.cache.Stats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.coalesced += cs.Coalesced
		c.evictions += cs.EvictionsLRU + cs.EvictionsTTL
		ss := nd.svc.Stats()
		c.pairs += ss.Striped.Pairs
		c.overflows += ss.Striped.Overflows
		c.scalar += ss.Striped.ScalarFallbacks
		c.retries += ss.Retries
		c.fallbacks += ss.Fallbacks
		sv := nd.srv.Stats()
		c.rejected += sv.Rejected
		c.shed += sv.Shed
		cl := nd.cl.Stats()
		c.local += cl.LocalPairs
		c.forwarded += cl.ForwardedPairs
		c.fallbackPairs += cl.FallbackPairs
		c.peerHits += cl.PeerCacheHits
		admit := nd.reg.Histogram(obs.L("tenant_admission_wait_seconds", "tenant", tenant.AnonymousID), nil)
		c.admitSum += admit.Sum()
		c.admitN += admit.Count()
		lookup := nd.reg.Histogram("aligncache_lookup_seconds", nil)
		c.lookupSum += lookup.Sum()
		c.lookupN += lookup.Count()
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of the traced phase from its
// spans and from the counter deltas across it.
func layerMetrics(m map[string]float64, sp spec, st *stack, ph phaseResult, spans []span,
	before, after counters, rtBefore, rtAfter runtimeSample) error {
	byName := map[string][]float64{}
	perTrace := map[string]map[string]float64{} // trace -> name -> summed ms
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if perTrace[s.Trace] == nil {
			perTrace[s.Trace] = map[string]float64{}
		}
		perTrace[s.Trace][s.Name] += s.ms()
	}
	var transport, score []float64
	for _, names := range perTrace {
		if c, ok := names[spanClient]; ok {
			transport = append(transport, c-names[spanHandler])
		}
		if s, ok := names[spanScore]; ok {
			score = append(score, s)
		}
	}
	m["server.handler_ms"] = mean(byName[spanHandler])
	m["server.transport_ms"] = mean(transport)
	m["server.req_kb"] = ratio(float64(ph.bodyBytes), float64(ph.sent)) / 1024
	m["server.rejected"] = float64(after.rejected - before.rejected)

	m["runtime.alloc_kb_per_req"] = ratio(rtAfter.allocBytes-rtBefore.allocBytes, float64(ph.sent)) / 1024
	m["runtime.gc_cpu_frac"] = ratio(rtAfter.gcCPU-rtBefore.gcCPU, rtAfter.totalCPU-rtBefore.totalCPU)
	m["runtime.heap_live_mb"] = rtAfter.liveBytes / (1 << 20)

	m["tenant.admit_wait_ms"] = ratio(after.admitSum-before.admitSum, float64(after.admitN-before.admitN)) * 1e3
	m["tenant.shed"] = float64(after.shed - before.shed)

	lookups := float64((after.hits - before.hits) + (after.misses - before.misses) + (after.coalesced - before.coalesced))
	m["aligncache.hit_ratio"] = ratio(float64(after.hits-before.hits), lookups)
	m["aligncache.evictions"] = float64(after.evictions - before.evictions)
	m["aligncache.lookup_us"] = ratio(after.lookupSum-before.lookupSum, float64(after.lookupN-before.lookupN)) * 1e6

	m["alignsvc.queue_wait_ms"] = mean(byName[spanQueue])
	if q := byName[spanQueue]; len(q) > 0 {
		sort.Float64s(q)
		p99, err := percentile(q, 0.99)
		if err != nil {
			return fmt.Errorf("alignsvc.queue_wait_p99_ms: %w", err)
		}
		m["alignsvc.queue_wait_p99_ms"] = p99
	}
	m["alignsvc.process_ms"] = mean(byName[spanProcess])
	m["alignsvc.retries"] = float64(after.retries - before.retries)
	m["alignsvc.fallbacks"] = float64(after.fallbacks - before.fallbacks)

	enginePairs := float64(after.pairs - before.pairs)
	m["striped.overflow_ratio"] = ratio(float64(after.overflows-before.overflows), enginePairs)
	m["striped.scalar_fallbacks"] = float64(after.scalar - before.scalar)
	if sp.route == "/search" {
		var cells int64
		var ms float64
		for _, s := range spans {
			if s.Name == spanScore {
				cells += s.Cells
				ms += s.ms()
			}
		}
		m["striped.tier_ms"] = mean(score)
		m["striped.gcups"] = ratio(float64(cells), ms*1e6)
		m["corpus.score_ms"] = mean(score)
		var kmer, pass, cellsPerQ []float64
		for _, s := range ph.searches {
			kmer = append(kmer, ratio(float64(s.KmerCandidates), float64(s.Seqs)))
			pass = append(pass, s.PassRate)
			cellsPerQ = append(cellsPerQ, float64(s.Cells))
		}
		m["corpus.kmer_pass_rate"] = mean(kmer)
		m["corpus.pass_rate"] = mean(pass)
		m["corpus.scored_cells"] = mean(cellsPerQ)
	} else {
		m["striped.tier_ms"] = mean(byName[spanTier])
		var tierMS float64
		for _, v := range byName[spanTier] {
			tierMS += v
		}
		m["striped.gcups"] = ratio(enginePairs*float64(sp.m*sp.n), tierMS*1e6)
	}

	if sp.cluster {
		routed := float64((after.local - before.local) + (after.forwarded - before.forwarded) + (after.fallbackPairs - before.fallbackPairs))
		fwd := float64(after.forwarded - before.forwarded)
		m["cluster.forward_ratio"] = ratio(fwd, routed)
		m["cluster.peer_hit_ratio"] = ratio(float64(after.peerHits-before.peerHits), fwd)
		m["cluster.peer_handler_ms"] = mean(byName[spanPeer])
		m["cluster.fallback_pairs"] = float64(after.fallbackPairs - before.fallbackPairs)
	}
	return nil
}

// replayMetrics times public calls with no side effects on the traced
// phase's kept requests and answers: decode and encode as the server does
// them, the cache key, and on /search the prefilter stages and a Search on
// a registry-free searcher whose backend is timed. The bodies and answers
// were accepted and checked during the phase, so decoding them again cannot
// fail and the errors are not checked.
func replayMetrics(m map[string]float64, sp spec, st *stack, replays []sample) {
	var decode, encode, key, kmer, pre, refine, self []float64
	lanes := st.nodes[0].svc.Lanes()
	sc := st.nodes[0].svc.Scoring()
	var searcher *corpus.Searcher
	var timed *timedBackend
	if st.corpus != nil {
		be, err := alignsvc.NewBackend(backend, pipeline.Config{}, 0)
		if err == nil {
			timed = &timedBackend{Backend: be}
			searcher = corpus.NewSearcher(st.corpus, timed, nil)
		}
	}
	for _, r := range replays {
		if sp.route == "/search" {
			begin := time.Now()
			var req server.SearchRequest
			_ = json.Unmarshal(r.req.body, &req)
			q, _ := dna.Parse(req.Query)
			decode = append(decode, msSince(begin))
			begin = time.Now()
			_ = json.NewEncoder(io.Discard).Encode(r.search)
			encode = append(encode, msSince(begin))

			p := corpus.Params{TopK: req.TopK}
			begin = time.Now()
			stage1 := st.corpus.Prefilter(q, corpus.Params{TopK: req.TopK, MaxEdits: -1})
			kmer = append(kmer, msSince(begin))
			begin = time.Now()
			st.corpus.Prefilter(q, p)
			pre = append(pre, msSince(begin))
			begin = time.Now()
			if len(q) <= 64 {
				for _, id := range stage1.IDs {
					_, _ = bitap.MyersMinDistance(q, st.corpus.Seq(int(id)))
				}
			}
			refine = append(refine, msSince(begin))
			if searcher != nil {
				scoreBefore := timed.nanos.Load()
				begin = time.Now()
				_, _ = searcher.Search(context.Background(), q, p)
				total := time.Since(begin)
				self = append(self, float64(total-time.Duration(timed.nanos.Load()-scoreBefore))/1e6)
			}
			continue
		}
		begin := time.Now()
		var req server.AlignRequest
		_ = json.Unmarshal(r.req.body, &req)
		pairs := make([]dna.Pair, len(req.Pairs))
		for i, p := range req.Pairs {
			pairs[i].X, _ = dna.Parse(p.X)
			pairs[i].Y, _ = dna.Parse(p.Y)
		}
		decode = append(decode, msSince(begin))
		begin = time.Now()
		for _, p := range pairs {
			aligncache.KeyOf(p.X, p.Y, sc, lanes)
		}
		key = append(key, msSince(begin))
		var resp server.AlignResponse
		_ = json.Unmarshal(r.resp, &resp)
		begin = time.Now()
		_ = json.NewEncoder(io.Discard).Encode(resp)
		encode = append(encode, msSince(begin))
	}
	m["server.decode_ms"] = mean(decode)
	m["server.encode_ms"] = mean(encode)
	m["aligncache.key_ms"] = mean(key)
	m["corpus.kmer_ms"] = mean(kmer)
	m["corpus.prefilter_ms"] = mean(pre)
	m["bitap.refine_ms"] = mean(refine)
	m["corpus.search_self_ms"] = mean(self)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// checkOracle compares the kept answers with the reference outside the
// timed region: /align scores against swa.Score, /search top-K against a
// scan-all search of the same index (and each hit's score against
// swa.Score). It returns the arrival times of the kept requests that were
// wrong.
func checkOracle(sp spec, in *inputs, st *stack, c *client, samples []sample, oracle func(x, y dna.Seq) int) ([]time.Duration, []string) {
	var bad []time.Duration
	var msgs []string
	var at time.Duration
	wrong := func(format string, args ...any) {
		bad = append(bad, at)
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range samples {
		at = s.at
		if sp.route == "/search" {
			q, err := dna.Parse(s.req.query)
			if err != nil {
				wrong("query %q: %v", s.req.query, err)
				continue
			}
			body, _ := json.Marshal(server.SearchRequest{Query: s.req.query, TopK: sp.topK, MinKmerHits: -1, MaxEdits: -1})
			status, resp, _, err := c.post("/search", body, "")
			var all *server.SearchResponse
			if err == nil {
				_, all, err = checkAnswer(sp, s.req, status, resp)
			}
			if err != nil {
				wrong("scan-all search: %v", err)
				continue
			}
			if !slices.Equal(all.Hits, s.search.Hits) {
				wrong("query %s: top-%d %v, scan-all %v", s.req.query, sp.topK, s.search.Hits, all.Hits)
				continue
			}
			for _, h := range s.search.Hits {
				if want := oracle(q, st.corpus.Seq(h.ID)); h.Score != want {
					wrong("query %s hit %d: score %d, swa.Score %d", s.req.query, h.ID, h.Score, want)
					break
				}
			}
			continue
		}
		k := min(sp.oraclePairs, len(s.req.pairs))
		for t := range k {
			j := t * len(s.req.pairs) / k
			p := s.req.pairs[j]
			x, errX := dna.Parse(string(in.pattern(p)))
			y, errY := dna.Parse(string(in.text(p)))
			if errX != nil || errY != nil {
				wrong("pair %d: unparsable bases", j)
				break
			}
			if want := oracle(x, y); s.scores[j] != want {
				wrong("pair %d: score %d, swa.Score %d", j, s.scores[j], want)
				break
			}
		}
	}
	return bad, msgs
}
