// Command swaserver runs the HTTP alignment server: alignsvc.Service (score
// cache → engine slot → pluggable execution backend, each batch scoring on
// its request's goroutine, with the scalar reference answering any batch
// its backend fails) behind internal/server's admission control.
//
// -backend selects the one serving engine: striped (the native
// Farrar-style SIMD CPU engine, the wall-clock default), bitwise-sim /
// wordwise-sim (the paper's simulated GPU pipelines), or cpu-ref (the
// scalar reference). Every score the server computes, for /align, /search
// and both job kinds, goes through that engine in one of -workers engine
// slots, with the scalar reference answering any batch it fails. All
// backends return byte-identical scores, so nodes running different ones
// share cache keys and cluster routing.
//
// Endpoints: POST /align, GET /healthz, /readyz, /statsz, /metricsz
// (Prometheus text). On SIGINT/SIGTERM the server stops admitting work
// (/readyz flips to 503), drains in-flight batches for -grace, then exits 0.
//
// -data-dir enables the durable async job API (POST /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, DELETE /jobs/{id}): submitted batches are persisted
// to a write-ahead log in that directory before the 202 goes out and are
// executed chunk by chunk, each completed chunk checkpointed. On startup the
// WAL is replayed — incomplete jobs resume from their last checkpoint, so a
// crash (even SIGKILL) costs at most the chunk that was in flight. On
// SIGTERM, running jobs are checkpointed and requeued rather than awaited.
//
// -tenants loads a JSON tenant config (API keys, weights, rate limits,
// concurrency and job quotas) and turns on multi-tenant admission: requests
// authenticate with X-SWA-API-Key (or X-SWA-Tenant for keyless tenants),
// execution slots are divided weighted-fair between backlogged tenants, and
// jobs belong to the tenant that submitted them. GET /jobs/{id}/events
// streams live job progress as Server-Sent Events.
//
// -corpus name=dir (repeatable) mounts reference corpora built with
// dbfilter -build (or corpus.Build): POST /search answers ranked top-K
// queries — a k-mer posting-list prefilter narrows the corpus, then the
// service scores the candidates exactly — and, combined with -data-dir,
// POST /jobs accepts kind "search" for durable chunk-checkpointed searches
// (-search-chunk-size sequences per checkpoint) that resume from the WAL
// after a crash. /statsz gains a search section with per-corpus inventory
// and funnel counters.
//
// -ops-addr starts a second listener with the operational endpoints —
// /metricsz, /tracez (recent request traces) and net/http/pprof under
// /debug/pprof/. It is off by default and should stay firewalled: pprof can
// dump heap contents.
//
// Usage:
//
//	swaserver [-backend striped|bitwise-sim|wordwise-sim|cpu-ref]
//	          [-addr :8468] [-ops-addr :8469] [-workers N] [-inflight N]
//	          [-queued N] [-tenants tenants.json]
//	          [-grace 15s] [-timeout 30s]
//	          [-node-id n1 -peers n2=http://h2:8468,n3=http://h3:8468]
//	          [-peer-timeout 5s -peer-probe-interval 1s]
//	          [-data-dir /var/lib/swa -wal-sync always -chunk-size 64]
//	          [-corpus ref=/var/lib/swa/corpus -search-chunk-size 4096]
//	          [-read-header-timeout 10s -read-timeout 2m -idle-timeout 2m]
//
// -peers turns N swaserver processes into one coordinator-free logical
// service: a consistent-hash ring over the score-cache content address
// routes each pair to its owner node for cache locality. A forward is one
// attempt bounded by -peer-timeout; if it fails the pairs are scored
// locally. A failed forward or /readyz probe quarantines a peer out of the
// ring at once, and its next passing probe readmits it. A draining node
// fails /readyz and refuses forwards with 503, so its peers quarantine it
// and re-home its arcs as they would a dead node's. /statsz gains a cluster
// section and /metricsz cluster_* gauges.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8468", "listen address (host:port; port 0 picks a free one)")
	backend := flag.String("backend", alignsvc.BackendStriped,
		"execution backend: "+strings.Join(alignsvc.BackendNames(), ", "))
	opsAddr := flag.String("ops-addr", "", "ops listen address for /metricsz, /tracez and pprof (empty = disabled)")
	workers := flag.Int("workers", 0, "service engine slots: batches scoring at once (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "score-cache size bound in bytes (0 disables the cache)")
	cacheTTL := flag.Duration("cache-ttl", 10*time.Minute, "score-cache entry lifetime (0 = no expiry)")

	nodeID := flag.String("node-id", "", "this node's stable cluster identity (required with -peers)")
	peers := flag.String("peers", "", "static cluster peers as id=url,id=url (empty = single node, no cluster)")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "deadline for one forward or health probe")
	peerProbeInterval := flag.Duration("peer-probe-interval", time.Second, "cadence of each peer's /readyz health probe")

	inflight := flag.Int("inflight", 0, "max align requests executing concurrently (0 = 2×GOMAXPROCS)")
	queued := flag.Int("queued", 0, "max align requests waiting for a slot before 429 (0 = inflight)")
	tenantsFile := flag.String("tenants", "", "JSON tenant config enabling multi-tenant admission (empty = single anonymous tenant)")
	maxPairs := flag.Int("max-pairs", 4096, "max pairs per batch")
	maxSeqLen := flag.Int("max-seqlen", 16384, "max sequence length")
	maxBody := flag.Int64("max-body", 8<<20, "max request body bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "how long a client may take to send request headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "how long a client may take to send a whole request (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")

	dataDir := flag.String("data-dir", "", "WAL directory for durable async jobs (empty = /jobs API disabled)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always (fsync every append before acknowledging it) or never")
	walSegBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation size")
	chunkSize := flag.Int("chunk-size", 64, "pairs per job chunk (the checkpoint granularity)")
	jobConcurrency := flag.Int("job-concurrency", 2, "jobs executing concurrently")
	jobQueue := flag.Int("job-queue", 64, "jobs waiting in the queue before 429")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay queryable before GC")
	jobChunkTimeout := flag.Duration("job-chunk-timeout", time.Minute, "per-chunk execution deadline")

	var corpusMounts mountFlags
	flag.Var(&corpusMounts, "corpus", "mount a corpus index as name=dir (repeatable; enables POST /search)")
	searchChunkSize := flag.Int("search-chunk-size", 4096, "corpus sequences per search-job chunk (the checkpoint granularity)")
	flag.Parse()

	if flag.NArg() != 0 {
		flag.PrintDefaults()
		cli.Exitf(2, "swaserver: unexpected arguments %v", flag.Args())
	}
	if !slices.Contains(alignsvc.BackendNames(), *backend) {
		cli.Exitf(2, "swaserver: -backend: unknown backend %q (have %s)",
			*backend, strings.Join(alignsvc.BackendNames(), ", "))
	}
	if *grace <= 0 {
		cli.Exitf(2, "swaserver: -grace must be positive, got %v", *grace)
	}

	// Multi-tenant admission: -tenants loads the API-key registry that the
	// server (rate limits, weighted-fair queueing) and the job manager
	// (ownership, running-job quotas) share. Without it, every request is
	// the anonymous tenant and admission behaves exactly as untenanted.
	var reg *tenant.Registry
	if *tenantsFile != "" {
		var err error
		reg, err = tenant.LoadFile(*tenantsFile)
		if err != nil {
			cli.Exitf(2, "swaserver: -tenants: %v", err)
		}
		log.Printf("swaserver: multi-tenant admission enabled: %d tenant(s) from %s",
			reg.Len(), *tenantsFile)
	}

	// The content-addressed score cache: a (pattern, text, scoring, lanes)
	// pair scored once is served from memory to later requests and job
	// chunks. -cache-bytes=0 turns it off, leaving the serving path
	// byte-identical to the uncached build.
	cache := aligncache.New(aligncache.Config{
		MaxBytes: *cacheBytes,
		TTL:      *cacheTTL,
	})
	if cache.Enabled() {
		log.Printf("swaserver: score cache enabled: %d MiB, ttl %v", *cacheBytes>>20, *cacheTTL)
	}

	svc := alignsvc.New(alignsvc.Config{
		Backend: *backend,
		Cache:   cache,
		Workers: *workers,
	})
	// Reference corpora: each -corpus name=dir opens a CRC-checked index
	// built by dbfilter -build, and every mount scores its candidates
	// through the service. The registry is handed to both the server
	// (POST /search) and the job manager (kind "search" jobs).
	var corpora *corpus.Registry
	if len(corpusMounts) > 0 {
		corpora = corpus.NewRegistry()
		for _, m := range corpusMounts {
			c, err := corpus.Open(m.dir)
			if err != nil {
				cli.Exitf(2, "swaserver: -corpus %s=%s: %v", m.name, m.dir, err)
			}
			if err := corpora.Add(m.name, c, corpus.NewSearcher(c, svc, obs.Default())); err != nil {
				cli.Exitf(2, "swaserver: -corpus: %v", err)
			}
			log.Printf("swaserver: corpus %q mounted: %d sequence(s), %d base(s), k=%d, fingerprint %s",
				m.name, c.Len(), c.TotalBases(), c.K(), c.Fingerprint())
		}
	}

	// The durable job stack: WAL store + chunked job manager, sharing one
	// trace ring with the server so /tracez covers background job runs too.
	var (
		store *jobstore.Store
		mgr   *jobs.Manager
		ring  *obs.TraceRing
	)
	if *dataDir != "" {
		policy, err := jobstore.ParseSyncPolicy(*walSync)
		if err != nil {
			cli.Exitf(2, "swaserver: -wal-sync: %v", err)
		}
		var rep jobstore.ReplayReport
		store, rep, err = jobstore.Open(jobstore.Options{
			Dir:          *dataDir,
			SegmentBytes: *walSegBytes,
			Sync:         policy,
		})
		cli.Check(err)
		log.Printf("swaserver: job store %s: %d segment(s), %d record(s), %d live job(s)",
			*dataDir, rep.Segments, rep.Records, rep.Jobs)
		if rep.Truncated {
			log.Printf("swaserver: job store repaired: dropped %d byte(s) at %s",
				rep.TruncatedBytes, rep.Corrupt)
		}
		ring = obs.NewTraceRing(64)
		mgr, err = jobs.New(jobs.Config{
			Store:           store,
			Service:         svc,
			ChunkSize:       *chunkSize,
			MaxConcurrent:   *jobConcurrency,
			MaxQueued:       *jobQueue,
			ChunkTimeout:    *jobChunkTimeout,
			TTL:             *jobTTL,
			Traces:          ring,
			Tenants:         reg,
			Corpora:         corpora,
			SearchChunkSize: *searchChunkSize,
		})
		cli.Check(err)
		if recovered := mgr.Stats().Recovered; recovered > 0 {
			log.Printf("swaserver: recovered %d incomplete job(s), resuming from checkpoints", recovered)
		}
	}

	// The coordinator-free cluster layer: -peers names the other swaserver
	// processes; a consistent-hash ring over the score-cache content address
	// routes each pair to its owner node (falling back to local execution on
	// any peer failure), and a failed forward or health probe takes a peer
	// out of the ring, so a draining node leaves its peers' rings at its
	// first 503 or failed /readyz.
	var cl *cluster.Cluster
	if *peers != "" {
		if *nodeID == "" {
			cli.Exitf(2, "swaserver: -peers requires -node-id")
		}
		peerList, err := cluster.ParsePeers(*peers)
		if err != nil {
			cli.Exitf(2, "swaserver: -peers: %v", err)
		}
		cl, err = cluster.New(cluster.Config{
			NodeID:        *nodeID,
			Peers:         peerList,
			Local:         svc,
			Scoring:       svc.Scoring(),
			Lanes:         svc.Lanes(),
			PeerTimeout:   *peerTimeout,
			ProbeInterval: *peerProbeInterval,
		})
		cli.Check(err)
		log.Printf("swaserver: cluster enabled: node %s with %d peer(s), probe every %v",
			*nodeID, len(peerList), *peerProbeInterval)
	}

	srv, err := server.New(server.Config{
		Service:        svc,
		MaxInFlight:    *inflight,
		MaxQueued:      *queued,
		MaxPairs:       *maxPairs,
		MaxSeqLen:      *maxSeqLen,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Jobs:           mgr,
		TraceRing:      ring,
		Cluster:        cl,
		Tenants:        reg,
		Corpora:        corpora,
	})
	cli.Check(err)

	ln, err := net.Listen("tcp", *addr)
	cli.Check(err)
	// The listening line goes to stdout so scripts (and the e2e test) can
	// discover a :0-assigned port.
	fmt.Printf("swaserver listening on %s\n", ln.Addr())

	// Connection hygiene on both listeners: a client that stalls mid-header
	// (slowloris) or parks a dead keep-alive connection must not pin server
	// resources forever. ReadTimeout additionally bounds slow request bodies.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The ops listener is best-effort: it serves pprof and metrics for
	// operators and is simply closed on shutdown (no drain needed).
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		cli.Check(err)
		fmt.Printf("swaserver ops listening on %s\n", opsLn.Addr())
		opsSrv = &http.Server{
			Handler:           srv.OpsHandler(),
			ReadHeaderTimeout: *readHeaderTimeout,
			ReadTimeout:       *readTimeout,
			IdleTimeout:       *idleTimeout,
		}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("swaserver: ops serve: %v", err)
			}
		}()
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	select {
	case err := <-serveErr:
		if mgr != nil {
			mgr.Close()
			cli.Check(store.Close())
		}
		cl.Close()
		svc.Close()
		cli.Die(fmt.Errorf("swaserver: serve: %w", err))
	case <-ctx.Done():
	}
	stop() // a second signal force-kills via Go's default handling

	// Graceful shutdown: refuse new aligns and flip /readyz (still served,
	// so load balancers see not-ready), drain in-flight batches within the
	// grace period — job runners checkpoint and requeue their jobs at the
	// next chunk boundary — then close the listener, the manager, the job
	// store and the service.
	log.Printf("swaserver: signal received, draining (grace %v)", *grace)
	srv.BeginDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	drainErr := srv.Drain(graceCtx)
	if err := httpSrv.Shutdown(graceCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("swaserver: http shutdown: %v", err)
	}
	if opsSrv != nil {
		_ = opsSrv.Close()
	}
	if mgr != nil {
		if requeued := mgr.Stats().Requeued; requeued > 0 {
			log.Printf("swaserver: checkpointed and requeued %d running job(s)", requeued)
		}
		mgr.Close()
		cli.Check(store.Close())
	}
	cl.Close()
	svc.Close()
	if drainErr != nil {
		cli.Die(fmt.Errorf("swaserver: %w", drainErr))
	}
	log.Printf("swaserver: drained cleanly")
}

// mountFlags collects repeated -corpus name=dir flags in order.
type mountFlags []corpusMount

type corpusMount struct{ name, dir string }

func (m *mountFlags) String() string {
	parts := make([]string, len(*m))
	for i, c := range *m {
		parts[i] = c.name + "=" + c.dir
	}
	return strings.Join(parts, ",")
}

func (m *mountFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	for _, c := range *m {
		if c.name == name {
			return fmt.Errorf("corpus %q mounted twice", name)
		}
	}
	*m = append(*m, corpusMount{name: name, dir: dir})
	return nil
}
