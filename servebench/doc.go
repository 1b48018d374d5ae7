// Command servebench is the repository's serving-path benchmark. It
// measures /align and /search the way a client sees them: requests per
// second, latency percentiles and whole-request GCUPS through the real HTTP
// server. A separate traced run splits each request into its layers, the
// source paper's Table IV stage split (H2G/W2B/SWA/B2W/G2H) applied to the
// serving path.
//
// # Running
//
// From the repository root:
//
//	bash servebench/run.sh --workload align-small --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --workload search --seed 1 --seconds 20 --trace 1
//
// run.sh builds this package (its own module, which imports the repository
// through a replace directive) with the build cache under .bench_build/ and
// runs it. The program prints the effective configuration (backend, cache
// bytes, shards and TTL, GOMAXPROCS, nproc, CPU model, Go version, seed),
// the requests sent, succeeded and failed, every metric with its unit, and
// as its last line one JSON object with the keys correct, attempted, failed
// and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. The self-tests run with `go test` in this directory.
//
// # The stack and the load
//
// The program builds the default swaserver stack in-process through the
// public constructors swaserver uses (aligncache.New, alignsvc.New,
// server.New, corpus.Build/Open/NewSearcher, cluster.New). It sets only the
// fields whose zero value differs from the binary's default flags: the
// striped backend, a 64 MiB cache with 16 shards and a 10-minute TTL, and
// the striped search backend. It also hands every layer the benchmark's own
// obs.Registry and trace ring. server.Handler() is served on a loopback
// listener in the same process; serving in-process was faster and steadier
// than driving a swaserver subprocess.
//
// Two clients (one per vCPU of the 2-vCPU reference host) run a closed
// loop, each on one keep-alive connection: a client sends its next request
// when the previous answer has arrived, as the screening pipelines and
// dbfilter-style callers of /align and /search do. Request i of client c is
// a pure function of (seed, c, i), so a seed fixes the stream; the program
// receives only the generated bodies. The timed phase sends a fixed stretch
// of each client's stream: rate·--seconds requests per client, where rate
// is the workload's per-client rate on the reference host, so the phase
// lasts about --seconds there, and at least 500, so p99 has ten samples
// beyond it. A fixed stream makes the cache contents, the memory and the GC
// work repeat from run to run; in a time-bounded phase the cache fills as
// far as throughput allows, and memory follows throughput.
//
// # Workloads
//
//   - align-small: POST /align with 8 pairs of 128×256. The even slots come
//     from a 4,096-pair hot set that set-up warms, so they always hit the
//     cache; the odd slots are unique, so they miss and fill it. Serving
//     overhead dominates: HTTP, decode, admission, cache and alignsvc
//     dispatch. Serving-path, codec and cache changes show here; engine
//     changes should barely register.
//   - align-bulk: POST /align with 256 unique pairs at the paper's shape,
//     128×1024 (33.5 M cells). Patterns and texts are windows of one seeded
//     buffer, cheap for the clients that share the cores. The engine and bulk
//     decode dominate; every pair misses, so the cache only adds cost.
//     Wider-SIMD, multi-core and decode/allocation changes show here;
//     query-profile reuse should not, because no pattern repeats.
//   - search: POST /search with top_k 10 against a 20,000 × 128-base index
//     at the default k=6. Every 100th sequence carries a mutated member of
//     one of eight query families. Query lengths cycle 64, 64, 100: 64-base
//     queries run both prefilter stages (bitap refinement dominates), 100-base
//     queries skip stage two and striped scoring dominates. A strict 1:1
//     alternation would put the median in the gap between the two latency
//     modes, where it jumps from run to run. This is the only workload that
//     runs corpus and bitap and scores one query against many texts, where
//     query-profile reuse would show. It bypasses alignsvc and aligncache.
//   - align-cluster: the align-small stream over two in-process nodes, each
//     the default stack plus cluster.New with the other as its peer. Client 0
//     talks to node a, client 1 to node b. It is the only workload that runs
//     ring routing, loopback forwards and owner-side cache hits; against
//     align-small it prices the forward hop. Both nodes share the two cores,
//     so it measures the CPU cost of forwarding, not scale-out.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s (s): from the start of stack construction (listeners,
//     constructors, the second node, corpus.Build and corpus.Open) to the
//     last warm-up answer. Warm-up is a fixed request count that fills the
//     hot set and grows the lazy pools. Input generation and reference
//     scoring are excluded. A run sets up several times and reports the
//     median; the last stack serves the timed phase.
//   - req_per_s (1/s): requests answered 200 and correct per second of
//     wall time, as the median over twenty equal windows of the timed phase,
//     so a burst of load from other tenants of the host, shorter than half
//     the phase, stays out of it.
//   - gcups (GCUPS): DP cells requested per second of wall time, as the same
//     median over windows. On /align the cells are Σ m·n; on /search they
//     are query length × corpus bases, SWAPHI's whole-database convention, so
//     a prefilter that skips more cells raises gcups.
//   - p50_ms, p99_ms (ms): client latency from sending the request to
//     reading the whole answer; a failed request counts as infinitely slow.
//   - rss_peak_mb (MiB): VmHWM of the process at the end of the run.
//
// Every answer is checked as it arrives: status 200, one score per pair,
// at most top_k hits ranked by score then ID. Outside the timed region a
// seeded sample is compared with the oracle: /align scores with swa.Score,
// /search top-K with a scan-all search of the same index (min_kmer_hits and
// max_edits -1) and each hit's score with swa.Score. A mismatch counts the
// request as failed and sets correct to false.
//
// # Traced run (--trace 1)
//
// The traced run is a separate process with the same seed, clients and
// stream. After set-up it runs a fixed number of requests per client from
// the start of the stream with tracing on, so its counts repeat for a seed,
// then continues the stream untraced for as many requests; trace.p50_ms
// minus that phase's p50 is the tracing overhead (trace.overhead_ms). Each
// phase is half as long as the timed phase. End-to-end metrics come only
// from untraced runs.
//
// Each request carries its trace ID in X-Trace-Id. The benchmark times
// every layer from outside, through public functions, and adds no span
// inside the program:
//
//   - A timing handler around server.Handler() records server.handler, and
//     on align-cluster cluster.peer_handler for forwards the peer serves.
//   - The program's own spans (tenant.<id>, alignsvc.queue_wait,
//     alignsvc.process, alignsvc.tier.striped) are read back from the trace
//     rings, which are sized to the run.
//   - A timer around the backend handed to corpus.NewSearcher records
//     corpus.score.
//   - After the requests, public calls with no side effects are timed on
//     the same bodies: JSON decode plus dna.Parse, aligncache.KeyOf, JSON
//     encode of the answer, and on search Corpus.Prefilter with stage two
//     off and on, bitap.MyersMinDistance on the stage-one survivors, and
//     Search on a registry-free searcher (search self time = Search − score).
//   - Counters come from the public Stats() of aligncache, alignsvc
//     (including Striped), cluster and server, the tenant and cache latency
//     histograms of the registry, the corpus Stats of each answer, and
//     runtime/metrics.
//
// Spans are kept in memory and written at the end, one JSON object per
// line after a configuration line, to
// .bench_build/servebench-traces/<workload>-seed<seed>.jsonl (--trace-out).
// Each span has a trace ID, its own ID, its parent (the innermost span of
// the same trace containing it), a name, and start and end in µs.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// Times are means per request that reached the layer; a layer the workload
// bypasses reads 0.
//
//	layer       metrics                                    moves             most work in
//	server      server.handler_ms, server.transport_ms     req_per_s,        align-bulk (decode),
//	            (client latency − handler),                p50_ms            align-small (transport)
//	            server.decode_ms (JSON + dna.Parse),
//	            server.encode_ms, server.req_kb (KiB),
//	            server.rejected (count)
//	runtime     runtime.alloc_kb_per_req (KiB),            p99_ms,           align-bulk, align-small
//	            runtime.gc_cpu_frac, runtime.heap_live_mb  rss_peak_mb
//	tenant      tenant.admit_wait_ms, tenant.shed          p99_ms            align-small, align-cluster
//	                                                                         (≈0 with 2 clients: a canary)
//	aligncache  aligncache.hit_ratio, .evictions,          req_per_s         align-small, align-cluster
//	            .key_ms, .lookup_us (µs)
//	alignsvc    alignsvc.queue_wait_ms, .queue_wait_p99_ms, p50_ms           align-small
//	            .process_ms, .retries, .fallbacks
//	striped     striped.tier_ms, striped.gcups (engine     gcups, req_per_s  align-bulk, the 100-base
//	            cells ÷ engine time), .overflow_ratio,                       search queries
//	            .scalar_fallbacks
//	corpus,     corpus.build_s, corpus.open_s,             setup_s; then     search
//	bitap       corpus.prefilter_ms, corpus.kmer_ms,       req_per_s, p50_ms
//	            bitap.refine_ms, corpus.score_ms,
//	            corpus.search_self_ms, corpus.kmer_pass_rate,
//	            corpus.pass_rate, corpus.scored_cells
//	cluster     cluster.forward_ratio, .peer_hit_ratio,    req_per_s, p50_ms align-cluster
//	            .peer_handler_ms, .fallback_pairs
//	host        host.probe_ms: a fixed standard-library CPU loop timed before and
//	            after the run, to tell host drift from a program change
//	trace       trace.p50_ms, trace.overhead_ms
//
// aligncache.hit_ratio, corpus.kmer_pass_rate, corpus.pass_rate,
// cluster.forward_ratio and striped.overflow_ratio repeat exactly across
// traced runs of one seed. The runtime row counts the clients too, which
// share the process. Search bypasses alignsvc, so there striped.tier_ms and
// striped.gcups come from the timer around the search backend, and the
// striped counters, which only the service exposes, read 0.
//
// # Predictions for the first traced run
//
//  1. On search, corpus.search_self_ms ≈ corpus.prefilter_ms: handleSearch
//     calls Corpus.Prefilter to charge the cell bucket, and Searcher.Search
//     runs it again.
//  2. On align-bulk, decode plus GC cost more CPU than the engine.
//  3. On align-small, engine time (striped.tier_ms) is a small share of the
//     ~0.4 ms p50: overhead, not the engine, dominates a small request.
//
// The benchmark reports these; it changes nothing they reveal.
package main
