// Package repro reproduces "Accelerating the Smith-Waterman Algorithm Using
// Bitwise Parallel Bulk Computation Technique on GPU" (Nishimura, Bordim,
// Ito, Nakano — IPDPS Workshops 2017) as a Go library.
//
// The paper's idea is Bitwise Parallel Bulk Computation (BPBC): instead of
// computing one Smith-Waterman DP matrix at a time, pack one bit from each of
// W independent alignment problems into each machine word and evaluate the
// DP cell as a Boolean circuit over those words, so every word operation
// advances W alignments at once. This repository rebuilds that stack in Go,
// substituting a cycle-accurate GPU simulator (internal/cudasim +
// internal/perfmodel) for the paper's GTX hardware; DESIGN.md makes the
// substitution argument precise.
//
// # Layer map
//
// From the bottom up (the full dependency diagram is in DESIGN.md §0):
//
//   - internal/word, internal/bitslice, internal/bitmat — machine words,
//     bit-sliced arithmetic (ripple adders, saturating max, the paper's
//     Lemma constructions), and bit-matrix transposes.
//   - internal/dna, internal/alphabet, internal/swa — sequences, scoring
//     schemes, and the scalar reference Smith-Waterman that every engine is
//     validated against.
//   - internal/bpbc — the CPU BPBC engine: lane grouping, word-to-bit
//     transposes, the bit-sliced DP, and pooled per-group scratch so the
//     steady state allocates nothing per group.
//   - internal/cudasim, internal/kernels, internal/pipeline — the simulated
//     GPU, the four SW kernel families, and the five-stage
//     host→device→kernel→device→host pipeline of the paper's Table IV.
//   - internal/alignsvc, internal/aligncache, internal/server,
//     internal/jobs — the serving layer: a batch service whose failed
//     batches fall back once to the scalar reference, a content-addressed
//     score cache, the HTTP front end, and durable WAL-backed async
//     alignment and search jobs that resume from their checkpoints.
//   - internal/bench, internal/tables, internal/stats — measurement:
//     machine-readable benchmark documents and the paper's tables/figures.
//
// # Entry points
//
// Command-line tools live under cmd/: swalign (one-shot alignment), swabench
// (tables, figures, and BENCH_pipeline.json), swaserver (the HTTP service,
// including the -cache-bytes/-cache-ttl score-cache flags),
// bpbcdemo and dbfilter. Runnable walkthroughs are under examples/
// (quickstart, dbscreen, proteinscreen, gpusim, circuitdemo, gameoflife).
// The benchmark harness that regenerates every table and figure of the
// paper is bench_test.go (run `go test -bench .`) and cmd/swabench.
//
// Example_bulkScores and Example_alignService in example_test.go show the
// two APIs most callers want: scoring a batch on the CPU BPBC engine, and
// running batches through the cached, fault-tolerant service.
//
// See README.md for an overview, DESIGN.md for the system inventory and the
// hardware-substitution argument, and EXPERIMENTS.md for paper-vs-measured
// results (including the score cache's ~100× win on duplicate-heavy
// workloads).
package repro
