package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/dna"
)

// spec is one workload: the route it drives, the shape of its requests and
// the sizes of its data. The sizes are fields rather than constants so the
// self-tests can run every workload at a tiny size.
type spec struct {
	name    string
	why     string
	route   string // "/align" or "/search"
	cluster bool   // two in-process nodes, client c talks to node c

	// /align shape: pairs per request, pattern and text length, and the
	// hot set half of every request draws from (0 = every pair unique).
	pairs, m, n int
	hotSet      int

	// /search: corpus size and sequence length, query families, the cycle
	// of query lengths and top_k.
	corpusSeqs, seqLen int
	families           int
	queryLens          []int
	topK               int

	// warmReqs is the fixed number of workload-shaped warm-up requests each
	// client sends after the hot set is filled; it grows the lazy pools.
	warmReqs int
	// setups is how many times a run builds and warms the stack; setup_s
	// is their median and the last one serves the timed phase.
	setups int
	// rate is the requests per client per second on the 2-vCPU reference
	// host; a phase of d seconds sends a fixed rate·d requests per client.
	rate int
	// oracleEvery samples every oracleEvery-th request of each client for
	// the out-of-band oracle check; oraclePairs bounds the pairs checked
	// per sampled /align request.
	oracleEvery, oraclePairs int
	// replays bounds how many traced requests the side-effect-free decode,
	// encode, key and prefilter timings are replayed on.
	replays int
}

// bufBases is the length of the seeded base buffer every /align pattern and
// text is a window of: large enough that two random windows coincide with
// negligible probability, small enough to generate in a few milliseconds.
const bufBases = 1 << 22

// workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
var workloads = []spec{
	{
		name:  "align-small",
		why:   "small /align batches, half from a warm hot set: HTTP, decode, admission, cache and dispatch dominate",
		route: "/align", pairs: 8, m: 128, n: 256, hotSet: 4096,
		warmReqs: 200, setups: 7, rate: 1700, oracleEvery: 101, oraclePairs: 8, replays: 128,
	},
	{
		name:  "align-bulk",
		why:   "256-pair /align batches at the paper's 128x1024 shape, all unique: engine and bulk decode dominate",
		route: "/align", pairs: 256, m: 128, n: 1024,
		warmReqs: 4, setups: 9, rate: 45, oracleEvery: 61, oraclePairs: 16, replays: 24,
	},
	{
		name:  "search",
		why:   "top-10 /search over a 20000x128 k=6 index with 64- and 100-base queries: prefilter and one-to-many scoring",
		route: "/search", corpusSeqs: 20000, seqLen: 128, families: 8, queryLens: []int{64, 64, 100}, topK: 10,
		warmReqs: 8, setups: 5, rate: 60, oracleEvery: 67, replays: 48,
	},
	{
		name:  "align-cluster",
		why:   "the align-small stream split over a 2-node in-process cluster: ring routing, loopback forwards, owner-side hits",
		route: "/align", cluster: true, pairs: 8, m: 128, n: 256, hotSet: 4096,
		warmReqs: 200, setups: 5, rate: 850, oracleEvery: 101, oraclePairs: 8, replays: 128,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Stream identifiers keep the sub-streams of one seed independent.
const (
	streamBuf = iota + 1
	streamHot
	streamCorpus
	streamTimed
	streamWarm
)

func newRand(seed uint64, stream, a, b uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^stream*0x9e3779b97f4a7c15, a<<32^b))
}

// inputs is everything one workload run sends, derived from the seed alone.
// The server never sees the seed, only the bodies built from it.
type inputs struct {
	spec spec
	seed uint64

	buf []byte   // ACGT text /align windows are cut from
	hot [][2]int // hot-set pairs as (pattern, text) offsets into buf

	records  []dna.Record // the /search corpus
	families [][]byte     // /search query family parents
}

// familyLen is the length of a /search query family parent; members and
// queries are mutated windows of it.
const familyLen = 112

func newInputs(sp spec, seed uint64) *inputs {
	in := &inputs{spec: sp, seed: seed}
	switch sp.route {
	case "/align":
		rng := newRand(seed, streamBuf, 0, 0)
		in.buf = randBases(rng, bufBases)
		hr := newRand(seed, streamHot, 0, 0)
		in.hot = make([][2]int, sp.hotSet)
		for i := range in.hot {
			in.hot[i] = [2]int{hr.IntN(len(in.buf) - sp.m), hr.IntN(len(in.buf) - sp.n)}
		}
	case "/search":
		rng := newRand(seed, streamCorpus, 0, 0)
		for range sp.families {
			in.families = append(in.families, randBases(rng, familyLen))
		}
		in.records = make([]dna.Record, sp.corpusSeqs)
		for id := range in.records {
			s := randBases(rng, sp.seqLen)
			// Every 100th sequence carries a mutated member of a family,
			// so each query has a few dozen true homologues to rank.
			if id%100 == 0 {
				member := mutate(rng, in.families[(id/100)%sp.families], 0.06)
				copy(s[rng.IntN(sp.seqLen-min(len(member), sp.seqLen)+1):], member)
			}
			seq, err := dna.Parse(string(s))
			if err != nil {
				panic(err) // randBases only emits ACGT
			}
			in.records[id] = dna.Record{Name: "s" + strconv.Itoa(id), Seq: seq}
		}
	}
	return in
}

func randBases(rng *rand.Rand, n int) []byte {
	const acgt = "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = acgt[rng.Uint32()&3]
	}
	return b
}

// mutate returns a copy of s with each base substituted at rate sub.
func mutate(rng *rand.Rand, s []byte, sub float64) []byte {
	const acgt = "ACGT"
	out := append([]byte(nil), s...)
	for i := range out {
		if rng.Float64() < sub {
			b := out[i]
			for b == out[i] {
				b = acgt[rng.IntN(4)]
			}
			out[i] = b
		}
	}
	return out
}

// request is one generated request: its body and what the checker needs to
// know about it. For /align, pairs holds (pattern, text) offsets into buf;
// for /search, query holds the query bases.
type request struct {
	body  []byte
	cells int64 // DP cells requested
	pairs [][2]int
	query string
}

// timedRequest returns request i of client c in the timed stream. The same
// (seed, c, i) always yields the same bytes.
func (in *inputs) timedRequest(c, i int, dst []byte) request {
	return in.build(newRand(in.seed, streamTimed, uint64(c), uint64(i)), i, dst)
}

// warmRequest returns request i of client c in the warm-up stream, which is
// disjoint from the timed stream so warm-up never pre-caches a timed pair.
func (in *inputs) warmRequest(c, i int, dst []byte) request {
	return in.build(newRand(in.seed, streamWarm, uint64(c), uint64(i)), i, dst)
}

func (in *inputs) build(rng *rand.Rand, i int, dst []byte) request {
	sp := in.spec
	if sp.route == "/search" {
		L := sp.queryLens[i%len(sp.queryLens)]
		fam := in.families[rng.IntN(len(in.families))]
		start := rng.IntN(len(fam) - L + 1)
		q := string(mutate(rng, fam[start:start+L], 0.03))
		dst = append(dst[:0], `{"query":"`...)
		dst = append(dst, q...)
		dst = append(dst, `","top_k":`...)
		dst = strconv.AppendInt(dst, int64(sp.topK), 10)
		dst = append(dst, '}')
		return request{body: dst, cells: int64(L) * int64(sp.corpusSeqs*sp.seqLen), query: q}
	}
	pairs := make([][2]int, sp.pairs)
	for j := range pairs {
		// Even slots come from the hot set, odd slots are fresh windows.
		if sp.hotSet > 0 && j%2 == 0 {
			pairs[j] = in.hot[rng.IntN(len(in.hot))]
		} else {
			pairs[j] = [2]int{rng.IntN(len(in.buf) - sp.m), rng.IntN(len(in.buf) - sp.n)}
		}
	}
	return request{body: in.alignBody(pairs, dst), cells: int64(sp.pairs) * int64(sp.m) * int64(sp.n), pairs: pairs}
}

// alignBody renders pairs as a POST /align body into dst.
func (in *inputs) alignBody(pairs [][2]int, dst []byte) []byte {
	dst = append(dst[:0], `{"pairs":[`...)
	for j, p := range pairs {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"x":"`...)
		dst = append(dst, in.buf[p[0]:p[0]+in.spec.m]...)
		dst = append(dst, `","y":"`...)
		dst = append(dst, in.buf[p[1]:p[1]+in.spec.n]...)
		dst = append(dst, `"}`...)
	}
	return append(dst, `]}`...)
}

// hotRequests renders the hot set as warm-up requests of the workload's
// batch size, split round-robin between the clients.
func (in *inputs) hotRequests(clients int) [][]request {
	out := make([][]request, clients)
	for k, lo := 0, 0; lo < len(in.hot); k, lo = k+1, lo+in.spec.pairs {
		pairs := in.hot[lo:min(lo+in.spec.pairs, len(in.hot))]
		out[k%clients] = append(out[k%clients], request{body: in.alignBody(pairs, nil), pairs: pairs})
	}
	return out
}

// pattern and text return the bases of one /align pair.
func (in *inputs) pattern(p [2]int) []byte { return in.buf[p[0] : p[0]+in.spec.m] }
func (in *inputs) text(p [2]int) []byte    { return in.buf[p[1] : p[1]+in.spec.n] }
