package striped

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/dna"
	"repro/internal/swa"
)

// engines returns one engine per kernel path. "auto" uses the assembly
// kernel on amd64 and the portable 8-bit kernel elsewhere; the other two
// force the portable kernels so every architecture exercises all of them.
func engines() map[string]*Engine {
	return map[string]*Engine{
		"auto":     New(Config{}),
		"portable": New(Config{ForcePortable: true}),
		"wide":     New(Config{ForceWide: true}),
	}
}

func randSeq(rng *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(rng.IntN(4))
	}
	return s
}

// TestStripedMatchesReference cross-checks every kernel path against the
// scalar swa.Score oracle on randomized batches, including high-identity
// pairs that force 8-bit overflow and the widening re-pass.
func TestStripedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	es := engines()
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.IntN(150)
		n := 1 + rng.IntN(300)
		pairs := make([]dna.Pair, 1+rng.IntN(5))
		for k := range pairs {
			x := randSeq(rng, m)
			nn := n
			if rng.IntN(3) == 0 {
				nn = 1 + rng.IntN(300) // unequal text lengths break asm pairing
			}
			y := randSeq(rng, nn)
			if rng.IntN(20) == 0 {
				y = append(dna.Seq{}, x...) // identical pair: big score, forces overflow
			}
			pairs[k] = dna.Pair{X: x, Y: y}
		}
		sc := swa.Scoring{Match: 1 + rng.IntN(4), Mismatch: rng.IntN(3), Gap: rng.IntN(3)}
		for name, e := range es {
			got, _, err := e.ScoreBatch(context.Background(), pairs, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, p := range pairs {
				if want := swa.Score(p.X, p.Y, sc); got[i] != want {
					t.Fatalf("%s trial %d pair %d (m=%d n=%d sc=%+v): got %d want %d",
						name, trial, i, len(p.X), len(p.Y), sc, got[i], want)
				}
			}
		}
	}
	// The sweep must actually have exercised the widening ladder.
	if st := es["auto"].Stats(); st.Overflows == 0 || st.WideRepasses == 0 {
		t.Fatalf("sweep never overflowed the narrow kernel: %+v", st)
	}

	// Byte-lane sweep: runs of 32–100 pairs of one shape, with one shared
	// pattern or a pattern per pair, sometimes broken by one odd shape and
	// sometimes carrying identical pairs whose scores overflow 8 bits.
	laneWide := 0
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.IntN(150)
		n := 1 + rng.IntN(300)
		if trial%3 == 0 {
			n = m // room for identical pairs
		}
		count := 32 + rng.IntN(69)
		broken := trial%4 == 1
		if trial%4 == 0 {
			count = 32 * (1 + rng.IntN(3)) // whole groups only
		}
		shared := randSeq(rng, m)
		pairs := make([]dna.Pair, count)
		for k := range pairs {
			x := shared
			if trial%2 == 1 {
				x = randSeq(rng, m)
			}
			y := randSeq(rng, n)
			if n == m && rng.IntN(8) == 0 {
				y = append(dna.Seq{}, x...)
			}
			pairs[k] = dna.Pair{X: x, Y: y}
		}
		if broken {
			odd := rng.IntN(count)
			pairs[odd].Y = randSeq(rng, n+1)
		}
		sc := swa.Scoring{Match: 1 + rng.IntN(4), Mismatch: rng.IntN(3), Gap: rng.IntN(3)}
		for name, e := range es {
			got, info, err := e.ScoreBatch(context.Background(), pairs, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, p := range pairs {
				if want := swa.Score(p.X, p.Y, sc); got[i] != want {
					t.Fatalf("%s lane trial %d pair %d (m=%d n=%d sc=%+v): got %d want %d",
						name, trial, i, len(p.X), len(p.Y), sc, got[i], want)
				}
			}
			if info.LanePairs == len(pairs) {
				laneWide += info.WideRepasses
			}
		}
	}
	if haveLanes {
		if st := es["auto"].Stats(); st.LanePairs == 0 {
			t.Fatalf("AVX2 host but the byte-lane kernel never ran: %+v", st)
		}
		if laneWide == 0 {
			t.Fatal("no flagged byte lane was ever re-scored at 16 bits")
		}
	}
}

// TestOverflowBoundaries pins the widening ladder's trigger points using
// large Match values: a poly-A pair of length L scores exactly L·Match, so
// tiny sequences can straddle each kernel's ceiling deterministically.
func TestOverflowBoundaries(t *testing.T) {
	polyA := func(n int) dna.Seq { return make(dna.Seq, n) }
	cases := []struct {
		name         string
		cfg          Config
		sc           swa.Scoring
		l            int
		wantOverflow bool
		wantScalar   bool
	}{
		// Assembly kernel (amd64 auto path): the conservative overflow
		// tracker flags any add reaching 255, so pin comfortably inside
		// (score 200) and beyond (score 260) the ~254 ceiling.
		{"asm-fits", Config{}, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}, 100, false, false},
		{"asm-overflow", Config{}, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}, 130, true, false},
		// Portable 8-bit kernel: lane capacity 0x7f = 127. The overflow
		// check is conservative (flags any add reaching the top bit), so
		// pin well inside and beyond rather than at 127 exactly.
		{"u8-fits", Config{ForcePortable: true}, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}, 50, false, false},
		{"u8-overflow", Config{ForcePortable: true}, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}, 80, true, false},
		// 16-bit kernel ceiling 0x7fff = 32767: match=1000 over 33 bases
		// scores 33000, overflowing even the wide kernel → scalar fallback.
		{"u16-overflow-scalar", Config{ForceWide: true}, swa.Scoring{Match: 1000, Mismatch: 1, Gap: 1}, 33, true, true},
		{"u16-fits", Config{ForceWide: true}, swa.Scoring{Match: 1000, Mismatch: 1, Gap: 1}, 16, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name[:3] == "asm" && !haveAsm {
				t.Skip("no assembly kernel on this architecture")
			}
			e := New(tc.cfg)
			p := dna.Pair{X: polyA(tc.l), Y: polyA(tc.l)}
			got, info, err := e.ScoreBatch(context.Background(), []dna.Pair{p}, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.l * tc.sc.Match
			if got[0] != want {
				t.Fatalf("score %d, want %d", got[0], want)
			}
			if (info.Overflows > 0) != tc.wantOverflow {
				t.Errorf("overflows=%d, wantOverflow=%v (info %+v)", info.Overflows, tc.wantOverflow, info)
			}
			if (info.ScalarFallbacks > 0) != tc.wantScalar {
				t.Errorf("scalarFallbacks=%d, wantScalar=%v (info %+v)", info.ScalarFallbacks, tc.wantScalar, info)
			}
		})
	}

	// Byte-lane kernel: the flag is per lane, so in one 32-pair group a
	// poly-A lane scoring 200 stays narrow while one scoring 260 widens,
	// alone.
	t.Run("lanes-one-of-32-widens", func(t *testing.T) {
		if !haveLanes {
			t.Skip("no AVX2 on this host")
		}
		const l = 130
		rng := rand.New(rand.NewPCG(3, 3))
		sc := swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}
		pairs := make([]dna.Pair, laneWidth)
		for k := range pairs {
			pairs[k] = dna.Pair{X: randSeq(rng, l), Y: randSeq(rng, l)}
		}
		polyA := make(dna.Seq, l)
		fits := make(dna.Seq, 100, l)
		for len(fits) < l {
			fits = append(fits, dna.C) // 100 A then C: scores 200
		}
		pairs[3] = dna.Pair{X: polyA, Y: fits}
		pairs[17] = dna.Pair{X: polyA, Y: polyA} // scores 260
		got, info, err := New(Config{}).ScoreBatch(context.Background(), pairs, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if want := swa.Score(p.X, p.Y, sc); got[i] != want {
				t.Fatalf("pair %d: got %d want %d", i, got[i], want)
			}
		}
		if got[3] != 200 || got[17] != 260 {
			t.Fatalf("poly-A lanes scored %d and %d, want 200 and 260", got[3], got[17])
		}
		if info.LanePairs != laneWidth || info.Overflows != 1 || info.WideRepasses != 1 || info.ScalarFallbacks != 0 {
			t.Fatalf("want one group with exactly one widened lane, got %+v", info)
		}
	})
}

// TestScoringTooLargeForLanes verifies that scoring parameters beyond every
// lane width route straight to the scalar reference and stay exact.
func TestScoringTooLargeForLanes(t *testing.T) {
	sc := swa.Scoring{Match: 40000, Mismatch: 1, Gap: 1}
	rng := rand.New(rand.NewPCG(2, 2))
	p := dna.Pair{X: randSeq(rng, 40), Y: randSeq(rng, 60)}
	got, info, err := New(Config{}).ScoreBatch(context.Background(), []dna.Pair{p}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := swa.Score(p.X, p.Y, sc); got[0] != want {
		t.Fatalf("got %d want %d", got[0], want)
	}
	if info.KernelPairs != 0 || info.ScalarFallbacks != 1 {
		t.Fatalf("expected pure scalar batch, got %+v", info)
	}
}

// TestEdgeShapes covers empty sequences, single bases, gap=0 scoring and
// odd batch shapes (the assembly kernel pairs problems two at a time).
func TestEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	scs := []swa.Scoring{
		{Match: 2, Mismatch: 1, Gap: 1},
		{Match: 1, Mismatch: 0, Gap: 0},
		{Match: 3, Mismatch: 2, Gap: 0},
	}
	batches := [][]dna.Pair{
		{},
		{{X: dna.Seq{}, Y: randSeq(rng, 5)}},
		{{X: randSeq(rng, 5), Y: dna.Seq{}}},
		{{X: dna.Seq{0}, Y: dna.Seq{0}}},
		{{X: dna.Seq{0}, Y: dna.Seq{1}}},
		// Odd count with equal text lengths: last asm group is a solo.
		{
			{X: randSeq(rng, 33), Y: randSeq(rng, 47)},
			{X: randSeq(rng, 17), Y: randSeq(rng, 47)},
			{X: randSeq(rng, 64), Y: randSeq(rng, 47)},
		},
		// Empty pair between two full ones breaks adjacency grouping.
		{
			{X: randSeq(rng, 20), Y: randSeq(rng, 30)},
			{X: dna.Seq{}, Y: dna.Seq{}},
			{X: randSeq(rng, 20), Y: randSeq(rng, 30)},
		},
	}
	// Byte-lane groups at the kernel's row-loop edges (one row, an even
	// count, an odd tail) and of empty pairs, which stay off the kernel.
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {2, 1}, {3, 9}, {0, 5}, {4, 0}} {
		group := make([]dna.Pair, laneWidth)
		for k := range group {
			group[k] = dna.Pair{X: randSeq(rng, shape[0]), Y: randSeq(rng, shape[1])}
		}
		batches = append(batches, group)
	}
	for name, e := range engines() {
		for bi, pairs := range batches {
			for _, sc := range scs {
				got, _, err := e.ScoreBatch(context.Background(), pairs, sc)
				if err != nil {
					t.Fatalf("%s batch %d: %v", name, bi, err)
				}
				for i, p := range pairs {
					if want := swa.Score(p.X, p.Y, sc); got[i] != want {
						t.Fatalf("%s batch %d pair %d sc=%+v: got %d want %d", name, bi, i, sc, got[i], want)
					}
				}
			}
		}
	}
}

// TestInvalidInputs checks the argument validation paths.
func TestInvalidInputs(t *testing.T) {
	e := New(Config{})
	if _, err := e.ScoreBatchInto(context.Background(), make([]int, 2), make([]dna.Pair, 3), swa.Scoring{Match: 1}); err == nil {
		t.Fatal("dst length mismatch not rejected")
	} else if err.Error() == "" {
		t.Fatal("empty error message")
	}
	if _, _, err := e.ScoreBatch(context.Background(), nil, swa.Scoring{Match: 0}); err == nil {
		t.Fatal("invalid scoring not rejected")
	}
}

// countdownCtx reports context.Canceled from Err after n polls. Done never
// closes, so only code that polls Err sees the cancellation — which is
// exactly the seam under test.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestContextCancelAborts verifies a cancelled context aborts the batch
// between pairs and mid-pair (between column chunks of a long text).
func TestContextCancelAborts(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := []dna.Pair{{X: randSeq(rng, 10), Y: randSeq(rng, 10)}}
	for name, e := range engines() {
		if _, _, err := e.ScoreBatch(ctx, pairs, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled ctx: err = %v", name, err)
		}
	}

	// A single pair large enough to span several pollCells chunks: the
	// countdown lets the batch start, then cancels between chunks.
	big := dna.Pair{X: randSeq(rng, 4096), Y: randSeq(rng, 8192)} // 32 Mcells ≈ 8 chunks
	for name, e := range engines() {
		cctx := &countdownCtx{Context: context.Background(), left: 3}
		_, _, err := e.ScoreBatch(cctx, []dna.Pair{big}, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-pair cancel: err = %v", name, err)
		}
	}

	// A byte-lane group of 32 pairs of 1024×1024, 8 column chunks: it must
	// honour a cancelled context before its first chunk and between chunks.
	group := make([]dna.Pair, laneWidth)
	for k := range group {
		group[k] = dna.Pair{X: randSeq(rng, 1024), Y: randSeq(rng, 1024)}
	}
	for name, e := range engines() {
		if _, _, err := e.ScoreBatch(ctx, group, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled lane group: err = %v", name, err)
		}
		cctx := &countdownCtx{Context: context.Background(), left: 3}
		info, err := e.ScoreBatchInto(cctx, make([]int, laneWidth), group, swa.Scoring{Match: 2, Mismatch: 1, Gap: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-group cancel: err = %v", name, err)
		}
		if name == "auto" && haveLanes && info.LanePairs != 0 {
			t.Fatalf("cancelled lane group reported as served: %+v", info)
		}
	}
}

// TestStatsAccumulate checks the engine-level counters sum across batches.
func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	e := New(Config{})
	sc := swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}
	for b := 0; b < 3; b++ {
		pairs := []dna.Pair{
			{X: randSeq(rng, 30), Y: randSeq(rng, 30)},
			{X: randSeq(rng, 30), Y: randSeq(rng, 30)},
		}
		if _, _, err := e.ScoreBatch(context.Background(), pairs, sc); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Pairs != 6 {
		t.Fatalf("Pairs = %d, want 6: %+v", st.Pairs, st)
	}
	if st.KernelCalls != 6 {
		t.Fatalf("KernelCalls = %d, want 6: %+v", st.KernelCalls, st)
	}
}

// TestZeroSteadyStateAllocs is the allocation gate: a warm engine scoring
// into a caller-owned dst must not allocate. Runs under -race in CI. The
// pool is bypassed with a private scratch so the measurement is
// deterministic (sync.Pool can legitimately miss under GC pressure).
func TestZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	small := []dna.Pair{
		{X: randSeq(rng, 64), Y: randSeq(rng, 96)},
		{X: randSeq(rng, 64), Y: randSeq(rng, 96)},
	}
	lanes := make([]dna.Pair, 2*laneWidth) // two byte-lane groups on AVX2
	for k := range lanes {
		lanes[k] = dna.Pair{X: randSeq(rng, 64), Y: randSeq(rng, 96)}
	}
	sc := swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}
	for _, pairs := range [][]dna.Pair{small, lanes} {
		dst := make([]int, len(pairs))
		for name, e := range engines() {
			sr := &scratch{}
			var info BatchInfo
			warm := func() {
				if err := e.scoreBatch(context.Background(), sr, dst, pairs, sc, &info); err != nil {
					t.Fatal(err)
				}
			}
			warm()
			if n := testing.AllocsPerRun(100, warm); n != 0 {
				t.Fatalf("%s, %d pairs: %v allocs per warm batch, want 0", name, len(pairs), n)
			}
		}
	}
}

// TestPortableMatchesAsm cross-checks the two 8-bit implementations on
// amd64 (elsewhere both configs run the same portable kernel and the test
// is a tautology that still passes).
func TestPortableMatchesAsm(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	a := New(Config{})
	p := New(Config{ForcePortable: true})
	sc := swa.Scoring{Match: 2, Mismatch: 1, Gap: 1}
	for trial := 0; trial < 200; trial++ {
		pairs := []dna.Pair{
			{X: randSeq(rng, 1+rng.IntN(100)), Y: randSeq(rng, 1+rng.IntN(200))},
			{X: randSeq(rng, 1+rng.IntN(100)), Y: randSeq(rng, 1+rng.IntN(200))},
		}
		ga, _, err := a.ScoreBatch(context.Background(), pairs, sc)
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := p.ScoreBatch(context.Background(), pairs, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			if ga[i] != gp[i] {
				t.Fatalf("trial %d pair %d: asm %d != portable %d", trial, i, ga[i], gp[i])
			}
		}
	}
}
