package alignsvc

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/swa"
)

func plantedPairs(count, m, n int, seed uint64) []dna.Pair {
	rng := rand.New(rand.NewPCG(seed, 0))
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	return dna.PlantedPairs(rng, count, m, n, 0.2, mut)
}

func refScores(pairs []dna.Pair) []int {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return out
}

func assertScores(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d scores, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAlignCleanBatch(t *testing.T) {
	s := New(Config{Seed: 1})
	defer s.Close()
	pairs := plantedPairs(64, 16, 32, 2)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierBitwise {
		t.Fatalf("clean batch served by %v, want bitwise", res.Report.Tier)
	}
	if len(res.Report.Attempts) != 1 || res.Report.Retries != 0 || res.Report.Fallbacks != 0 {
		t.Fatalf("clean batch report: %+v", res.Report)
	}
	if st := s.Stats(); st.Batches != 1 || st.Retries != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAlignLanes64(t *testing.T) {
	s := New(Config{Seed: 1, Lanes: 64})
	defer s.Close()
	pairs := plantedPairs(96, 16, 32, 3)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
}

// TestAcceptanceFaultyBatches is the issue's acceptance scenario: ≥1k
// planted pairs at a 30% transfer/kernel fault rate still score exactly,
// with retries and at least one fallback tier exercised along the way.
func TestAcceptanceFaultyBatches(t *testing.T) {
	s := New(Config{
		Seed:         42,
		ValidateFrac: 1, // catch every injected bit flip
		MaxAttempts:  3,
		BaseBackoff:  50 * time.Microsecond,
		MaxBackoff:   500 * time.Microsecond,
		Faults: cudasim.FaultConfig{
			Seed:    42,
			HtoD:    0.3,
			DtoH:    0.3,
			Launch:  0.3,
			BitFlip: 0.3,
		},
	})
	defer s.Close()

	const batches, perBatch = 16, 64 // 1024 pairs total
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sawFallback, sawRetry bool
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			pairs := plantedPairs(perBatch, 16, 32, uint64(100+b))
			res, err := s.Align(context.Background(), pairs)
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			assertScores(t, res.Scores, refScores(pairs))
			mu.Lock()
			sawFallback = sawFallback || res.Report.Fallbacks > 0
			sawRetry = sawRetry || res.Report.Retries > 0
			mu.Unlock()
		}(b)
	}
	wg.Wait()

	st := s.Stats()
	if st.Batches != batches {
		t.Fatalf("completed %d batches, want %d (stats %+v)", st.Batches, batches, st)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("no faults injected at 30% rates")
	}
	if !sawRetry || st.Retries == 0 {
		t.Fatalf("no retries exercised (stats %+v)", st)
	}
	if !sawFallback || st.Fallbacks == 0 {
		t.Fatalf("no fallback tier exercised (stats %+v)", st)
	}
	t.Logf("stats after %d faulty batches: %+v", batches, st)
}

func TestDeadlinePropagates(t *testing.T) {
	s := New(Config{Seed: 9})
	defer s.Close()
	pairs := plantedPairs(256, 32, 256, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := s.Align(ctx, pairs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if st := s.Stats(); st.DeadlineHits == 0 {
		t.Fatalf("deadline hit not counted: %+v", st)
	}
}

func TestCancellationPropagates(t *testing.T) {
	s := New(Config{Seed: 9})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Align(ctx, plantedPairs(32, 16, 32, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDeviceOOMDegradesToCPU(t *testing.T) {
	cfg := Config{Seed: 3, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 50 * time.Microsecond}
	cfg.Pipeline.GlobalBytes = 64 // both GPU tiers fail allocation
	s := New(cfg)
	defer s.Close()
	pairs := plantedPairs(64, 16, 32, 5)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierCPU {
		t.Fatalf("OOM batch served by %v, want cpu", res.Report.Tier)
	}
	if res.Report.Fallbacks != 2 {
		t.Fatalf("want 2 fallbacks (bitwise→wordwise→cpu), got %d", res.Report.Fallbacks)
	}
	if st := s.Stats(); st.CPUFallbacks != 1 {
		t.Fatalf("CPU fallback not counted: %+v", st)
	}
}

func TestPanicRecovery(t *testing.T) {
	cfg := Config{Seed: 3, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 50 * time.Microsecond}
	cfg.Pipeline.GlobalBytes = -1 // make([]byte, -1) panics inside the run
	s := New(cfg)
	defer s.Close()
	pairs := plantedPairs(64, 16, 32, 6)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierCPU {
		t.Fatalf("panicking batch served by %v, want cpu", res.Report.Tier)
	}
	if st := s.Stats(); st.PanicsRecovered == 0 {
		t.Fatalf("panics not recovered/counted: %+v", st)
	}
}

func TestValidationCatchesBitFlips(t *testing.T) {
	s := New(Config{
		Seed:         11,
		ValidateFrac: 1,
		BaseBackoff:  10 * time.Microsecond,
		MaxBackoff:   50 * time.Microsecond,
		// Every transfer flips one bit: the G2H download always corrupts
		// some score, so every GPU attempt must fail validation.
		Faults: cudasim.FaultConfig{Seed: 11, BitFlip: 1},
	})
	defer s.Close()
	pairs := plantedPairs(64, 16, 32, 9) // full lane groups: no padding lanes
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierCPU {
		t.Fatalf("bit-flipped batch served by %v, want cpu", res.Report.Tier)
	}
	var sawValidationFailure bool
	for _, a := range res.Report.Attempts {
		sawValidationFailure = sawValidationFailure || a.ValidationFailed
	}
	if !sawValidationFailure {
		t.Fatalf("no attempt flagged ValidationFailed: %+v", res.Report.Attempts)
	}
	if res.Report.Faults.BitFlips == 0 {
		t.Fatalf("bit flips not reported: %+v", res.Report.Faults)
	}
}

func TestBackoffShape(t *testing.T) {
	var mu sync.Mutex
	var slept []time.Duration
	cfg := Config{
		Seed:        1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		MaxAttempts: 4,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return ctx.Err()
		},
	}
	cfg.Pipeline.GlobalBytes = 64 // force retries on both GPU tiers
	s := New(cfg)
	defer s.Close()
	if _, err := s.Align(context.Background(), plantedPairs(32, 16, 32, 4)); err != nil {
		t.Fatal(err)
	}
	// 3 backoffs per GPU tier (4 attempts each), none after the last
	// attempt of a tier or on the CPU rung.
	if len(slept) != 6 {
		t.Fatalf("expected 6 backoff sleeps, got %d: %v", len(slept), slept)
	}
	for i, d := range slept {
		if d < cfg.BaseBackoff/2 || d > cfg.MaxBackoff {
			t.Fatalf("sleep %d = %v outside [base/2, max]", i, d)
		}
	}
}

func TestWorkerPoolConcurrency(t *testing.T) {
	s := New(Config{Seed: 2, Workers: 2, Queue: 1})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pairs := plantedPairs(32, 8, 16, uint64(i))
			res, err := s.Align(context.Background(), pairs)
			if err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			assertScores(t, res.Scores, refScores(pairs))
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Batches != 16 {
		t.Fatalf("want 16 batches, got %+v", st)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{Seed: 1})
	s.Close()
	if _, err := s.Align(context.Background(), plantedPairs(32, 8, 16, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Tier: TierCPU,
		Attempts: []Attempt{
			{Tier: TierBitwise, Err: "x"}, {Tier: TierBitwise, Err: "y"},
			{Tier: TierWordwise, Err: "z"}, {Tier: TierCPU},
		},
		Retries: 1, Fallbacks: 2,
		Faults: cudasim.FaultCounts{HtoD: 2, Launch: 1},
	}
	got := r.String()
	want := "bitwise×2 → wordwise×1 → cpu×1 ok=cpu (1 retries, 2 fallbacks, 3 faults)"
	if got != want {
		t.Fatalf("Report.String() = %q, want %q", got, want)
	}
}

func TestCells(t *testing.T) {
	mk := func(s string) dna.Seq {
		p, err := dna.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pairs := []dna.Pair{
		{X: mk("ACGT"), Y: mk("ACGTACGT")}, // 4·8 = 32
		{X: mk("A"), Y: mk("ACG")},         // 1·3 = 3
	}
	if got := Cells(pairs); got != 35 {
		t.Fatalf("Cells = %d, want 35", got)
	}
	if got := Cells(nil); got != 0 {
		t.Fatalf("Cells(nil) = %d, want 0", got)
	}
}
