package alignsvc

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/obs"
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

// errInjected is the failure flakyBackend injects.
var errInjected = errors.New("injected backend failure")

// flakyBackend fails a seeded share of its calls before they reach the
// engine it wraps, standing in for a backend that rejects a batch.
type flakyBackend struct {
	Backend
	rate   float64
	failed *atomic.Int64 // injected failures, shared by every wrapped backend

	mu  sync.Mutex
	rng *rand.Rand
}

func (b *flakyBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error) {
	b.mu.Lock()
	fail := b.rng.Float64() < b.rate
	b.mu.Unlock()
	if fail {
		b.failed.Add(1)
		return nil, BatchStats{}, errInjected
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// flakyWrap returns a Config.Wrap that fails rate of each backend's calls,
// and the count of failures it injected.
func flakyWrap(rate float64, seed uint64) (func(Backend) Backend, *atomic.Int64) {
	failed := new(atomic.Int64)
	return func(be Backend) Backend {
		seed++
		return &flakyBackend{Backend: be, rate: rate, failed: failed,
			rng: rand.New(rand.NewPCG(seed, 0xf1a4))}
	}, failed
}

// slowBackend holds its caller for hold before scoring, without using CPU,
// and gives up early when the context ends. A non-nil scoring channel
// receives one value as each call starts its hold; closing release ends
// every hold at once.
type slowBackend struct {
	Backend
	hold    time.Duration
	scoring chan<- struct{}
	release <-chan struct{}
}

func (b slowBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error) {
	if b.scoring != nil {
		b.scoring <- struct{}{}
	}
	t := time.NewTimer(b.hold)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, BatchStats{}, ctx.Err()
	case <-t.C:
	case <-b.release:
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

// holdWrap returns a Config.Wrap that holds every batch in its backend
// for a minute, or until release is closed or the context ends, and the
// channel that receives one value as each batch starts scoring. Its
// callers let one batch reach the backend.
func holdWrap(release <-chan struct{}) (func(Backend) Backend, <-chan struct{}) {
	scoring := make(chan struct{}, 1)
	return func(be Backend) Backend {
		return slowBackend{Backend: be, hold: time.Minute, scoring: scoring, release: release}
	}, scoring
}

// peakBackend records the most AlignBatch calls in progress at once,
// across every backend that shares its counters.
type peakBackend struct {
	Backend
	cur, peak *atomic.Int64
}

func (b peakBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error) {
	n := b.cur.Add(1)
	defer b.cur.Add(-1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	return b.Backend.AlignBatch(ctx, pairs, opts)
}

func TestAlignCleanBatch(t *testing.T) {
	s := New(Config{})
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
	if res.Report.Fallbacks != 0 {
		t.Fatalf("clean batch report: %+v", res.Report)
	}
	if st := s.Stats(); st.Batches != 1 || st.Retries != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAlignLanes64(t *testing.T) {
	s := New(Config{Lanes: 64})
	defer s.Close()
	pairs := plantedPairs(96, 16, 32, 3)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
}

// TestAcceptanceFaultyBatches: ≥1k planted pairs in concurrent batches,
// with 30% of backend calls failing, still score exactly. Every failed
// call costs exactly one fallback to the CPU reference, and nothing is
// retried.
func TestAcceptanceFaultyBatches(t *testing.T) {
	wrap, failed := flakyWrap(0.3, 42)
	s := New(Config{Wrap: wrap, Metrics: obs.NewRegistry()})
	defer s.Close()

	const batches, perBatch = 16, 64 // 1024 pairs total
	var wg sync.WaitGroup
	var fellBack atomic.Int64
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
			switch {
			case res.Report.Fallbacks == 1 && res.Report.Tier == TierCPU:
				fellBack.Add(1)
			case res.Report.Fallbacks != 0 || res.Report.Tier != TierBitwise:
				t.Errorf("batch %d report: %s", b, res.Report)
			}
		}(b)
	}
	wg.Wait()

	st := s.Stats()
	if st.Batches != batches {
		t.Fatalf("completed %d batches, want %d (stats %+v)", st.Batches, batches, st)
	}
	if failed.Load() == 0 {
		t.Fatal("no failures injected at a 30% rate")
	}
	if st.Fallbacks != failed.Load() || fellBack.Load() != failed.Load() {
		t.Fatalf("%d injected failures, %d fallbacks counted, %d reported (stats %+v)",
			failed.Load(), st.Fallbacks, fellBack.Load(), st)
	}
	if st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}

// TestRejectedShapeKeepsBitwiseServing is the regression test for a
// deterministic kernel rejection being treated as a device fault. The
// simulated kernels reject m > 1024 on every call; each such batch must be
// answered by one CPU fallback, and must not stop the next valid batch
// from running on the bitwise kernel.
func TestRejectedShapeKeepsBitwiseServing(t *testing.T) {
	s := New(Config{Backend: BackendBitwiseSim, Metrics: obs.NewRegistry()})
	defer s.Close()
	rng := rand.New(rand.NewPCG(1025, 1))
	for i := 0; i < 5; i++ {
		pairs := []dna.Pair{{X: dna.RandSeq(rng, 1025), Y: dna.RandSeq(rng, 1025)}}
		res, err := s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatalf("1025x1025 batch %d: %v", i, err)
		}
		assertScores(t, res.Scores, refScores(pairs))
		if res.Report.Tier != TierCPU || res.Report.Fallbacks != 1 {
			t.Errorf("1025x1025 batch %d: report %s, want the CPU tier after 1 fallback", i, res.Report)
		}
	}
	pairs := plantedPairs(8, 8, 16, 5)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.Tier != TierBitwise || res.Report.Fallbacks != 0 {
		t.Fatalf("valid 8x16 batch: report %s, want bitwise with 0 fallbacks", res.Report)
	}
}

// TestDeadlinePropagates: a deadline that expires while the batch scores
// aborts it with context.DeadlineExceeded, counted once in Stats and once
// in alignsvc_deadline_total.
func TestDeadlinePropagates(t *testing.T) {
	reg := obs.NewRegistry()
	wrap, scoring := holdWrap(nil)
	s := New(Config{Metrics: reg, Wrap: wrap})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := s.Align(ctx, plantedPairs(32, 16, 32, 7))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	select {
	case <-scoring:
	default:
		t.Fatal("the deadline expired before the batch reached its backend")
	}
	s.Close() // every count of this batch is in once Close returns
	if st := s.Stats(); st.DeadlineHits != 1 || st.Cancellations != 0 {
		t.Fatalf("deadline hits %d, cancellations %d, want 1 and 0", st.DeadlineHits, st.Cancellations)
	}
	if c := reg.Counter("alignsvc_deadline_total").Value(); c != 1 {
		t.Fatalf("alignsvc_deadline_total = %d, want 1", c)
	}
}

// TestCancellationPropagates: a context canceled while the batch scores
// aborts it with context.Canceled, counted once in Stats and once in
// alignsvc_canceled_total.
func TestCancellationPropagates(t *testing.T) {
	reg := obs.NewRegistry()
	wrap, scoring := holdWrap(nil)
	s := New(Config{Metrics: reg, Wrap: wrap})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-scoring
		cancel()
	}()
	_, err := s.Align(ctx, plantedPairs(32, 16, 32, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	s.Close() // every count of this batch is in once Close returns
	if st := s.Stats(); st.Cancellations != 1 || st.DeadlineHits != 0 {
		t.Fatalf("cancellations %d, deadline hits %d, want 1 and 0", st.Cancellations, st.DeadlineHits)
	}
	if c := reg.Counter("alignsvc_canceled_total").Value(); c != 1 {
		t.Fatalf("alignsvc_canceled_total = %d, want 1", c)
	}
}

func TestDeviceOOMDegradesToCPU(t *testing.T) {
	cfg := Config{}
	cfg.Pipeline.GlobalBytes = 64 // the bitwise pipeline fails allocation
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
	if res.Report.Fallbacks != 1 {
		t.Fatalf("want 1 fallback (bitwise→cpu), got %d", res.Report.Fallbacks)
	}
	if st := s.Stats(); st.CPUFallbacks != 1 {
		t.Fatalf("CPU fallback not counted: %+v", st)
	}
}

func TestPanicRecovery(t *testing.T) {
	cfg := Config{}
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

// TestAlignBoundsConcurrentBatches: 16 concurrent Aligns on Workers: 2
// all score exactly, and exactly two backend calls run at the peak.
func TestAlignBoundsConcurrentBatches(t *testing.T) {
	var cur, peak atomic.Int64
	s := New(Config{Workers: 2, Metrics: obs.NewRegistry(), Wrap: func(be Backend) Backend {
		return peakBackend{Backend: slowBackend{Backend: be, hold: 10 * time.Millisecond}, cur: &cur, peak: &peak}
	}})
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
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak concurrent backend calls = %d, want Workers = 2", p)
	}
}

// TestCloseRejectsNewWork: with one slot, Close lets the batch holding it
// finish with exact scores and returns only after it; an Align waiting
// for the slot, and every Align after Close, gets ErrClosed.
func TestCloseRejectsNewWork(t *testing.T) {
	release := make(chan struct{})
	wrap, scoring := holdWrap(release)
	s := New(Config{Workers: 1, Metrics: obs.NewRegistry(), Wrap: wrap})

	type result struct {
		res *BatchResult
		err error
	}
	align := func(pairs []dna.Pair) <-chan result {
		done := make(chan result, 1)
		go func() {
			res, err := s.Align(context.Background(), pairs)
			done <- result{res, err}
		}()
		return done
	}
	scored := plantedPairs(32, 8, 16, 1)
	first := align(scored)
	<-scoring // the first batch holds the only slot
	waiting := align(plantedPairs(32, 8, 16, 2))
	select {
	case r := <-waiting:
		t.Fatalf("second Align returned (%v) while the only slot was held", r.err)
	case <-time.After(20 * time.Millisecond):
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	if r := <-waiting; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("Align waiting for the slot: want ErrClosed, got %v", r.err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was scoring")
	default:
	}
	close(release)
	r := <-first
	if r.err != nil {
		t.Fatalf("batch scoring at Close: %v", r.err)
	}
	assertScores(t, r.res.Scores, refScores(scored))
	<-closed
	if _, err := s.Align(context.Background(), plantedPairs(32, 8, 16, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Align after Close: want ErrClosed, got %v", err)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Tier: TierCPU, Fallbacks: 1, CacheHits: 3}
	got := r.String()
	want := "cpu (1 fallbacks, 3 cache hits)"
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
