package alignsvc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/aligncache"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/swa"
)

// TestBackendLadderSelection verifies each configured backend serves clean
// batches on its own tier with exact scores and no fallback.
func TestBackendLadderSelection(t *testing.T) {
	cases := []struct {
		backend string
		tier    Tier
	}{
		{"", TierBitwise},
		{BackendBitwiseSim, TierBitwise},
		{BackendWordwiseSim, TierWordwise},
		{BackendStriped, TierStriped},
		{BackendCPURef, TierCPU},
	}
	pairs := plantedPairs(32, 24, 48, 7)
	want := refScores(pairs)
	for _, tc := range cases {
		t.Run("backend="+tc.backend, func(t *testing.T) {
			s := New(Config{Backend: tc.backend, Metrics: obs.NewRegistry()})
			defer s.Close()
			res, err := s.Align(context.Background(), pairs)
			if err != nil {
				t.Fatal(err)
			}
			assertScores(t, res.Scores, want)
			if res.Report.Tier != tc.tier {
				t.Fatalf("served by %v, want %v", res.Report.Tier, tc.tier)
			}
			if res.Report.Fallbacks != 0 {
				t.Fatalf("clean batch fell back: %s", res.Report)
			}
			st := s.Stats()
			wantName := tc.backend
			if wantName == "" {
				wantName = BackendBitwiseSim
			}
			if st.Backend != wantName {
				t.Fatalf("Stats.Backend = %q, want %q", st.Backend, wantName)
			}
			if tc.tier == TierStriped && (st.Striped == nil || st.Striped.Pairs == 0) {
				t.Fatalf("striped stats not populated: %+v", st.Striped)
			}
		})
	}
}

// TestNewPanicsOnUnknownBackend pins the fail-fast contract: a misspelled
// backend must not silently serve with a different engine.
func TestNewPanicsOnUnknownBackend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unknown backend")
		}
	}()
	New(Config{Backend: "stripd"})
}

// TestAlignBackendOverride verifies per-request backend selection on a
// running service, including rejection of unknown names.
func TestAlignBackendOverride(t *testing.T) {
	s := New(Config{Backend: BackendStriped, Metrics: obs.NewRegistry()})
	defer s.Close()
	pairs := plantedPairs(16, 20, 40, 9)
	want := refScores(pairs)

	for _, tc := range []struct {
		backend string
		tier    Tier
	}{
		{BackendCPURef, TierCPU},
		{BackendBitwiseSim, TierBitwise},
		{BackendStriped, TierStriped},
	} {
		res, err := s.AlignBackend(context.Background(), pairs, tc.backend)
		if err != nil {
			t.Fatalf("%s: %v", tc.backend, err)
		}
		assertScores(t, res.Scores, want)
		if res.Report.Tier != tc.tier {
			t.Fatalf("%s served by %v, want %v", tc.backend, res.Report.Tier, tc.tier)
		}
	}
	if _, err := s.AlignBackend(context.Background(), pairs, "gpu-magic"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The override must not change the configured default.
	if st := s.Stats(); st.Backend != BackendStriped {
		t.Fatalf("Stats.Backend = %q after overrides, want %q", st.Backend, BackendStriped)
	}
}

// TestStripedLadderShape pins the path of a failing batch: a striped batch
// whose engine fails is scored once by the CPU reference. So is a cpu-ref
// batch whose wrapped backend fails, because Config.Wrap never wraps the
// fallback.
func TestStripedLadderShape(t *testing.T) {
	wrap, failed := flakyWrap(1, 5)
	s := New(Config{Backend: BackendStriped, Wrap: wrap, Metrics: obs.NewRegistry()})
	defer s.Close()
	pairs := plantedPairs(16, 20, 40, 11)
	for _, backend := range []string{BackendStriped, BackendCPURef} {
		res, err := s.AlignBackend(context.Background(), pairs, backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		assertScores(t, res.Scores, refScores(pairs))
		if res.Report.Tier != TierCPU || res.Report.Fallbacks != 1 {
			t.Fatalf("%s: report %s, want cpu after 1 fallback", backend, res.Report)
		}
	}
	if st := s.Stats(); failed.Load() != 2 || st.Fallbacks != 2 || st.Striped.Pairs != 0 {
		t.Fatalf("%d injected failures, stats %+v", failed.Load(), st)
	}
}

// countdownErrCtx cancels after n Err() polls; Done() never closes, so only
// poll sites observe the cancellation — which is exactly the regression
// surface: a tight scoring loop that never polls would hang the batch.
type countdownErrCtx struct {
	context.Context
	left int
}

func (c *countdownErrCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCPUBackendAbortsMidBatch is the regression test for the CPU
// fallback's cancellation latency: a context cancelled mid-batch must abort
// between pairs (the reference polls every cpuPollCells cells, not only at
// batch start) and surface a typed *AbortError that unwraps to the context
// error, with the abort position in range.
func TestCPUBackendAbortsMidBatch(t *testing.T) {
	s := New(Config{Backend: BackendCPURef, Metrics: obs.NewRegistry()})
	defer s.Close()
	// 64 pairs of 100×100 cells: ~6 pairs per cpuPollCells poll window.
	pairs := plantedPairs(64, 100, 100, 3)
	ctx := &countdownErrCtx{Context: context.Background(), left: 4}
	_, err := s.Align(ctx, pairs)
	if err == nil {
		t.Fatal("cancelled batch succeeded")
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v (%T), want *AbortError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AbortError does not unwrap to context.Canceled: %v", err)
	}
	if ab.Scored <= 0 || ab.Scored >= len(pairs) {
		t.Fatalf("abort position %d not strictly mid-batch (n=%d)", ab.Scored, len(pairs))
	}
	if st := s.Stats(); st.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1", st.Cancellations)
	}
}

// TestBackendExactnessOracle is the cross-backend oracle: every backend,
// constructed standalone via NewBackend, must return byte-identical scores
// to the scalar swa.Score reference on randomized batches. This is the
// invariant that lets the score cache omit the backend from its key.
func TestBackendExactnessOracle(t *testing.T) {
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			b, err := NewBackend(name, pipeline.Config{Metrics: obs.NewRegistry()}, 32)
			if err != nil {
				t.Fatal(err)
			}
			if b.Name() != name {
				t.Fatalf("Name() = %q", b.Name())
			}
			for trial := 0; trial < 10; trial++ {
				pairs := plantedPairs(8, 16+7*trial, 32+11*trial, uint64(trial))
				scores, _, err := b.AlignBatch(context.Background(), pairs, BatchOpts{})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for i, p := range pairs {
					if want := swa.Score(p.X, p.Y, swa.PaperScoring); scores[i] != want {
						t.Fatalf("trial %d pair %d: got %d want %d", trial, i, scores[i], want)
					}
				}
			}
		})
	}
	if _, err := NewBackend("nope", pipeline.Config{}, 32); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestCacheSharedAcrossBackends verifies the documented cache invariant
// (see aligncache.KeyOf): entries filled by the striped backend serve
// bitwise-sim requests byte-identically, because the key excludes the
// backend on purpose.
func TestCacheSharedAcrossBackends(t *testing.T) {
	cache := aligncache.New(aligncache.Config{MaxBytes: 1 << 20, Metrics: obs.NewRegistry()})
	pairs := plantedPairs(24, 32, 64, 13)
	want := refScores(pairs)

	fill := New(Config{Backend: BackendStriped, Cache: cache, Metrics: obs.NewRegistry()})
	res, err := fill.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.Tier != TierStriped {
		t.Fatalf("fill served by %v, want striped", res.Report.Tier)
	}
	fill.Close()

	serve := New(Config{Backend: BackendBitwiseSim, Cache: cache, Metrics: obs.NewRegistry()})
	defer serve.Close()
	res2, err := serve.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res2.Scores, want)
	if res2.Report.CacheHits != len(pairs) {
		t.Fatalf("CacheHits = %d, want %d (striped-filled entries must serve bitwise-sim)",
			res2.Report.CacheHits, len(pairs))
	}
	if st := serve.Stats(); st.Batches != 0 {
		t.Fatalf("cached batch still reached a backend: %+v", st)
	}

	// And the reverse direction: bitwise-filled entries serve striped.
	extra := plantedPairs(8, 40, 40, 17)
	if _, err := serve.Align(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	res3, err := fillAgain(cache, extra)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Report.CacheHits != len(extra) {
		t.Fatalf("reverse CacheHits = %d, want %d", res3.Report.CacheHits, len(extra))
	}
	if res3.Report.Tier != TierStriped {
		t.Fatalf("a fully cached batch reports tier %v, want the striped backend it asked for", res3.Report.Tier)
	}
	assertScores(t, res3.Scores, refScores(extra))
}

func fillAgain(cache *aligncache.Cache, pairs []dna.Pair) (*BatchResult, error) {
	s := New(Config{Backend: BackendStriped, Cache: cache, Metrics: obs.NewRegistry()})
	defer s.Close()
	return s.Align(context.Background(), pairs)
}
