package alignsvc

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/aligncache"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/swa"
)

// TestServiceExactnessEveryBackend runs every backend through
// Service.AlignBackend, on an uncached and on a cached service, at shapes
// from one cell up to past the simulated kernels' 1024-thread block limit,
// and compares every score with swa.Score. Each batch repeats one pair
// 33 times: one 32-lane group for the striped engine's byte-lane kernel
// plus a leftover for its SSE2 kernel.
//
// The 127×127 and 128×128 pairs are self-alignments scoring 254 and 256
// under PaperScoring, one on each side of the striped engine's 8-bit
// overflow flag at 255. At m = 1025 the simulated pipelines reject the
// launch, so their uncached batches must fall back to the CPU reference
// once; every other uncached batch runs on its own backend's tier.
func TestServiceExactnessEveryBackend(t *testing.T) {
	shapes := []struct {
		m, n int
		self bool // y = x, scoring 2m under PaperScoring
	}{
		{1, 1, false}, {1, 7, false}, {5, 5, false},
		{127, 127, true}, {128, 128, true},
		{129, 300, false}, {1025, 1025, false},
	}
	const copies = 33
	for _, cached := range []bool{false, true} {
		mode := "uncached"
		if cached {
			mode = "cached"
		}
		for _, name := range BackendNames() {
			t.Run(mode+"/"+name, func(t *testing.T) {
				cfg := Config{Metrics: obs.NewRegistry()}
				if cached {
					cfg.Cache = aligncache.New(aligncache.Config{MaxBytes: 1 << 20, Metrics: obs.NewRegistry()})
				}
				s := New(cfg)
				defer s.Close()
				for _, sh := range shapes {
					rng := rand.New(rand.NewPCG(uint64(sh.m), uint64(sh.n)))
					x := dna.RandSeq(rng, sh.m)
					y := dna.RandSeq(rng, sh.n)
					if sh.self {
						y = x.Clone()
					}
					want := swa.Score(x, y, swa.PaperScoring)
					if sh.self && want != 2*sh.m {
						t.Fatalf("%dx%d self-alignment scores %d, want %d", sh.m, sh.n, want, 2*sh.m)
					}
					pairs := make([]dna.Pair, copies)
					for i := range pairs {
						pairs[i] = dna.Pair{X: x, Y: y}
					}
					shape := fmt.Sprintf("%dx%d", sh.m, sh.n)

					res, err := s.AlignBackend(context.Background(), pairs, name)
					if err != nil {
						t.Fatalf("%s: %v", shape, err)
					}
					for i, got := range res.Scores {
						if got != want {
							t.Fatalf("%s pair %d: got %d, want %d (report %s)", shape, i, got, want, res.Report.String())
						}
					}
					if !cached {
						wantTier, _ := backendTier(name)
						wantFallbacks := 0
						simulated := name == BackendBitwiseSim || name == BackendWordwiseSim
						if simulated && sh.m > 1024 {
							wantTier, wantFallbacks = TierCPU, 1
						}
						if res.Report.Tier != wantTier || res.Report.Fallbacks != wantFallbacks {
							t.Fatalf("%s: %s report %s, want %v after %d fallbacks",
								shape, name, res.Report, wantTier, wantFallbacks)
						}
					}
					if !cached {
						continue
					}
					res, err = s.AlignBackend(context.Background(), pairs, name)
					if err != nil {
						t.Fatalf("%s warm: %v", shape, err)
					}
					if res.Report.CacheHits != copies {
						t.Fatalf("%s warm: %d cache hits, want %d", shape, res.Report.CacheHits, copies)
					}
					for i, got := range res.Scores {
						if got != want {
							t.Fatalf("%s warm pair %d: got %d, want %d", shape, i, got, want)
						}
					}
				}
			})
		}
	}
}
