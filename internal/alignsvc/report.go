package alignsvc

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cudasim"
	"repro/internal/striped"
)

// Tier identifies one rung of a degradation ladder. The ladder a batch
// walks is chosen by its backend (see Backend); the numeric order here is
// storage layout, not ladder order — wire formats carry tiers by name.
type Tier int

const (
	// TierBitwise is the paper's five-step BPBC GPU pipeline.
	TierBitwise Tier = iota
	// TierWordwise is the conventional wordwise GPU baseline.
	TierWordwise
	// TierCPU is the swa.Score reference on the host; it cannot produce a
	// wrong score and only fails on cancellation.
	TierCPU
	// TierStriped is the native striped CPU engine (internal/striped):
	// exact like TierCPU, at wall-clock GCUPS. It heads the "striped"
	// backend's ladder. (Declared after TierCPU so the older tiers keep
	// their values; order here is not ladder order.)
	TierStriped
	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierBitwise:
		return "bitwise"
	case TierWordwise:
		return "wordwise"
	case TierCPU:
		return "cpu"
	case TierStriped:
		return "striped"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier is the inverse of Tier.String.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "bitwise":
		return TierBitwise, nil
	case "wordwise":
		return TierWordwise, nil
	case "cpu":
		return TierCPU, nil
	case "striped":
		return TierStriped, nil
	}
	return 0, fmt.Errorf("alignsvc: unknown tier %q", s)
}

// Attempt records one try of one tier for a batch.
type Attempt struct {
	Tier             Tier
	Err              string // "" on success
	ValidationFailed bool   // scores came back but disagreed with the reference sample
	Faults           cudasim.FaultCounts
}

// Report is the per-batch account of what the service did: every attempt,
// the tier that finally produced the scores, and the fault/retry tallies.
//
// With the score cache enabled, CacheHits pairs were served from stored
// scores and CacheCoalesced pairs piggybacked on another batch's in-flight
// computation; neither group touched the ladder. When every pair was served
// from the cache, Attempts is empty and Tier carries no information.
type Report struct {
	Tier      Tier // tier whose scores were returned
	Attempts  []Attempt
	Retries   int    // same-tier re-runs after a failure
	Fallbacks int    // tier downgrades after exhausting a tier's attempts
	Skips     []Tier // tiers skipped because their circuit breaker was open
	Faults    cudasim.FaultCounts
	Validated int           // pairs re-scored on the CPU for validation
	Elapsed   time.Duration // wall time from dequeue to scores

	CacheHits      int // pairs served from the score cache
	CacheCoalesced int // pairs that waited on another batch's computation
}

// String renders a one-line summary, e.g.
// "bitwise×2 → wordwise×1 → cpu ok (2 retries, 2 fallbacks, 5 faults)".
func (r Report) String() string {
	var b strings.Builder
	var runs []string
	i := 0
	for i < len(r.Attempts) {
		j := i
		for j < len(r.Attempts) && r.Attempts[j].Tier == r.Attempts[i].Tier {
			j++
		}
		runs = append(runs, fmt.Sprintf("%s×%d", r.Attempts[i].Tier, j-i))
		i = j
	}
	if r.CacheHits > 0 || r.CacheCoalesced > 0 {
		runs = append([]string{fmt.Sprintf("cache×%d", r.CacheHits+r.CacheCoalesced)}, runs...)
	}
	b.WriteString(strings.Join(runs, " → "))
	fmt.Fprintf(&b, " ok=%s (%d retries, %d fallbacks, %d faults)",
		r.Tier, r.Retries, r.Fallbacks, r.Faults.Total())
	if len(r.Skips) > 0 {
		var names []string
		for _, t := range r.Skips {
			names = append(names, t.String())
		}
		fmt.Fprintf(&b, " [breaker skipped %s]", strings.Join(names, ", "))
	}
	return b.String()
}

// BatchResult is what Align returns: exact scores plus the report.
type BatchResult struct {
	Scores []int
	Report Report
}

// Stats is a snapshot of the service-level counters, for the stats and
// observability layers to export.
type Stats struct {
	// Backend is the service's default backend name (per-request overrides
	// don't change it).
	Backend string

	Batches         int64 // batches completed successfully
	BatchesFailed   int64 // batches that exhausted every tier
	Retries         int64 // same-tier re-runs
	Fallbacks       int64 // tier downgrades
	CPUFallbacks    int64 // batches ultimately served by the CPU reference
	DeadlineHits    int64 // batches aborted by context.DeadlineExceeded
	Cancellations   int64 // batches aborted by context.Canceled
	PanicsRecovered int64 // kernel/pipeline panics converted to errors
	FaultsInjected  int64 // injected faults observed across all attempts

	BreakerTrips         int64 // closed→open and half-open→open transitions
	BreakerShortCircuits int64 // tier attempts skipped by an open breaker
	BreakerProbes        int64 // half-open probe batches admitted
	Breakers             []BreakerSnapshot

	// Striped is the native striped engine's counter snapshot. The engine
	// always exists, so the snapshot is always present; its counters stay
	// zero while nothing routes to it.
	Striped *striped.Stats
}
