package alignsvc

import (
	"fmt"
	"time"

	"repro/internal/striped"
)

// Tier identifies the engine that served a batch: one per backend, TierCPU
// also for the reference fallback. The numeric order is storage layout;
// wire formats carry tiers by name.
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
	// exact like TierCPU, at wall-clock GCUPS. (Declared after TierCPU so
	// the older tiers keep their values.)
	TierStriped
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

// Report is the per-batch account of what the service did: the tier that
// produced the scores and whether it had to fall back to the reference.
//
// With the score cache enabled, CacheHits pairs were served from stored
// scores and never reached a backend. When no pair reached a backend, Tier
// names the serving backend's tier.
type Report struct {
	Tier      Tier          // tier whose scores were returned
	Fallbacks int           // 1 when the backend failed and the CPU reference served, else 0
	Elapsed   time.Duration // wall time from taking an engine slot (with a cache: from Align) to scores
	CacheHits int           // pairs served from the score cache
}

// String renders a one-line summary, e.g. "cpu (1 fallbacks, 3 cache hits)".
func (r Report) String() string {
	return fmt.Sprintf("%s (%d fallbacks, %d cache hits)", r.Tier, r.Fallbacks, r.CacheHits)
}

// BatchResult is what Align returns: exact scores plus the report.
type BatchResult struct {
	Scores []int
	Report Report
}

// Stats is a snapshot of the service-level counters, for the stats and
// observability layers to export. The JSON names are the /statsz wire
// format.
type Stats struct {
	// Backend is the serving backend's name.
	Backend string `json:"backend,omitempty"`

	Batches         int64 `json:"batches"`          // batches completed successfully
	BatchesFailed   int64 `json:"batches_failed"`   // batches whose reference fallback failed too
	Fallbacks       int64 `json:"fallbacks"`        // batches re-scored on the CPU reference
	CPUFallbacks    int64 `json:"cpu_fallbacks"`    // batches served by the CPU reference, cpu-ref included
	DeadlineHits    int64 `json:"deadline_hits"`    // batches aborted by context.DeadlineExceeded
	Cancellations   int64 `json:"cancellations"`    // batches aborted by context.Canceled
	PanicsRecovered int64 `json:"panics_recovered"` // backend panics converted to errors

	// Retries is always 0: the service runs a batch's backend once. It
	// stays so callers outside this package keep compiling.
	Retries int64 `json:"-"`

	// Striped is the native striped engine's counter snapshot on a striped
	// service, nil on every other backend.
	Striped *striped.Stats `json:"striped,omitempty"`
}
