package alignsvc

import (
	"encoding/json"
	"time"

	"repro/internal/cudasim"
	"repro/internal/striped"
)

// This file pins the wire format of Report and Stats: stable snake_case
// field names, tiers and breaker states as their String() forms, durations
// as float milliseconds. /statsz, the server responses and any future
// observability layer all marshal through here, so changes are breaking.

type faultCountsJSON struct {
	HtoD     int `json:"htod"`
	DtoH     int `json:"dtoh"`
	Alloc    int `json:"alloc"`
	Launch   int `json:"launch"`
	BitFlips int `json:"bit_flips"`
}

func toFaultsJSON(c cudasim.FaultCounts) faultCountsJSON {
	return faultCountsJSON{HtoD: c.HtoD, DtoH: c.DtoH, Alloc: c.Alloc,
		Launch: c.Launch, BitFlips: c.BitFlips}
}

func (f faultCountsJSON) counts() cudasim.FaultCounts {
	return cudasim.FaultCounts{HtoD: f.HtoD, DtoH: f.DtoH, Alloc: f.Alloc,
		Launch: f.Launch, BitFlips: f.BitFlips}
}

// MarshalJSON renders the tier name ("bitwise", "wordwise", "cpu",
// "striped").
func (t Tier) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON parses the tier name.
func (t *Tier) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseTier(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// MarshalJSON renders the state name ("closed", "open", "half-open").
func (s BreakerState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the state name.
func (s *BreakerState) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	v, err := ParseBreakerState(str)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

type attemptJSON struct {
	Tier             Tier            `json:"tier"`
	Err              string          `json:"err,omitempty"`
	ValidationFailed bool            `json:"validation_failed,omitempty"`
	Faults           faultCountsJSON `json:"faults"`
}

type reportJSON struct {
	Tier           Tier            `json:"tier"`
	Attempts       []attemptJSON   `json:"attempts"`
	Retries        int             `json:"retries"`
	Fallbacks      int             `json:"fallbacks"`
	Skips          []Tier          `json:"skips,omitempty"`
	Faults         faultCountsJSON `json:"faults"`
	Validated      int             `json:"validated"`
	ElapsedMS      float64         `json:"elapsed_ms"`
	CacheHits      int             `json:"cache_hits,omitempty"`
	CacheCoalesced int             `json:"cache_coalesced,omitempty"`
}

// MarshalJSON implements the stable wire format described above.
func (r Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Tier:           r.Tier,
		Retries:        r.Retries,
		Fallbacks:      r.Fallbacks,
		Skips:          r.Skips,
		Faults:         toFaultsJSON(r.Faults),
		Validated:      r.Validated,
		ElapsedMS:      float64(r.Elapsed) / float64(time.Millisecond),
		CacheHits:      r.CacheHits,
		CacheCoalesced: r.CacheCoalesced,
	}
	for _, a := range r.Attempts {
		out.Attempts = append(out.Attempts, attemptJSON{
			Tier: a.Tier, Err: a.Err,
			ValidationFailed: a.ValidationFailed,
			Faults:           toFaultsJSON(a.Faults),
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in reportJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Report{
		Tier:           in.Tier,
		Retries:        in.Retries,
		Fallbacks:      in.Fallbacks,
		Skips:          in.Skips,
		Faults:         in.Faults.counts(),
		Validated:      in.Validated,
		Elapsed:        time.Duration(in.ElapsedMS * float64(time.Millisecond)),
		CacheHits:      in.CacheHits,
		CacheCoalesced: in.CacheCoalesced,
	}
	for _, a := range in.Attempts {
		r.Attempts = append(r.Attempts, Attempt{
			Tier: a.Tier, Err: a.Err,
			ValidationFailed: a.ValidationFailed,
			Faults:           a.Faults.counts(),
		})
	}
	return nil
}

type breakerSnapshotJSON struct {
	Tier     Tier         `json:"tier"`
	State    BreakerState `json:"state"`
	Failures int          `json:"consecutive_failures"`
}

type statsJSON struct {
	Backend              string                `json:"backend,omitempty"`
	Batches              int64                 `json:"batches"`
	BatchesFailed        int64                 `json:"batches_failed"`
	Retries              int64                 `json:"retries"`
	Fallbacks            int64                 `json:"fallbacks"`
	CPUFallbacks         int64                 `json:"cpu_fallbacks"`
	DeadlineHits         int64                 `json:"deadline_hits"`
	Cancellations        int64                 `json:"cancellations"`
	PanicsRecovered      int64                 `json:"panics_recovered"`
	FaultsInjected       int64                 `json:"faults_injected"`
	BreakerTrips         int64                 `json:"breaker_trips"`
	BreakerShortCircuits int64                 `json:"breaker_short_circuits"`
	BreakerProbes        int64                 `json:"breaker_probes"`
	Breakers             []breakerSnapshotJSON `json:"breakers,omitempty"`
	Striped              *striped.Stats        `json:"striped,omitempty"`
}

// MarshalJSON implements the stable wire format described above.
func (s Stats) MarshalJSON() ([]byte, error) {
	out := statsJSON{
		Backend:              s.Backend,
		Batches:              s.Batches,
		BatchesFailed:        s.BatchesFailed,
		Retries:              s.Retries,
		Fallbacks:            s.Fallbacks,
		CPUFallbacks:         s.CPUFallbacks,
		DeadlineHits:         s.DeadlineHits,
		Cancellations:        s.Cancellations,
		PanicsRecovered:      s.PanicsRecovered,
		FaultsInjected:       s.FaultsInjected,
		BreakerTrips:         s.BreakerTrips,
		BreakerShortCircuits: s.BreakerShortCircuits,
		BreakerProbes:        s.BreakerProbes,
		Striped:              s.Striped,
	}
	for _, br := range s.Breakers {
		out.Breakers = append(out.Breakers, breakerSnapshotJSON(br))
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var in statsJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*s = Stats{
		Backend:              in.Backend,
		Batches:              in.Batches,
		BatchesFailed:        in.BatchesFailed,
		Retries:              in.Retries,
		Fallbacks:            in.Fallbacks,
		CPUFallbacks:         in.CPUFallbacks,
		DeadlineHits:         in.DeadlineHits,
		Cancellations:        in.Cancellations,
		PanicsRecovered:      in.PanicsRecovered,
		FaultsInjected:       in.FaultsInjected,
		BreakerTrips:         in.BreakerTrips,
		BreakerShortCircuits: in.BreakerShortCircuits,
		BreakerProbes:        in.BreakerProbes,
		Striped:              in.Striped,
	}
	for _, br := range in.Breakers {
		s.Breakers = append(s.Breakers, BreakerSnapshot(br))
	}
	return nil
}
