package alignsvc

import (
	"encoding/json"
	"time"
)

// This file pins the wire format of Report: stable snake_case field names,
// tiers as their String() forms, durations as float milliseconds. The
// server responses marshal through here, so changes are breaking. Stats
// carries its /statsz names as struct tags.

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

type reportJSON struct {
	Tier      Tier    `json:"tier"`
	Fallbacks int     `json:"fallbacks"`
	ElapsedMS float64 `json:"elapsed_ms"`
	CacheHits int     `json:"cache_hits,omitempty"`
}

// MarshalJSON implements the stable wire format described above.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportJSON{
		Tier:      r.Tier,
		Fallbacks: r.Fallbacks,
		ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
		CacheHits: r.CacheHits,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in reportJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Report{
		Tier:      in.Tier,
		Fallbacks: in.Fallbacks,
		Elapsed:   time.Duration(in.ElapsedMS * float64(time.Millisecond)),
		CacheHits: in.CacheHits,
	}
	return nil
}
