package alignsvc

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/striped"
)

func TestReportJSONRoundTrip(t *testing.T) {
	in := Report{
		Tier:      TierCPU,
		Fallbacks: 1,
		Elapsed:   1500 * time.Microsecond,
		CacheHits: 9,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"tier":"cpu","fallbacks":1,"elapsed_ms":1.5,"cache_hits":9}`
	if string(b) != want {
		t.Fatalf("marshalled report:\n got %s\nwant %s", b, want)
	}
	var out Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed report:\n in: %+v\nout: %+v", in, out)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Backend: BackendStriped, Batches: 10, BatchesFailed: 1, Fallbacks: 2,
		CPUFallbacks: 1, DeadlineHits: 3, Cancellations: 2, PanicsRecovered: 1,
		Striped: &striped.Stats{Pairs: 40, KernelCalls: 41, LanePairs: 32, Overflows: 2,
			WideRepasses: 1, ScalarFallbacks: 1},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"backend":"striped","batches":10,"batches_failed":1,"fallbacks":2,"cpu_fallbacks":1,` +
		`"deadline_hits":3,"cancellations":2,"panics_recovered":1,` +
		`"striped":{"pairs":40,"kernel_calls":41,"lane_pairs":32,"overflows":2,"wide_repasses":1,"scalar_fallbacks":1}}`
	if string(b) != want {
		t.Fatalf("marshalled stats:\n got %s\nwant %s", b, want)
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed stats:\n in: %+v\nout: %+v", in, out)
	}
}

func TestTierJSONRejectsUnknown(t *testing.T) {
	var tier Tier
	if err := json.Unmarshal([]byte(`"quantum"`), &tier); err == nil {
		t.Fatal("unknown tier name unmarshalled without error")
	}
}
