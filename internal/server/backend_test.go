package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/alignsvc"
)

// postAlignBackend is postAlign with an X-SWA-Backend header.
func postAlignBackend(t *testing.T, url, backend string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/align", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(BackendHeader, backend)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestBackendHeaderOverride verifies the X-SWA-Backend header steers one
// request to each named backend (visible in the report's serving tier) with
// exact scores and no fallback, and that an unknown name is rejected as
// bad_backend before any work runs.
func TestBackendHeaderOverride(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{Backend: alignsvc.BackendStriped}, Config{})
	pairs, want := testPairs(24, 20, 40, 11)

	tiers := map[string]alignsvc.Tier{
		alignsvc.BackendStriped:     alignsvc.TierStriped,
		alignsvc.BackendBitwiseSim:  alignsvc.TierBitwise,
		alignsvc.BackendWordwiseSim: alignsvc.TierWordwise,
		alignsvc.BackendCPURef:      alignsvc.TierCPU,
	}
	for _, backend := range alignsvc.BackendNames() {
		tier, ok := tiers[backend]
		if !ok {
			t.Fatalf("no serving tier listed for backend %q", backend)
		}
		status, raw := postAlignBackend(t, ts.URL, backend, AlignRequest{Pairs: pairsJSON(pairs)})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, status, raw)
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("%s: score[%d] = %d, want %d", backend, i, res.Scores[i], want[i])
			}
		}
		if res.Report.Tier != tier || res.Report.Fallbacks != 0 {
			t.Fatalf("%s: report %s, want %v with no fallback", backend, res.Report, tier)
		}
	}

	// No header: the configured default (striped) serves.
	status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
	if status != http.StatusOK {
		t.Fatalf("default: status %d: %s", status, raw)
	}
	var res AlignResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Report.Tier != alignsvc.TierStriped {
		t.Fatalf("default served by %v, want striped", res.Report.Tier)
	}

	status, raw = postAlignBackend(t, ts.URL, "warp-drive", AlignRequest{Pairs: pairsJSON(pairs)})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d: %s", status, raw)
	}
	if e := decodeError(t, raw); e.Code != CodeBadBackend {
		t.Fatalf("unknown backend: code %q, want %q", e.Code, CodeBadBackend)
	}
}

// TestStatszReportsBackend verifies /statsz carries the service's default
// backend and the striped engine counters after striped-served traffic.
func TestStatszReportsBackend(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{Backend: alignsvc.BackendStriped}, Config{})
	pairs, _ := testPairs(8, 16, 32, 3)
	if status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)}); status != http.StatusOK {
		t.Fatalf("align: status %d: %s", status, raw)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Service.Backend != alignsvc.BackendStriped {
		t.Fatalf("statsz backend = %q, want striped", st.Service.Backend)
	}
	if st.Service.Striped == nil || st.Service.Striped.Pairs != int64(len(pairs)) {
		t.Fatalf("statsz striped stats = %+v, want %d pairs", st.Service.Striped, len(pairs))
	}
}
