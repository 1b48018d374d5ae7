package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/alignsvc"
)

// TestAlignIgnoresEngineHeader pins that a request cannot choose its
// engine: /align with the retired engine-override header, naming the
// simulated bitwise engine or no engine at all, is served by the
// service's striped backend with exact scores, like a request without it.
// The header is spelled in lower case; HTTP header names are
// case-insensitive.
func TestAlignIgnoresEngineHeader(t *testing.T) {
	_, ts := newTestServer(t, alignsvc.Config{Backend: alignsvc.BackendStriped}, Config{})
	pairs, want := testPairs(24, 20, 40, 11)
	body, err := json.Marshal(AlignRequest{Pairs: pairsJSON(pairs)})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"", alignsvc.BackendBitwiseSim, "warp-drive"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if engine != "" {
			req.Header.Set("x-swa-backend", engine)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q: status %d: %s", engine, resp.StatusCode, raw)
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Scores[i] != want[i] {
				t.Fatalf("header %q: score[%d] = %d, want %d", engine, i, res.Scores[i], want[i])
			}
		}
		if res.Report.Tier != alignsvc.TierStriped || res.Report.Fallbacks != 0 {
			t.Fatalf("header %q: report %s, want striped with no fallback", engine, res.Report)
		}
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
