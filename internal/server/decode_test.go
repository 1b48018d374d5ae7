package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dna"
)

// decodeServer is a Server with only the config parseRequest reads.
func decodeServer(cfg Config) *Server { return &Server{cfg: cfg.withDefaults()} }

// decoded is one /align body's decode: a batch and its deadline, or a
// rejection.
type decoded struct {
	pairs   []dna.Pair
	timeout time.Duration
	status  int
	code    string
	err     string
}

func newDecoded(pairs []dna.Pair, timeout time.Duration, status int, code string, err error) decoded {
	d := decoded{pairs: pairs, timeout: timeout, status: status, code: code}
	if err != nil {
		d.err = err.Error()
	}
	return d
}

func (d decoded) equal(o decoded) bool {
	if d.timeout != o.timeout || d.status != o.status || d.code != o.code ||
		d.err != o.err || len(d.pairs) != len(o.pairs) {
		return false
	}
	for i := range d.pairs {
		if !d.pairs[i].X.Equal(o.pairs[i].X) || !d.pairs[i].Y.Equal(o.pairs[i].Y) {
			return false
		}
	}
	return true
}

func (d decoded) String() string {
	if d.err != "" {
		return fmt.Sprintf("%d %s %q", d.status, d.code, d.err)
	}
	return fmt.Sprintf("%d pairs, timeout %v", len(d.pairs), d.timeout)
}

// parse runs parseRequest on body, announced with contentLength.
func (s *Server) parse(body []byte, contentLength int64) decoded {
	r := httptest.NewRequest(http.MethodPost, "/align", bytes.NewReader(body))
	r.ContentLength = contentLength
	return newDecoded(s.parseRequest(httptest.NewRecorder(), r))
}

// referenceParse is the /align decode before scanAlign: encoding/json
// straight off the capped body, then parsePairs or presetPairs. It is the
// oracle parseRequest must match on every body.
func (s *Server) referenceParse(body []byte) decoded {
	var req AlignRequest
	capped := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(capped).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return newDecoded(nil, 0, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
		}
		return newDecoded(nil, 0, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad JSON: %w", err))
	}
	var (
		pairs  []dna.Pair
		status int
		code   string
		err    error
	)
	switch {
	case len(req.Pairs) > 0 && req.Preset != "":
		return newDecoded(nil, 0, http.StatusBadRequest, CodeBadRequest,
			errors.New("pairs and preset are mutually exclusive"))
	case req.Preset != "":
		pairs, status, code, err = s.presetPairs(req)
	case len(req.Pairs) > 0:
		pairs, status, code, err = s.parsePairs(req.Pairs)
	default:
		return newDecoded(nil, 0, http.StatusBadRequest, CodeBadRequest,
			errors.New("request needs pairs or preset"))
	}
	if err != nil {
		return newDecoded(nil, 0, status, code, err)
	}
	return newDecoded(pairs, s.timeout(req.TimeoutMS), 0, "", nil)
}

// readmeBody is the README quickstart's /align body, whitespace and all.
const readmeBody = `{
  "pairs": [
    {"x": "TACTG", "y": "GAACTGA"},
    {"x": "CACTG", "y": "GTTCTGA"}
  ],
  "timeout_ms": 2000
}`

// benchBody renders count random m×n pairs the way the serve bench does:
// compact JSON, upper-case bases, no timeout_ms.
func benchBody(count, m, n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	letters := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = "ACGT"[rng.IntN(4)]
		}
		return string(b)
	}
	var b bytes.Buffer
	b.WriteString(`{"pairs":[`)
	for i := 0; i < count; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":"%s","y":"%s"}`, letters(m), letters(n))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// forwardBody is what a cluster forward sends: json.Marshal of the pairs
// with the remaining deadline as timeout_ms.
func forwardBody(t testing.TB, count, m, n int, timeoutMS int64) []byte {
	pairs, _ := testPairs(count, m, n, 5)
	raw, err := json.Marshal(AlignRequest{Pairs: pairsJSON(pairs), TimeoutMS: timeoutMS})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestScanAlignOwnsCanonicalBodies shows that the bodies real clients send
// take the one-pass path, with the pairs and deadline the general decode
// gives them.
func TestScanAlignOwnsCanonicalBodies(t *testing.T) {
	s := decodeServer(Config{})
	bodies := map[string][]byte{
		"readme":          []byte(readmeBody),
		"bench 8x128x256": benchBody(8, 128, 256, 1),
		"forward":         forwardBody(t, 16, 64, 200, 1500),
		"lower case":      []byte(`{"pairs":[{"x":"acgt","y":"AcGtAcGt"}],"timeout_ms":-7}`),
	}
	for name, body := range bodies {
		pairs, ms, ok := scanAlign(body, s.cfg.MaxPairs, s.cfg.MaxSeqLen)
		if !ok {
			t.Errorf("%s: scanAlign did not take the body", name)
			continue
		}
		got := newDecoded(pairs, s.timeout(ms), 0, "", nil)
		if want := s.referenceParse(body); !got.equal(want) {
			t.Errorf("%s: scanAlign gave %v, want %v", name, got, want)
		}
	}
}

// TestAlignDecodeAllocs is the allocation gate on the /align decode: a
// serve-bench-shaped body must decode in a handful of allocations, whatever
// its size, with the bytes held near the body and its bases.
func TestAlignDecodeAllocs(t *testing.T) {
	s := decodeServer(Config{})
	for _, tc := range []struct {
		name     string
		body     []byte
		maxBytes int64 // 0: no byte gate
	}{
		{"8x128x256", benchBody(8, 128, 256, 2), 0},
		{"256x128x1024", benchBody(256, 128, 1024, 3), 640 << 10},
	} {
		rd := bytes.NewReader(tc.body)
		r := httptest.NewRequest(http.MethodPost, "/align", nil)
		r.Body, r.ContentLength = io.NopCloser(rd), int64(len(tc.body))
		w := httptest.NewRecorder()
		parse := func() {
			rd.Reset(tc.body)
			if _, _, _, _, err := s.parseRequest(w, r); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, parse)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		perRun := int64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s (%d bytes): %.0f allocations, %d KiB per decode", tc.name, len(tc.body), allocs, perRun>>10)
		if allocs > 12 {
			t.Errorf("%s: %.0f allocations per decode, want at most 12", tc.name, allocs)
		}
		if tc.maxBytes > 0 && perRun > tc.maxBytes {
			t.Errorf("%s: %d KiB allocated per decode, want at most %d", tc.name, perRun>>10, tc.maxBytes>>10)
		}
	}
}

// FuzzAlignDecode is the differential oracle of the /align decode: on any
// body, announced with any Content-Length, parseRequest must give what the
// general decode gives (referenceParse) — the same pairs base for base and
// the same deadline, or the same status, code and message. It runs each
// body against tight caps, which the seeds cross (the body cap included),
// and roomy ones, under which most seeds take the one-pass path.
func FuzzAlignDecode(f *testing.F) {
	servers := []*Server{
		decodeServer(Config{MaxPairs: 3, MaxSeqLen: 16, MaxBodyBytes: 512}),
		decodeServer(Config{MaxPairs: 256, MaxSeqLen: 1024, MaxBodyBytes: 64 << 10}),
	}
	pair := `{"x":"ACGT","y":"ACGTACGT"}`
	seeds := []string{
		readmeBody,
		string(benchBody(8, 128, 256, 4)),
		string(benchBody(3, 8, 16, 5)),
		string(forwardBody(f, 4, 8, 12, 2500)),
		// Escapes, key spellings, repeated keys, preset, null, empty.
		`{"pairs":[{"x":"\u0041CGT","y":"ACGTACGT"}]}`,
		`{"pairs":[{"x":"ACGT","y":"ACGTACG\u0054"}],"\u0074imeout_ms":9}`,
		`{"pairs":[{"x":"AC\"GT","y":"ACGTACGT"}]}`,
		`{"PAIRS":[` + pair + `]}`,
		`{"pairs":[{"X":"ACGT","Y":"ACGTACGT"}]}`,
		`{"pairs":[` + pair + `],"Timeout_MS":5}`,
		`{"pairs":[` + pair + `],"timeout_ms":5}`,
		`{"pairs":[` + pair + `],"pairs":[` + pair + `,` + pair + `]}`,
		`{"pairs":[{"x":"ACGT","x":"AC","y":"ACGTACGT"}]}`,
		`{"pairs":[` + pair + `],"timeout_ms":5,"timeout_ms":6}`,
		`{"pairs":[` + pair + `],"preset":"unit"}`,
		`{"preset":"unit"}`,
		`{"preset":"unit","n":64}`,
		`{"pairs":null}`,
		`null`,
		`{"pairs":[null]}`,
		`{"pairs":[{"x":null,"y":"ACGT"}]}`,
		`{"pairs":[` + pair + `],"timeout_ms":null}`,
		`{"pairs":[]}`,
		`{}`,
		``,
		// Trailing bytes, truncation, case.
		`{"pairs":[` + pair + `]}xyz`,
		`{"pairs":[` + pair + `]} {"pairs":[]}`,
		"{\"pairs\":[" + pair + "]}\n\t ",
		`{"pairs":[` + pair + `]}` + strings.Repeat("x", 600), // past the tight cap
		`{"pairs":[{"x":"ACGT","y":"ACG`,
		`{"pairs":[` + pair + `,`,
		`{"pairs":[{"x":"acgt","y":"AcGtAcGt"}]}`,
		// Bad bytes: first and last position, non-ASCII, invalid UTF-8.
		`{"pairs":[{"x":"NCGT","y":"ACGTACGT"}]}`,
		`{"pairs":[` + pair + `,{"x":"ACGT","y":"ACGTACGN"}]}`,
		`{"pairs":[{"x":"ACGé","y":"ACGTACGT"}]}`,
		"{\"pairs\":[{\"x\":\"AC\xffT\",\"y\":\"ACGTACGT\"}]}",
		"\xef\xbb\xbf{\"pairs\":[" + pair + "]}",
		// Shapes: ragged, m = 0, n < m, over MaxPairs, n over MaxSeqLen.
		`{"pairs":[` + pair + `,{"x":"ACG","y":"ACGTACGT"}]}`,
		`{"pairs":[{"x":"","y":"ACGT"}]}`,
		`{"pairs":[{"x":"ACGTACGT","y":"ACGT"}]}`,
		`{"pairs":[` + strings.Repeat(pair+`,`, 3) + pair + `]}`,
		`{"pairs":[{"x":"ACGT","y":"` + strings.Repeat("ACGT", 5) + `"}]}`,
		// timeout_ms: negative, huge, past int64, fractional, exponent.
		`{"pairs":[` + pair + `],"timeout_ms":-5}`,
		`{"pairs":[` + pair + `],"timeout_ms":-0}`,
		`{"pairs":[` + pair + `],"timeout_ms":01}`,
		`{"pairs":[` + pair + `],"timeout_ms":9223372036854775807}`,
		`{"pairs":[` + pair + `],"timeout_ms":-9223372036854775808}`,
		`{"pairs":[` + pair + `],"timeout_ms":9223372036854775808}`,
		`{"pairs":[` + pair + `],"timeout_ms":1.5}`,
		`{"pairs":[` + pair + `],"timeout_ms":1e3}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), int64(len(s)))
	}
	f.Add([]byte(readmeBody), int64(-1))    // no Content-Length
	f.Add([]byte(readmeBody), int64(1<<62)) // a lying one
	f.Fuzz(func(t *testing.T, body []byte, contentLength int64) {
		for _, s := range servers {
			got, want := s.parse(body, contentLength), s.referenceParse(body)
			if !got.equal(want) {
				t.Fatalf("caps %d pairs, %d bases, %d bytes: parseRequest gave %v, want %v",
					s.cfg.MaxPairs, s.cfg.MaxSeqLen, s.cfg.MaxBodyBytes, got, want)
			}
		}
	})
}

// BenchmarkParseRequest times the /align decode of serve-bench-shaped
// bodies, from the body's bytes to the batch.
func BenchmarkParseRequest(b *testing.B) {
	s := decodeServer(Config{})
	for _, shape := range [][3]int{{8, 128, 256}, {256, 128, 1024}} {
		body := benchBody(shape[0], shape[1], shape[2], 6)
		b.Run(fmt.Sprintf("%dx%dx%d", shape[0], shape[1], shape[2]), func(b *testing.B) {
			rd := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/align", nil)
			r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if _, _, _, _, err := s.parseRequest(w, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
