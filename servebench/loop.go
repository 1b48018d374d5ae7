package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
)

// clients is the closed loop's client count: one per vCPU of the reference
// host. Each client waits for its reply before sending the next request.
const clients = 2

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	id   int
	url  string
	tr   *http.Transport
	hc   *http.Client
	body []byte // request scratch, reused between requests
}

func newClient(id int, baseURL string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{id: id, url: baseURL, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request and reads the whole answer. The returned latency
// runs from sending the request to reading the last response byte.
func (c *client) post(route string, body []byte, traceID string) (status int, resp []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+route, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	begin := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(begin), err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, time.Since(begin), err
}

// alignAnswer is the part of an /align answer the checker reads.
type alignAnswer struct {
	Scores []int `json:"scores"`
}

// checkAnswer validates one response's status and shape: one score per
// pair, or at most top_k hits ranked by score descending then ID
// ascending. It returns the decoded scores or search answer.
func checkAnswer(sp spec, rq request, status int, body []byte) ([]int, *server.SearchResponse, error) {
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if sp.route == "/search" {
		var sr server.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return nil, nil, fmt.Errorf("bad search answer: %w", err)
		}
		if len(sr.Hits) > sp.topK {
			return nil, nil, fmt.Errorf("%d hits for top_k %d", len(sr.Hits), sp.topK)
		}
		for i, h := range sr.Hits {
			if h.ID < 0 || h.ID >= sp.corpusSeqs {
				return nil, nil, fmt.Errorf("hit %d: id %d out of range", i, h.ID)
			}
			if i > 0 {
				prev := sr.Hits[i-1]
				if prev.Score < h.Score || prev.Score == h.Score && prev.ID >= h.ID {
					return nil, nil, fmt.Errorf("hits %d and %d out of rank order", i-1, i)
				}
			}
		}
		return nil, &sr, nil
	}
	var ar alignAnswer
	if err := json.Unmarshal(body, &ar); err != nil {
		return nil, nil, fmt.Errorf("bad align answer: %w", err)
	}
	if len(ar.Scores) != len(rq.pairs) {
		return nil, nil, fmt.Errorf("%d scores for %d pairs", len(ar.Scores), len(rq.pairs))
	}
	return ar.Scores, nil, nil
}

// sample is a request kept for checks after the timed region: the oracle
// comparison, and in the traced run the side-effect-free replays.
type sample struct {
	req    request
	at     time.Duration // when the answer arrived, from the phase start
	scores []int
	search *server.SearchResponse
	resp   []byte // raw answer, kept for replay samples only
}

// phase describes one closed-loop run of a fixed stretch of the stream.
type phase struct {
	next  func(c, i int, dst []byte) request
	from  int // first stream index of every client
	count int // requests per client
	// hardStop ends the phase early on a host far slower than the
	// reference one, so the run still finishes in time.
	hardStop time.Duration

	tracer *tracer // non-nil: record client spans under per-request trace IDs

	oracleEvery int // keep every oracleEvery-th request for the oracle
	replayEvery int // keep every replayEvery-th answer for replays (0 = none)
}

// completion is one answered request of a phase.
type completion struct {
	at    time.Duration // from the phase start
	cells int64
	ok    bool
}

// phaseResult is what one phase measured.
type phaseResult struct {
	wall      time.Duration
	latMS     []float64 // one per request sent; +Inf for a failed request
	done      []completion
	sent, ok  int
	failed    int
	cells     int64
	bodyBytes int64
	errs      []string // the first few failure messages
	samples   []sample
	replays   []sample
	searches  []corpus.Stats // funnel stats of every answered search
}

// runPhase drives cls through one phase of the stream and checks every
// answer as it arrives.
func runPhase(sp spec, cls []*client, ph phase) phaseResult {
	var wg sync.WaitGroup
	outs := make([]phaseResult, len(cls))
	start := time.Now()
	for k, c := range cls {
		wg.Add(1)
		go func(out *phaseResult, c *client) {
			defer wg.Done()
			for i := ph.from; i < ph.from+ph.count && time.Since(start) < ph.hardStop; i++ {
				rq := ph.next(c.id, i, c.body)
				c.body = rq.body
				traceID := ""
				if ph.tracer != nil {
					traceID = fmt.Sprintf("%04x%08x", c.id, i)
				}
				status, resp, lat, err := c.post(sp.route, rq.body, traceID)
				end := time.Now()
				at := end.Sub(start)
				if ph.tracer != nil {
					ph.tracer.add(span{Trace: traceID, Name: spanClient, Start: end.Add(-lat), End: end})
				}
				var scores []int
				var sr *server.SearchResponse
				if err == nil {
					scores, sr, err = checkAnswer(sp, rq, status, resp)
				}
				out.done = append(out.done, completion{at: at, cells: rq.cells, ok: err == nil})
				out.sent++
				out.cells += rq.cells
				out.bodyBytes += int64(len(rq.body))
				if err != nil {
					out.failed++
					out.latMS = append(out.latMS, math.Inf(1))
					if len(out.errs) < 5 {
						out.errs = append(out.errs, fmt.Sprintf("client %d request %d: %v", c.id, i, err))
					}
					continue
				}
				out.ok++
				out.latMS = append(out.latMS, float64(lat)/1e6)
				if sr != nil {
					out.searches = append(out.searches, sr.Stats)
				}
				keep := rq
				keep.body = nil
				if ph.oracleEvery > 0 && i%ph.oracleEvery == 0 {
					out.samples = append(out.samples, sample{req: keep, at: at, scores: scores, search: sr})
				}
				if ph.replayEvery > 0 && (i-ph.from)%ph.replayEvery == 0 {
					keep.body = append([]byte(nil), rq.body...)
					out.replays = append(out.replays, sample{req: keep, at: at, scores: scores, search: sr, resp: resp})
				}
			}
		}(&outs[k], c)
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	for _, o := range outs {
		res.latMS = append(res.latMS, o.latMS...)
		res.done = append(res.done, o.done...)
		res.sent += o.sent
		res.ok += o.ok
		res.failed += o.failed
		res.cells += o.cells
		res.bodyBytes += o.bodyBytes
		res.errs = append(res.errs, o.errs...)
		res.samples = append(res.samples, o.samples...)
		res.replays = append(res.replays, o.replays...)
		res.searches = append(res.searches, o.searches...)
	}
	sort.Float64s(res.latMS)
	return res
}

// warm sends each client's fixed warm-up bodies, in parallel across
// clients, and fails on the first wrong answer.
func warm(sp spec, cls []*client, bodies [][]request) error {
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for k, c := range cls {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for _, rq := range bodies[k] {
				status, resp, _, err := c.post(sp.route, rq.body, "")
				if err == nil {
					_, _, err = checkAnswer(sp, rq, status, resp)
				}
				if err != nil {
					errs[k] = fmt.Errorf("warm-up on client %d: %w", c.id, err)
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// windows is how many equal slices of a timed phase the rates are
// computed over.
const windows = 20

// windowRates splits the phase's wall time into equal windows and returns
// the median over windows of the requests answered 200 and correct per
// second, and of the DP cells requested per second. bad holds the arrival
// times of answers the oracle later found wrong. The median keeps a burst
// of load from other tenants of the host, shorter than half the phase,
// out of the rate.
func windowRates(done []completion, bad []time.Duration, wall time.Duration) (reqPerS, cellsPerS float64, perWindow []float64) {
	w := wall / windows
	ok := make([]float64, windows)
	cells := make([]float64, windows)
	slot := func(at time.Duration) int { return min(int(at/w), windows-1) }
	for _, c := range done {
		cells[slot(c.at)] += float64(c.cells)
		if c.ok {
			ok[slot(c.at)]++
		}
	}
	for _, at := range bad {
		ok[slot(at)]--
	}
	for i := range ok {
		ok[i] /= w.Seconds()
		cells[i] /= w.Seconds()
	}
	return median(ok), median(cells), ok
}
