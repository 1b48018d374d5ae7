package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/dna"
	"repro/internal/obs"
)

// Span names the benchmark records itself, around the calls into each
// layer. The program's own spans (tenant.<id>, alignsvc.*) are read back
// from the trace rings.
const (
	spanClient  = "client.request"
	spanHandler = "server.handler"
	spanPeer    = "cluster.peer_handler"
	spanScore   = "corpus.score"
	spanTier    = "alignsvc.tier." + backend
	spanQueue   = "alignsvc.queue_wait"
	spanProcess = "alignsvc.process"
)

// span is one timed segment. Spans of one request share its trace ID;
// Parent is filled in when the trace is written out.
type span struct {
	Trace  string    `json:"trace_id"`
	ID     int64     `json:"span_id"`
	Parent int64     `json:"parent_id,omitempty"`
	Node   string    `json:"node,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// StartUS and EndUS are offsets from the traced phase's start.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	Cells   int64 `json:"cells,omitempty"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / 1e6 }

// tracer keeps spans in memory while on is set. Its timers wrap the
// handlers and the search backend from outside the program.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a new list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler times every request node serves. A request carrying the cluster
// forward header is a peer's forward and is recorded as spanPeer.
func (t *tracer) handler(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		name := spanHandler
		if r.Header.Get(cluster.ForwardHeader) != "" {
			name = spanPeer
		}
		begin := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Trace: w.Header().Get("X-Trace-Id"), Node: node, Name: name, Start: begin, End: time.Now()})
	})
}

// timedBackend times every scoring call the corpus searcher makes. With a
// tracer it records one span per call under the request's trace ID;
// without one it only sums, which is how the side-effect-free Search
// replays measure their scoring share.
type timedBackend struct {
	alignsvc.Backend
	tr *tracer

	nanos, cells atomic.Int64
}

func (b *timedBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	begin := time.Now()
	scores, st, err := b.Backend.AlignBatch(ctx, pairs, opts)
	end := time.Now()
	cells := alignsvc.Cells(pairs)
	b.nanos.Add(int64(end.Sub(begin)))
	b.cells.Add(cells)
	if b.tr != nil && b.tr.on.Load() {
		b.tr.add(span{Trace: obs.TraceID(ctx), Name: spanScore, Start: begin, End: end, Cells: cells})
	}
	return scores, st, err
}

// ringSpans converts the program's own spans of the given traces, read from
// a node's trace ring, onto the benchmark's timeline: a ring span's offset
// is from the server's trace start, which is the start of the handler span
// of the same trace on the same node.
func ringSpans(nd *node, handlers map[string]span) []span {
	var out []span
	for _, rec := range nd.ring.Snapshot() {
		h, ok := handlers[nd.id+"/"+rec.ID]
		if !ok {
			continue
		}
		for _, s := range rec.Spans {
			start := h.Start.Add(time.Duration(s.StartUS) * time.Microsecond)
			out = append(out, span{
				Trace: rec.ID, Node: nd.id, Name: s.Name,
				Start: start, End: start.Add(time.Duration(s.DurUS) * time.Microsecond),
			})
		}
	}
	return out
}

// linkParents sets each span's parent to the innermost span of the same
// trace whose interval contains it; the client span roots each request.
func linkParents(spans []span) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for _, idx := range byTrace {
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if !sa.Start.Equal(sb.Start) {
				return sa.Start.Before(sb.Start)
			}
			return sa.End.After(sb.End)
		})
		var open []int // stack of enclosing spans
		for _, i := range idx {
			for len(open) > 0 && spans[open[len(open)-1]].End.Before(spans[i].End) {
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				spans[i].Parent = spans[open[len(open)-1]].ID
			}
			open = append(open, i)
		}
	}
}

// writeTrace writes the run's configuration and then one span per line.
func writeTrace(path string, cfg map[string]any, spans []span, origin time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"config": cfg})
	for i := 0; err == nil && i < len(spans); i++ {
		s := spans[i]
		s.StartUS = s.Start.Sub(origin).Microseconds()
		s.EndUS = s.End.Sub(origin).Microseconds()
		err = enc.Encode(s)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
