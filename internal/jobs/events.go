// The job event hub: live progress feeds for async jobs, consumed by the
// server's SSE endpoint (GET /jobs/{id}/events). Publishing is strictly
// non-blocking — each subscriber owns a bounded ring buffer that drops its
// oldest event when full, so a stalled SSE client can never hold up chunk
// checkpointing — and a subscriber that goes away just unhooks itself from
// the hub; the runner never learns or cares.

package jobs

import (
	"context"
	"errors"
	"sync"
)

// Event types published on a job's feed.
const (
	// EventSnapshot seeds every new subscription with the job's current
	// state, so subscribing after progress replays the last checkpoint.
	EventSnapshot = "snapshot"
	// EventState marks a state-machine transition (queued, running, done,
	// failed, cancelled — and the running→queued park on drain).
	EventState = "state"
	// EventChunk marks one chunk checkpoint reaching the WAL.
	EventChunk = "chunk"
	// EventDrain is the final event of a feed when the manager shuts down;
	// the subscription is closed right after it.
	EventDrain = "drain"
)

// Event is one entry on a job's progress feed. Seq increases by 1 per
// published event of the job (the snapshot seed reuses the latest seq), so
// subscribers can detect drops.
type Event struct {
	Seq  uint64   `json:"seq"`
	Type string   `json:"type"`
	Job  Snapshot `json:"job"`
}

// ErrSubClosed ends a subscriber's Next loop: the subscription was closed
// by Close, the job feed finishing, or manager shutdown.
var ErrSubClosed = errors.New("jobs: subscription closed")

// Sub is one subscriber's bounded view of a job feed. Read with Next,
// release with Close (idempotent; Close is the disconnect path and must
// always be called, or the hub keeps a dead entry until shutdown).
type Sub struct {
	hub   *hub
	jobID string

	mu      sync.Mutex
	buf     []Event // ring: oldest at head
	head, n int
	dropped uint64
	closed  bool
	notify  chan struct{} // cap 1: "buffer went non-empty or closed"
}

// push appends an event, dropping the oldest when the ring is full. Called
// by the hub with sub.mu NOT held; never blocks.
func (s *Sub) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next pops the oldest buffered event, blocking until one arrives, ctx
// expires, or the subscription closes (ErrSubClosed).
func (s *Sub) Next(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev := s.buf[s.head]
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			s.mu.Unlock()
			return ev, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, ErrSubClosed
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
}

// Dropped counts events this subscriber lost to ring overflow.
func (s *Sub) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscriber from the hub. Buffered events remain
// readable until drained; then Next returns ErrSubClosed. Idempotent.
func (s *Sub) Close() {
	s.hub.unsubscribe(s.jobID, s)
	s.markClosed()
}

// markClosed flips the closed flag and wakes a blocked Next.
func (s *Sub) markClosed() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// hub fans job events out to subscribers. All methods are safe for
// concurrent use and none of them ever blocks on a subscriber.
type hub struct {
	mu       sync.Mutex
	subs     map[string][]*Sub // job ID → subscribers
	seq      map[string]uint64 // job ID → last published seq
	bufSize  int
	shutdown bool
}

func newHub(bufSize int) *hub {
	if bufSize <= 0 {
		bufSize = 16
	}
	return &hub{
		subs:    make(map[string][]*Sub),
		seq:     make(map[string]uint64),
		bufSize: bufSize,
	}
}

// subscribe registers a subscriber seeded with a snapshot event carrying
// the job's current progress at the feed's current seq. A subscription to
// an already-terminal job (its feed ended at the terminal publish) is born
// closed: it delivers the snapshot and then ErrSubClosed, and is never
// registered with the hub.
func (h *hub) subscribe(jobID string, seed Snapshot) *Sub {
	s := &Sub{
		hub:    h,
		jobID:  jobID,
		buf:    make([]Event, h.bufSize),
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	seedEv := Event{Seq: h.seq[jobID], Type: EventSnapshot, Job: seed}
	// Seed before the Sub becomes visible to publish, while still holding
	// the hub lock: the snapshot is guaranteed first in the ring, and no
	// concurrent publish can slip a newer event ahead of it.
	s.push(seedEv)
	switch {
	case h.shutdown:
		h.mu.Unlock()
		s.push(Event{Seq: seedEv.Seq, Type: EventDrain, Job: seed})
		s.markClosed()
	case seed.State.Terminal():
		h.mu.Unlock()
		s.markClosed()
	default:
		h.subs[jobID] = append(h.subs[jobID], s)
		h.mu.Unlock()
	}
	return s
}

func (h *hub) unsubscribe(jobID string, s *Sub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	list := h.subs[jobID]
	for i, cur := range list {
		if cur == s {
			h.subs[jobID] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(h.subs[jobID]) == 0 {
		delete(h.subs, jobID)
	}
}

// publish fans one event out to the job's subscribers (drop-oldest per
// subscriber) and, when the event is terminal for the feed, closes them.
func (h *hub) publish(jobID, typ string, job Snapshot) {
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return
	}
	h.seq[jobID]++
	ev := Event{Seq: h.seq[jobID], Type: typ, Job: job}
	subs := append([]*Sub(nil), h.subs[jobID]...)
	terminal := job.State.Terminal()
	if terminal {
		delete(h.subs, jobID)
		delete(h.seq, jobID)
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.push(ev)
		if terminal {
			s.markClosed()
		}
	}
}

// close shuts the hub down: every subscriber gets a final drain event and
// is closed; later publishes are dropped and later subscribes are born
// closed (seeded with snapshot + drain). Idempotent.
func (h *hub) close() {
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return
	}
	h.shutdown = true
	var all []*Sub
	var evs []Event
	for jobID, list := range h.subs {
		for _, s := range list {
			all = append(all, s)
			evs = append(evs, Event{Seq: h.seq[jobID] + 1, Type: EventDrain})
		}
	}
	h.subs = make(map[string][]*Sub)
	h.mu.Unlock()
	for i, s := range all {
		s.push(evs[i])
		s.markClosed()
	}
}

// subscribers counts live subscriptions (tests use it for leak checks).
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, list := range h.subs {
		n += len(list)
	}
	return n
}
