package cluster

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states, applied
// here per peer: a peer whose forwards keep failing is short-circuited so a
// dead node costs at most one timeout per cooldown, not one per request.
type BreakerState int

const (
	// BreakerClosed forwards normally; consecutive transport failures are
	// counted and trip the breaker open at the configured threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits the peer: Align falls straight back to
	// local execution without paying a connect/timeout, until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe forward try the peer; success
	// closes the breaker, failure re-opens it for another cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalText renders the state name, so peer snapshots JSON-encode readably.
func (s BreakerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a breaker state name.
func (s *BreakerState) UnmarshalText(b []byte) error {
	for _, st := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown breaker state %q", b)
}

// breaker is one peer's circuit breaker: closed→open on a failure streak,
// open→half-open after the cooldown with a single probe slot,
// half-open→closed on probe success. A 429 from a peer is deliberately NOT
// reported here — an alive-but-shedding peer is healthy.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool

	trips, shortCircuits int64
}

func newPeerBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow decides whether a forward to the peer may be attempted now. probe is
// true when the caller holds the single half-open probe slot; it must report
// the outcome via success/fail (or release on a context error).
func (b *breaker) allow() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.shortCircuits++
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	case BreakerHalfOpen:
		if b.probing {
			b.shortCircuits++
			return false, false
		}
		b.probing = true
		return true, true
	}
	return false, false
}

// success records a completed forward, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// fail records a transport failure, advancing toward (or re-entering) open.
func (b *breaker) fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.trips++
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.trips++
		}
	}
}

// release frees a half-open probe slot after a context cancellation, where
// the peer's health is unknown and the outcome must not move the breaker.
func (b *breaker) release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// snapshot returns the current state and counters for Stats.
func (b *breaker) snapshot() (state BreakerState, trips, shortCircuits int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.shortCircuits
}
