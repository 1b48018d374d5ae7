package aligncache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// deviceLostError stands in for a typed engine failure, such as a device
// lost mid-launch, that a flight's leader publishes to its followers.
type deviceLostError struct{}

func (*deviceLostError) Error() string { return "device lost" }

// When the leader's device is killed mid-flight, every follower must get the
// typed device-loss error promptly — never hang — and the failed flight must
// not be cached: the next Lookup is a fresh miss with a new leader, and that
// leader's success is what finally sticks.
func TestSingleflightLeaderKilledTyped(t *testing.T) {
	c := testCache(t, Config{MaxBytes: 1 << 20})
	k, x, y := pairKey(1)

	_, ok, flight, leader := c.Lookup(k)
	if ok || !leader {
		t.Fatalf("first lookup: ok=%v leader=%v, want miss+leader", ok, leader)
	}

	const followers = 8
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok, f, lead := c.Lookup(k)
			if ok || lead || f == nil {
				errs <- errors.New("follower was not coalesced onto the flight")
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := f.Wait(ctx)
			errs <- err
		}()
	}

	// Give the followers a moment to coalesce, then the leader's device dies
	// mid-computation and the leader publishes the failure.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	c.Fulfill(k, flight, 0, Cost(x, y), &deviceLostError{})

	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("follower got a score from a killed leader")
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("follower hung until its deadline instead of being released")
		}
		var lost *deviceLostError
		if !errors.As(err, &lost) {
			t.Fatalf("follower error not typed: %v", err)
		}
	}

	// The failure must not be cached: the key is retryable with a new leader.
	if _, hit := c.Get(k); hit {
		t.Fatal("failed flight was cached")
	}
	_, ok, flight2, leader2 := c.Lookup(k)
	if ok || !leader2 || flight2 == flight {
		t.Fatalf("retry lookup: ok=%v leader=%v sameFlight=%v, want fresh miss+leader",
			ok, leader2, flight2 == flight)
	}
	c.Fulfill(k, flight2, 42, Cost(x, y), nil)
	if got, hit := c.Get(k); !hit || got != 42 {
		t.Fatalf("recomputed score not cached: got=%d hit=%v", got, hit)
	}
}
