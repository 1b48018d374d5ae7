package jobs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/tenant"
)

// The tests in this file race many SubmitFor calls against one bound each:
// the idempotency key, the queue bound and the tenant quota. Admission
// checks them under the same lock as the WAL append and the enqueue, so
// no interleaving may create a second job for a key or overshoot a bound.

// submission is what one SubmitFor call returned.
type submission struct {
	snap    Snapshot
	created bool
	err     error
}

// submitAll makes n SubmitFor calls at once: every goroutine is started
// and parked on one barrier first, so the calls race for admission.
func submitAll(m *Manager, n int, req Request, key, tenantID string) []submission {
	out := make([]submission, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out[i].snap, out[i].created, out[i].err = m.SubmitFor(req, key, tenantID)
		}()
	}
	close(start)
	wg.Wait()
	return out
}

// accepted counts the calls that created a job; every other call must
// have failed with want.
func accepted(t *testing.T, subs []submission, want error) int {
	t.Helper()
	n := 0
	for i, s := range subs {
		switch {
		case s.err == nil && s.created:
			n++
		case !errors.Is(s.err, want):
			t.Fatalf("submit %d: created=%v err=%v, want a new job or %v", i, s.created, s.err, want)
		}
	}
	return n
}

func TestConcurrentSubmitOneJobPerKey(t *testing.T) {
	forEachKind(t, func(t *testing.T, k jobKind) {
		m, store := k.open(t, t.TempDir(), 0, func(c *Config) { c.MaxQueued = 1 << 10 })
		defer store.Close()
		defer m.Close()

		for round := 0; round < 50; round++ {
			subs := submitAll(m, 16, k.request(round), fmt.Sprintf("key-%d", round), "")
			for i, s := range subs {
				if s.err != nil || s.snap.ID != subs[0].snap.ID {
					t.Fatalf("round %d: submit %d answered job %s (err %v), submit 0 job %s",
						round, i, s.snap.ID, s.err, subs[0].snap.ID)
				}
			}
			if n := accepted(t, subs, nil); n != 1 {
				t.Fatalf("round %d: one key created %d jobs, want 1", round, n)
			}
		}
		if st := m.Stats(); st.Submitted != 50 || st.DedupHits != 50*15 {
			t.Fatalf("stats: submitted %d, dedup hits %d; want 50 and %d", st.Submitted, st.DedupHits, 50*15)
		}
	})
}

func TestConcurrentSubmitHoldsQueueBound(t *testing.T) {
	const maxQueued = 4
	forEachKind(t, func(t *testing.T, k jobKind) {
		for round := 0; round < 5; round++ {
			m, store := k.open(t, t.TempDir(), 150*time.Millisecond, func(c *Config) {
				c.MaxConcurrent = 1
				c.MaxQueued = maxQueued
			})
			// Pin the one runner for kindChunks × 150 ms; the queue is empty.
			first, _, err := m.SubmitFor(k.request(0), "", "")
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, first.ID, jobstore.StateRunning, 5*time.Second)
			n := accepted(t, submitAll(m, 32, k.request(1), "", ""), ErrQueueFull)
			m.Close()
			store.Close()
			if n != maxQueued {
				t.Fatalf("round %d: 32 concurrent submits into an empty queue of %d admitted %d", round, maxQueued, n)
			}
		}
	})
}

func TestConcurrentSubmitHoldsTenantQuota(t *testing.T) {
	const rounds, quota = 20, 2
	tenants := make([]tenant.TenantConfig, rounds)
	for i := range tenants {
		tenants[i] = tenant.TenantConfig{ID: fmt.Sprintf("t%02d", i), Key: fmt.Sprintf("key-%02d", i),
			Limits: tenant.Limits{MaxRunningJobs: quota}}
	}
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: tenants}, nil)
	if err != nil {
		t.Fatal(err)
	}
	forEachKind(t, func(t *testing.T, k jobKind) {
		// One runner held 150 ms per chunk: every admitted job stays live.
		m, store := k.open(t, t.TempDir(), 150*time.Millisecond, func(c *Config) {
			c.Tenants = reg
			c.MaxConcurrent = 1
			c.MaxQueued = 1 << 10
		})
		defer store.Close()
		defer m.Close()

		for round, tn := range tenants {
			if n := accepted(t, submitAll(m, 16, k.request(round), "", tn.ID), ErrQuota); n != quota {
				t.Fatalf("round %d: 16 concurrent submits under a cap of %d admitted %d", round, quota, n)
			}
		}
	})
}
