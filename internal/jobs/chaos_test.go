package jobs

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/swa"
)

// TestJobsChaosSoak is the durability guarantee under fire, enforced end to
// end: rounds of a kill/restart loop over one shared WAL directory, each
// round running the manager against a service whose backend fails a seeded
// fifth of its calls (each answered exactly by the CPU-reference
// fallback) and holds every other call for 5 ms, with random job
// cancellations thrown in. All but the last
// round end in a hard Close mid-execution (the in-process stand-in for
// SIGKILL); every restart must replay the WAL, requeue incomplete jobs and
// resume them from their last checkpoint. At the end, every job must be
// terminal with either exact reference scores or a clean cancellation —
// and the WAL audit must show no (job, chunk) checkpointed twice, i.e.
// recovery never re-executed completed work. Runs in CI under -race with a wall-clock timeout.
func TestJobsChaosSoak(t *testing.T) {
	dir := t.TempDir()
	rounds, jobsPerRound := 6, 5
	if testing.Short() {
		rounds, jobsPerRound = 3, 4
	}

	newChaosManager := func(round int) (*Manager, *jobstore.Store, *alignsvc.Service) {
		storm := flakyWrap(0.2, 20170529+100*uint64(round))
		svc := alignsvc.New(alignsvc.Config{
			Backend: alignsvc.BackendStriped,
			Workers: 4,
			Wrap: func(be alignsvc.Backend) alignsvc.Backend {
				return storm(slowBackend{Backend: be, delay: 5 * time.Millisecond})
			},
			Metrics: obs.NewRegistry(),
		})
		store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
		if err != nil {
			svc.Close()
			t.Fatal(err)
		}
		m, err := New(Config{
			Store:         store,
			Service:       svc,
			ChunkSize:     4,
			MaxConcurrent: 2,
			MaxQueued:     256,
			ChunkTimeout:  30 * time.Second,
			TTL:           time.Hour, // no GC during the soak: every job stays auditable
			Metrics:       obs.NewRegistry(),
		})
		if err != nil {
			store.Close()
			svc.Close()
			t.Fatal(err)
		}
		return m, store, svc
	}

	// Each job is identified by its idempotency key; the key's number seeds
	// the deterministic batch, so reference scores are recomputable at the
	// end without carrying state across kills. The 5 ms hold per chunk
	// makes a job take real wall time, so the kill lands mid-work.
	chaosJobBatch := func(n int) ([]dna.Pair, []int) {
		rng := rand.New(rand.NewPCG(uint64(n), 0xc4a05))
		pairs := dna.RandomPairs(rng, 32, 64, 128)
		want := make([]int, len(pairs))
		for i, p := range pairs {
			want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
		}
		return pairs, want
	}
	keyOf := func(n int) string { return fmt.Sprintf("chaos-%04d", n) }
	nextJob := 0
	var totalRecovered, totalSkipped int64

	for round := 0; round < rounds; round++ {
		m, store, svc := newChaosManager(round)
		rng := rand.New(rand.NewPCG(uint64(round), 0xdead))
		totalRecovered += m.Stats().Recovered

		// Submit this round's fresh jobs (32 pairs = 8 chunks each)...
		ids := make(map[string]string)
		for i := 0; i < jobsPerRound; i++ {
			pairs, _ := chaosJobBatch(nextJob)
			snap, _, err := m.SubmitFor(align(pairs), keyOf(nextJob), "")
			if err != nil {
				t.Fatalf("round %d submit %d: %v", round, nextJob, err)
			}
			ids[keyOf(nextJob)] = snap.ID
			nextJob++
		}
		// ...and re-send a few old keys: dedup must answer, not re-enqueue.
		for i := 0; i < 3 && round > 0; i++ {
			n := rng.IntN(nextJob - jobsPerRound)
			pairs, _ := chaosJobBatch(n)
			if _, created, err := m.SubmitFor(align(pairs), keyOf(n), ""); err != nil {
				t.Fatalf("round %d resubmit %d: %v", round, n, err)
			} else if created {
				t.Fatalf("round %d: resubmitted key %s created a second job", round, keyOf(n))
			}
		}

		// Random cancellations while the pool is churning.
		for _, id := range ids {
			if rng.Float64() < 0.2 {
				if _, err := m.CancelFor(id, ""); err != nil {
					t.Fatalf("round %d cancel %s: %v", round, id, err)
				}
			}
		}

		if round < rounds-1 {
			// Let some chunks land, then kill the manager mid-flight.
			time.Sleep(time.Duration(rng.IntN(15)) * time.Millisecond)
			m.Close() // hard stop: crash semantics, jobs left running in the WAL
		} else {
			// Final round: run everything to a terminal state.
			deadline := time.Now().Add(2 * time.Minute)
			for {
				counts := store.StateCounts()
				if counts[jobstore.StateQueued]+counts[jobstore.StateRunning] == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("soak never settled: %v", counts)
				}
				time.Sleep(5 * time.Millisecond)
			}
			totalSkipped = m.Stats().ChunksSkipped
			m.Close()
		}
		store.Close()
		svc.Close()
	}

	// Audit pass over the final WAL: replay it fresh and check every job.
	store, rep, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if rep.Truncated || rep.Corrupt != "" {
		t.Fatalf("soak WAL needed repair on clean shutdown: %+v", rep)
	}
	if rep.Jobs != nextJob {
		t.Fatalf("audit sees %d jobs, submitted %d", rep.Jobs, nextJob)
	}
	var done, cancelled int
	for n := 0; n < nextJob; n++ {
		j, ok := store.ByKey(keyOf(n))
		if !ok {
			t.Fatalf("job %s lost", keyOf(n))
		}
		switch j.State {
		case jobstore.StateDone:
			done++
			res, err := j.Result()
			if err != nil {
				t.Fatalf("job %s done but unassemblable: %v", keyOf(n), err)
			}
			_, want := chaosJobBatch(n)
			for i := range want {
				if res.Scores[i] != want[i] {
					t.Fatalf("job %s score[%d] = %d, want %d", keyOf(n), i, res.Scores[i], want[i])
				}
			}
		case jobstore.StateCancelled:
			cancelled++
		case jobstore.StateFailed:
			if j.Error == "" {
				t.Fatalf("job %s failed without a message", keyOf(n))
			}
		default:
			t.Fatalf("job %s not terminal after final round: %s", keyOf(n), j.State)
		}
	}
	// Recovery must genuinely have fired across the kill/restart loop, and
	// the WAL must show no (job, chunk) ever checkpointed twice.
	if totalRecovered == 0 {
		t.Fatal("kill/restart loop never recovered a job — soak too weak")
	}
	assertNoDuplicateChunks(t, dir)
	t.Logf("soak: %d jobs (%d done, %d cancelled), %d recoveries, %d chunks skipped on resume",
		nextJob, done, cancelled, totalRecovered, totalSkipped)
}
