package jobs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
)

func TestSnapshotJSONRoundTrip(t *testing.T) {
	created := time.Date(2026, 8, 6, 10, 30, 0, 0, time.UTC).UnixMilli()
	in := Snapshot{
		ID:            "job-00000000deadbeef",
		Key:           "batch-42",
		State:         jobstore.StateFailed,
		Error:         "chunk 3/8: deadline exceeded after 1m0s",
		Pairs:         100,
		ChunkSize:     16,
		Chunks:        7,
		ChunksDone:    3,
		CreatedUnixMS: created,
		UpdatedUnixMS: created + 1500,
		ElapsedMS:     1500,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format is snake_case with ms-denominated times.
	for _, want := range []string{
		`"id":"job-00000000deadbeef"`,
		`"idempotency_key":"batch-42"`,
		`"state":"failed"`,
		`"error":"chunk 3/8: deadline exceeded after 1m0s"`,
		`"pairs":100`,
		`"chunk_size":16`,
		`"chunks":7`,
		`"chunks_done":3`,
		`"created_unix_ms":`,
		`"updated_unix_ms":`,
		`"elapsed_ms":1500`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("marshal missing %s in %s", want, b)
		}
	}
	var out Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestSnapshotJSONOmitsEmpty(t *testing.T) {
	b, err := json.Marshal(Snapshot{ID: "job-1", State: jobstore.StateQueued})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "idempotency_key") {
		t.Errorf("empty key not omitted: %s", b)
	}
	if strings.Contains(string(b), `"error"`) {
		t.Errorf("empty error not omitted: %s", b)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Submitted: 10, DedupHits: 2, Completed: 6, Failed: 1, Cancelled: 1,
		Recovered: 3, RecoveredChunks: 12, Requeued: 2,
		ChunksExecuted: 40, ChunksCheckpointed: 40, ChunksSkipped: 12,
		CacheWarmed: 5, GCDropped: 4, Queued: 1, Running: 1, JobsHeld: 8, MaxQueued: 64,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"submitted":10`, `"dedup_hits":2`, `"completed":6`, `"failed":1`,
		`"cancelled":1`, `"recovered":3`, `"recovered_chunks":12`,
		`"requeued":2`, `"chunks_executed":40`, `"chunks_checkpointed":40`,
		`"chunks_skipped":12`, `"cache_warmed":5`, `"gc_dropped":4`, `"queued":1`, `"running":1`,
		`"jobs_held":8`, `"max_queued":64`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("marshal missing %s in %s", want, b)
		}
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestEventJSONRoundTrip pins an SSE frame's wire format: the server writes
// each Event as {"seq","type","job"} with the job's snapshot inside.
func TestEventJSONRoundTrip(t *testing.T) {
	created := time.Date(2026, 8, 6, 10, 30, 0, 0, time.UTC).UnixMilli()
	in := Event{Seq: 7, Type: EventChunk, Job: Snapshot{
		ID: "job-1", State: jobstore.StateRunning, Pairs: 64, ChunkSize: 16,
		Chunks: 4, ChunksDone: 2, CreatedUnixMS: created, UpdatedUnixMS: created + 1000,
		ElapsedMS: 1000,
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(in.Job)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":7,"type":"chunk","job":` + string(job) + `}`; string(b) != want {
		t.Fatalf("marshal:\n got %s\nwant %s", b, want)
	}
	var out Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestSnapshotWireBytes pins the exact bytes /jobs bodies and SSE frames
// carry for a full snapshot and for one whose optional fields are empty:
// each decodes and re-encodes to itself, byte for byte.
func TestSnapshotWireBytes(t *testing.T) {
	for _, wire := range []string{
		`{"id":"job-00000000deadbeef","idempotency_key":"batch-42","tenant":"acme","kind":"search",` +
			`"corpus":"ref","top_k":10,"state":"failed","error":"chunk 3/8: deadline exceeded after 1m0s",` +
			`"pairs":100,"chunk_size":16,"chunks":7,"chunks_done":3,"created_unix_ms":1786012200000,` +
			`"updated_unix_ms":1786012201500,"elapsed_ms":1500.25}`,
		`{"id":"job-1","state":"queued","pairs":0,"chunk_size":0,"chunks":0,"chunks_done":0,` +
			`"created_unix_ms":0,"updated_unix_ms":0,"elapsed_ms":0}`,
	} {
		var s Snapshot
		if err := json.Unmarshal([]byte(wire), &s); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != wire {
			t.Errorf("re-encoded:\n got %s\nwant %s", b, wire)
		}
	}
}
