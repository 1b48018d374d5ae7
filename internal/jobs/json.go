package jobs

import (
	"strings"
	"time"

	"repro/internal/jobstore"
)

// This file pins the wire format of the job API types as struct tags:
// stable snake_case field names, states as their String() forms, durations
// as float milliseconds, timestamps as Unix milliseconds — the same
// conventions as alignsvc.Report/Stats. The /jobs endpoints and /statsz
// marshal these types, so changes are breaking.

// Snapshot is the client-visible view of one job: identity, state machine
// position and chunk progress. The JSON names are the /jobs wire format.
type Snapshot struct {
	ID         string         `json:"id"`
	Key        string         `json:"idempotency_key,omitempty"` // "" when none was sent
	Tenant     string         `json:"tenant,omitempty"`          // owning tenant ID ("" = anonymous)
	Kind       string         `json:"kind,omitempty"`            // "" = alignment, "search" = corpus search
	Corpus     string         `json:"corpus,omitempty"`          // search jobs: corpus mount name
	TopK       int            `json:"top_k,omitempty"`           // search jobs: requested hit count
	State      jobstore.State `json:"state"`
	Error      string         `json:"error,omitempty"` // failure message for failed jobs
	Pairs      int            `json:"pairs"`           // batch size (alignment) or corpus size (search)
	ChunkSize  int            `json:"chunk_size"`
	Chunks     int            `json:"chunks"`      // total chunks
	ChunksDone int            `json:"chunks_done"` // checkpointed chunks

	CreatedUnixMS int64   `json:"created_unix_ms"`
	UpdatedUnixMS int64   `json:"updated_unix_ms"`
	ElapsedMS     float64 `json:"elapsed_ms"` // Updated - Created at snapshot time
}

// snapshot builds the wire view from a store job.
func (m *Manager) snapshot(j *jobstore.Job) Snapshot {
	// The stored key may be tenant-namespaced (see storeKey); clients get
	// back exactly the key they sent.
	key := j.Key
	if i := strings.IndexByte(key, 0); i >= 0 {
		key = key[i+1:]
	}
	s := Snapshot{
		ID:            j.ID,
		Key:           key,
		Tenant:        j.Tenant,
		Kind:          j.Kind,
		State:         j.State,
		Error:         j.Error,
		Pairs:         len(j.Pairs),
		ChunkSize:     j.ChunkSize,
		Chunks:        j.NumChunks(),
		ChunksDone:    j.ChunksDone(),
		CreatedUnixMS: j.Created.UnixMilli(),
		UpdatedUnixMS: j.Updated.UnixMilli(),
		ElapsedMS:     float64(j.Updated.Sub(j.Created)) / float64(time.Millisecond),
	}
	if j.Kind == jobstore.KindSearch {
		s.Corpus = j.Search.Corpus
		s.TopK = j.Search.TopK
		s.Pairs = j.Search.SeqCount
	}
	return s
}

// Stats is a snapshot of the manager counters, for /statsz and the chaos
// harnesses. The JSON names are the /statsz wire format.
type Stats struct {
	Submitted int64 `json:"submitted"`  // jobs accepted (excluding dedup hits)
	DedupHits int64 `json:"dedup_hits"` // submissions answered by an existing job's key
	Completed int64 `json:"completed"`  // jobs reaching done
	Failed    int64 `json:"failed"`     // jobs reaching failed
	Cancelled int64 `json:"cancelled"`  // jobs reaching cancelled

	Recovered       int64 `json:"recovered"`        // incomplete jobs requeued by startup recovery
	RecoveredChunks int64 `json:"recovered_chunks"` // chunks already checkpointed on those jobs
	Requeued        int64 `json:"requeued"`         // running jobs parked back to queued by drain

	ChunksExecuted     int64 `json:"chunks_executed"`     // chunks actually computed
	ChunksCheckpointed int64 `json:"chunks_checkpointed"` // chunk records appended to the WAL
	ChunksSkipped      int64 `json:"chunks_skipped"`      // checkpointed chunks skipped on resume

	GCDropped int64 `json:"gc_dropped"` // terminal jobs dropped by TTL GC

	Queued    int64 `json:"queued"`     // jobs waiting right now
	Running   int64 `json:"running"`    // jobs executing right now
	JobsHeld  int64 `json:"jobs_held"`  // live jobs in the store
	MaxQueued int64 `json:"max_queued"` // the queue bound
}
