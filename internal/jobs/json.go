package jobs

import (
	"encoding/json"
	"strings"
	"time"

	"repro/internal/jobstore"
)

// This file pins the wire format of the job API types: stable snake_case
// field names, states as their String() forms, durations as float
// milliseconds, timestamps as Unix milliseconds — the same conventions as
// alignsvc.Report/Stats. The /jobs endpoints and /statsz marshal through
// here, so changes are breaking.

// Snapshot is the client-visible view of one job: identity, state machine
// position and chunk progress.
type Snapshot struct {
	ID         string
	Key        string // idempotency key, "" when none was sent
	Tenant     string // owning tenant ID ("" = anonymous)
	Kind       string // "" = alignment, "search" = corpus search
	Corpus     string // search jobs: corpus mount name
	TopK       int    // search jobs: requested hit count
	State      jobstore.State
	Error      string // failure message for failed jobs
	Pairs      int    // batch size (alignment) or corpus size (search)
	ChunkSize  int
	Chunks     int // total chunks
	ChunksDone int // checkpointed chunks
	Created    time.Time
	Updated    time.Time
	Elapsed    time.Duration // Updated - Created at snapshot time
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
		ID:         j.ID,
		Key:        key,
		Tenant:     j.Tenant,
		Kind:       j.Kind,
		State:      j.State,
		Error:      j.Error,
		Pairs:      len(j.Pairs),
		ChunkSize:  j.ChunkSize,
		Chunks:     j.NumChunks(),
		ChunksDone: j.ChunksDone(),
		Created:    j.Created,
		Updated:    j.Updated,
		Elapsed:    j.Updated.Sub(j.Created),
	}
	if j.Kind == jobstore.KindSearch {
		s.Corpus = j.Search.Corpus
		s.TopK = j.Search.TopK
		s.Pairs = j.Search.SeqCount
	}
	return s
}

type snapshotJSON struct {
	ID            string         `json:"id"`
	Key           string         `json:"idempotency_key,omitempty"`
	Tenant        string         `json:"tenant,omitempty"`
	Kind          string         `json:"kind,omitempty"`
	Corpus        string         `json:"corpus,omitempty"`
	TopK          int            `json:"top_k,omitempty"`
	State         jobstore.State `json:"state"`
	Error         string         `json:"error,omitempty"`
	Pairs         int            `json:"pairs"`
	ChunkSize     int            `json:"chunk_size"`
	Chunks        int            `json:"chunks"`
	ChunksDone    int            `json:"chunks_done"`
	CreatedUnixMS int64          `json:"created_unix_ms"`
	UpdatedUnixMS int64          `json:"updated_unix_ms"`
	ElapsedMS     float64        `json:"elapsed_ms"`
}

// MarshalJSON implements the stable wire format described above.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(snapshotJSON{
		ID:            s.ID,
		Key:           s.Key,
		Tenant:        s.Tenant,
		Kind:          s.Kind,
		Corpus:        s.Corpus,
		TopK:          s.TopK,
		State:         s.State,
		Error:         s.Error,
		Pairs:         s.Pairs,
		ChunkSize:     s.ChunkSize,
		Chunks:        s.Chunks,
		ChunksDone:    s.ChunksDone,
		CreatedUnixMS: s.Created.UnixMilli(),
		UpdatedUnixMS: s.Updated.UnixMilli(),
		ElapsedMS:     float64(s.Elapsed) / float64(time.Millisecond),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON. Timestamps come back with
// millisecond precision in UTC.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	var in snapshotJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*s = Snapshot{
		ID:         in.ID,
		Key:        in.Key,
		Tenant:     in.Tenant,
		Kind:       in.Kind,
		Corpus:     in.Corpus,
		TopK:       in.TopK,
		State:      in.State,
		Error:      in.Error,
		Pairs:      in.Pairs,
		ChunkSize:  in.ChunkSize,
		Chunks:     in.Chunks,
		ChunksDone: in.ChunksDone,
		Created:    time.UnixMilli(in.CreatedUnixMS).UTC(),
		Updated:    time.UnixMilli(in.UpdatedUnixMS).UTC(),
		Elapsed:    time.Duration(in.ElapsedMS * float64(time.Millisecond)),
	}
	return nil
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
	CacheWarmed        int64 `json:"cache_warmed"`        // checkpointed pair scores republished into the score cache at startup

	GCDropped int64 `json:"gc_dropped"` // terminal jobs dropped by TTL GC

	Queued    int64 `json:"queued"`     // jobs waiting right now
	Running   int64 `json:"running"`    // jobs executing right now
	JobsHeld  int64 `json:"jobs_held"`  // live jobs in the store
	MaxQueued int64 `json:"max_queued"` // the queue bound
}
