package jobstore

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// State is one node of the job state machine:
//
//	queued → running → done
//	              ↘  → failed
//	queued/running → cancelled
//	running → queued        (drain requeue / crash recovery)
type State int

const (
	// StateQueued jobs wait in FIFO order for a runner slot.
	StateQueued State = iota
	// StateRunning jobs have a runner executing chunks.
	StateRunning
	// StateDone jobs have every chunk checkpointed; scores are assembled
	// from the checkpoints.
	StateDone
	// StateFailed jobs hit a non-retryable error (recorded in Job.Error).
	StateFailed
	// StateCancelled jobs were cancelled by the client.
	StateCancelled
	numStates
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ParseState is the inverse of State.String.
func ParseState(s string) (State, error) {
	for st := StateQueued; st < numStates; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("jobstore: unknown job state %q", s)
}

func (s State) known() bool { return s >= 0 && s < numStates }

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MarshalJSON renders the state name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the state name.
func (s *State) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("jobstore: state must be a JSON string, got %q", b)
	}
	v, err := ParseState(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// validTransition is the state machine's edge set.
func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCancelled
	case StateRunning:
		return to == StateDone || to == StateFailed || to == StateCancelled || to == StateQueued
	}
	return false
}

// Job is the durable view of one async job, rebuilt from the WAL on
// every open. Alignment jobs (Kind "") carry Pairs and checkpoint each
// chunk's scores; search jobs (KindSearch) carry a SearchSpec and
// checkpoint each chunk's top-K hits.
type Job struct {
	ID        string
	Key       string // idempotency key ("" when the client sent none)
	Tenant    string // owning tenant ID ("" = the anonymous tenant)
	Kind      string // "" = alignment, KindSearch = corpus search
	State     State
	Error     string // failure message for StateFailed
	ChunkSize int
	Pairs     []PairData
	Search    *SearchSpec
	// Chunks holds the checkpoints by chunk index. A present but empty
	// search checkpoint is legitimate: no candidate fell in its ID range.
	Chunks    map[int]Checkpoint
	SubmitSeq uint64    // WAL sequence of the submit record: FIFO order
	Created   time.Time // submit record timestamp
	Updated   time.Time // timestamp of the job's latest record
}

// Checkpoint is what one completed chunk holds: an alignment chunk's exact
// scores, one per pair, or a search chunk's top-K hits.
type Checkpoint struct {
	Scores []int
	Hits   []HitData
}

// units is how many items the job chunks over: pairs for alignment,
// corpus sequences for search.
func (j *Job) units() int {
	if j.Kind == KindSearch {
		return j.Search.SeqCount
	}
	return len(j.Pairs)
}

// NumChunks is how many chunks the job splits into.
func (j *Job) NumChunks() int {
	return (j.units() + j.ChunkSize - 1) / j.ChunkSize
}

// ChunkBounds returns the [lo, hi) item range of chunk idx: pair indices
// for alignment jobs, corpus sequence IDs for search jobs.
func (j *Job) ChunkBounds(idx int) (lo, hi int) {
	lo = idx * j.ChunkSize
	hi = min(lo+j.ChunkSize, j.units())
	return lo, hi
}

// ChunksDone counts checkpointed chunks.
func (j *Job) ChunksDone() int { return len(j.Chunks) }

// Result concatenates the checkpoints in chunk order: an alignment job's
// scores, one per pair, or the union of a search job's per-chunk top-K
// hits, which the caller ranks. It fails if any chunk is missing or the
// scores do not cover the pairs.
func (j *Job) Result() (Checkpoint, error) {
	var out Checkpoint
	for c := 0; c < j.NumChunks(); c++ {
		ck, ok := j.Chunks[c]
		if !ok {
			return Checkpoint{}, fmt.Errorf("jobstore: job %s: chunk %d not checkpointed", j.ID, c)
		}
		out.Scores = append(out.Scores, ck.Scores...)
		out.Hits = append(out.Hits, ck.Hits...)
	}
	if j.Kind == "" && len(out.Scores) != len(j.Pairs) {
		return Checkpoint{}, fmt.Errorf("jobstore: job %s: %d scores for %d pairs", j.ID, len(out.Scores), len(j.Pairs))
	}
	return out, nil
}

// clone snapshots the job for readers. Pairs and checkpoint slices are
// shared (append-only once written), the chunk map is copied.
func (j *Job) clone() *Job {
	c := *j
	c.Chunks = make(map[int]Checkpoint, len(j.Chunks))
	for k, v := range j.Chunks {
		c.Chunks[k] = v
	}
	return &c
}

// Typed store errors.
var (
	// ErrNotFound is returned for an unknown job ID.
	ErrNotFound = errors.New("jobstore: job not found")
	// ErrBadTransition is returned for a state change the machine forbids
	// (including any write to a terminal job).
	ErrBadTransition = errors.New("jobstore: invalid state transition")
	// ErrDuplicateChunk is returned when a chunk index is checkpointed
	// twice — the signature of duplicate chunk execution.
	ErrDuplicateChunk = errors.New("jobstore: chunk already checkpointed")
)

// Options configures Open.
type Options struct {
	// Dir is the WAL directory (created if missing). Required.
	Dir string
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy

	// now replaces the record-timestamp clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Store is the durable job store: an in-memory job map kept in lockstep
// with the WAL. Every mutation appends a record first, then applies it, so
// a crash at any point replays to a state the process actually reached.
// Safe for concurrent use.
type Store struct {
	opts Options

	mu    sync.Mutex
	w     *wal
	jobs  map[string]*Job
	byKey map[string]string // idempotency key → job ID
	seq   uint64
	open  bool
}

// Open replays the WAL in dir (creating it if missing), truncates any torn
// or corrupt tail, rebuilds the job map, and returns the store positioned
// for appends. The report says how much was recovered and whether anything
// was cut.
func Open(opts Options) (*Store, ReplayReport, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, ReplayReport{}, errors.New("jobstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, ReplayReport{}, fmt.Errorf("jobstore: create dir: %w", err)
	}
	recs, rep, segs, plan, err := scanDir(opts.Dir)
	if err != nil {
		return nil, rep, err
	}
	if err := applyTruncPlan(opts.Dir, segs, plan); err != nil {
		return nil, rep, err
	}
	s := &Store{
		opts:  opts,
		jobs:  make(map[string]*Job),
		byKey: make(map[string]string),
		open:  true,
	}
	for _, rec := range recs {
		s.apply(rec) // replay is lenient: asserted valid at append time
		s.seq = rec.Seq
	}
	rep.Jobs = len(s.jobs)
	w, err := openWAL(opts.Dir, opts.SegmentBytes, opts.Sync)
	if err != nil {
		return nil, rep, err
	}
	s.w = w
	return s, rep, nil
}

// Close fsyncs and closes the WAL. Further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return nil
	}
	s.open = false
	return s.w.close()
}

// apply folds one (already validated) record into the in-memory state.
// Replay and live appends share it, so memory always matches the log.
func (s *Store) apply(rec Record) {
	t := time.UnixMilli(rec.TimeMS)
	switch rec.Type {
	case RecSubmit:
		sub := rec.Submit
		j := &Job{
			ID:        sub.ID,
			Key:       sub.Key,
			Tenant:    sub.Tenant,
			Kind:      sub.Kind,
			State:     StateQueued,
			ChunkSize: sub.ChunkSize,
			Pairs:     sub.Pairs,
			Search:    sub.Search,
			Chunks:    make(map[int]Checkpoint),
			SubmitSeq: rec.Seq,
			Created:   t,
			Updated:   t,
		}
		s.jobs[sub.ID] = j
		if sub.Key != "" {
			s.byKey[sub.Key] = sub.ID
		}
	case RecState:
		if j, ok := s.jobs[rec.State.ID]; ok {
			j.State = rec.State.State
			j.Error = rec.State.Error
			j.Updated = t
		}
	case RecChunk:
		if j, ok := s.jobs[rec.Chunk.ID]; ok {
			j.Chunks[rec.Chunk.Index] = Checkpoint{Scores: rec.Chunk.Scores, Hits: rec.Chunk.Hits}
			j.Updated = t
		}
	case RecDrop:
		if j, ok := s.jobs[rec.Drop.ID]; ok {
			if j.Key != "" && s.byKey[j.Key] == j.ID {
				delete(s.byKey, j.Key)
			}
			delete(s.jobs, rec.Drop.ID)
		}
	}
}

// appendLocked checks one record against the WAL's own invariants
// (Record.validate, the check replay applies), persists it and folds it
// into memory. Caller holds s.mu and has checked the mutation against the
// job's state.
func (s *Store) appendLocked(rec Record) error {
	if !s.open {
		return errors.New("jobstore: store closed")
	}
	if err := rec.validate(); err != nil {
		return fmt.Errorf("jobstore: invalid %s record: %w", rec.Type, err)
	}
	s.seq++
	rec.Seq = s.seq
	rec.TimeMS = nowMS(s.opts.now())
	if err := s.w.append(rec); err != nil {
		s.seq-- // a failed append leaves no record in the log (wal.append)
		return err
	}
	s.apply(rec)
	return nil
}

// Submit persists a new job in StateQueued. The record carries an unused
// ID, a positive chunk size and either pairs (an alignment job) or, with
// Kind KindSearch, a fully resolved search spec, so a replayed job
// re-derives exactly what was submitted. The owning tenant is written to
// the WAL too, so ownership (and any per-tenant running-job quota derived
// from it) survives replay.
func (s *Store) Submit(sub SubmitRecord) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.jobs[sub.ID]; exists {
		return nil, fmt.Errorf("jobstore: job %s already exists", sub.ID)
	}
	if err := s.appendLocked(Record{Type: RecSubmit, Submit: &sub}); err != nil {
		return nil, err
	}
	return s.jobs[sub.ID].clone(), nil
}

// SetState transitions a job, returning its previous state (for callers
// maintaining per-state gauges). Invalid transitions — including any write
// to a terminal job — fail with ErrBadTransition.
func (s *Store) SetState(id string, to State, errMsg string) (prev State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !validTransition(j.State, to) {
		return j.State, fmt.Errorf("%w: %s: %s → %s", ErrBadTransition, id, j.State, to)
	}
	prev = j.State
	err = s.appendLocked(Record{Type: RecState,
		State: &StateRecord{ID: id, State: to, Error: errMsg}})
	return prev, err
}

// AddChunk checkpoints chunk idx of a running job: an alignment chunk's
// scores, one per pair of the chunk, or a search chunk's hits, at most
// top-k and possibly none. Checkpointing the same index twice fails with
// ErrDuplicateChunk — re-executing a checkpointed chunk is a bug, and the
// log is the proof.
func (s *Store) AddChunk(id string, idx int, ck Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.State != StateRunning {
		return fmt.Errorf("%w: %s: chunk checkpoint in state %s", ErrBadTransition, id, j.State)
	}
	if idx < 0 || idx >= j.NumChunks() {
		return fmt.Errorf("jobstore: job %s: chunk index %d out of range [0,%d)", id, idx, j.NumChunks())
	}
	if _, dup := j.Chunks[idx]; dup {
		return fmt.Errorf("%w: job %s chunk %d", ErrDuplicateChunk, id, idx)
	}
	search := j.Kind == KindSearch
	if lo, hi := j.ChunkBounds(idx); !search && len(ck.Scores) != hi-lo {
		return fmt.Errorf("jobstore: job %s: chunk %d got %d scores, want %d", id, idx, len(ck.Scores), hi-lo)
	}
	if search && len(ck.Hits) > j.Search.TopK {
		return fmt.Errorf("jobstore: job %s: chunk %d got %d hits, top-k is %d", id, idx, len(ck.Hits), j.Search.TopK)
	}
	// Record.validate rejects the payload of the other kind.
	return s.appendLocked(Record{Type: RecChunk,
		Chunk: &ChunkRecord{ID: id, Index: idx, Scores: ck.Scores, Search: search, Hits: ck.Hits}})
}

// Drop garbage-collects a terminal job.
func (s *Store) Drop(id string) (prev State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.State.Terminal() {
		return j.State, fmt.Errorf("%w: %s: drop in state %s", ErrBadTransition, id, j.State)
	}
	prev = j.State
	err = s.appendLocked(Record{Type: RecDrop, Drop: &DropRecord{ID: id}})
	return prev, err
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// ByKey returns a snapshot of the job holding an idempotency key.
func (s *Store) ByKey(key string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	return s.jobs[id].clone(), true
}

// List snapshots every job in submission (FIFO) order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmitSeq < out[b].SubmitSeq })
	return out
}

// ActiveByTenant counts a tenant's live (queued or running) jobs — the
// quantity per-tenant running-job quotas are enforced against. Because
// ownership is WAL-resident, the count is correct immediately after replay.
func (s *Store) ActiveByTenant(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// StateCounts tallies jobs per state without cloning payloads.
func (s *Store) StateCounts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, int(numStates))
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}

// Len is the number of live (non-dropped) jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
