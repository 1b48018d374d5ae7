// Package jobstore persists the async job subsystem's state machine in an
// append-only write-ahead log so jobs of both kinds, alignment and corpus
// search, survive process crashes.
//
// The log is a directory of JSON-lines segments (wal-00000001.log, …). Each
// record is one line of the form
//
//	crc32hex<space>payload-json\n
//
// where the CRC-32 (IEEE) covers exactly the payload bytes. Records carry a
// strictly increasing sequence number, a timestamp, and one of four typed
// payloads: a job submission (id, idempotency key, chunk size, and either
// the alignment pairs or a corpus-search spec), a state transition
// (queued → running → done/failed/cancelled, plus the running → queued
// requeue used by drain), a chunk checkpoint (chunk index + scores, or
// per-chunk top-K hits for search jobs), or a drop (TTL garbage collection
// of a terminal job).
//
// Replay tolerates crashes at any byte: a torn or corrupt tail is truncated
// back to the last whole record (never a panic, always a typed
// *CorruptError in the report), and everything before the corruption point
// is recovered. Durability is one inline rule, SyncPolicy: fsync every
// append before it returns, or never (the OS decides). An append that fails
// leaves no record behind.
package jobstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// RecordType discriminates the WAL record payloads.
type RecordType string

const (
	// RecSubmit introduces a job: id, idempotency key, chunk size, and
	// pairs or a search spec.
	RecSubmit RecordType = "submit"
	// RecState transitions a job's state.
	RecState RecordType = "state"
	// RecChunk checkpoints one completed chunk's scores or hits.
	RecChunk RecordType = "chunk"
	// RecDrop removes a terminal job (TTL garbage collection).
	RecDrop RecordType = "drop"
)

// PairData is one (pattern, text) pair as ACGT strings — the durable form
// of a dna.Pair (jobstore stays stdlib-only; callers convert).
type PairData struct {
	X string `json:"x"`
	Y string `json:"y"`
}

// KindSearch marks a corpus-search job. The zero kind ("") is an
// alignment job, so logs written before search jobs existed replay
// unchanged.
const KindSearch = "search"

// SearchSpec is the durable description of a corpus-search job: the
// corpus it runs against (pinned by fingerprint, so a resume against a
// rebuilt corpus fails instead of silently mixing result sets), the
// query, and the fully resolved search parameters — defaults are
// resolved before submit so a replayed job re-derives the exact same
// candidate set.
type SearchSpec struct {
	Corpus      string `json:"corpus"`      // registry mount name
	Fingerprint string `json:"fingerprint"` // corpus content fingerprint at submit
	Query       string `json:"query"`       // ACGT query string
	TopK        int    `json:"top_k"`
	MinKmerHits int    `json:"min_kmer_hits"`
	MaxEdits    int    `json:"max_edits"` // bound of the retired bitap stage; new records write -1 (off)
	SeqCount    int    `json:"seq_count"` // corpus size at submit; chunking divides it
}

// HitData is one ranked hit in durable form (jobstore stays
// stdlib-only; callers convert to/from corpus.Hit).
type HitData struct {
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	Score int    `json:"score"`
}

// SubmitRecord introduces a job. Tenant is the owning tenant's ID; it is
// omitempty so logs written before multi-tenancy replay unchanged (an
// absent tenant means the anonymous tenant). Kind/Search are likewise
// omitempty: absent means an alignment job, set means a search job
// (which carries a SearchSpec instead of pairs).
type SubmitRecord struct {
	ID        string      `json:"id"`
	Key       string      `json:"key,omitempty"` // idempotency key
	Tenant    string      `json:"tenant,omitempty"`
	Kind      string      `json:"kind,omitempty"`
	ChunkSize int         `json:"chunk_size"`
	Pairs     []PairData  `json:"pairs,omitempty"`
	Search    *SearchSpec `json:"search,omitempty"`
}

// StateRecord transitions a job's state. Error is set for StateFailed.
type StateRecord struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// ChunkRecord checkpoints chunk Index of job ID. Alignment chunks carry
// the chunk's exact scores; search chunks set Search and carry the
// chunk's top-K hits instead — Hits may legitimately be empty (no
// candidate in the chunk's ID range), which is why the Search flag
// exists rather than inferring the kind from a non-empty Hits.
type ChunkRecord struct {
	ID     string    `json:"id"`
	Index  int       `json:"index"`
	Scores []int     `json:"scores,omitempty"`
	Search bool      `json:"search,omitempty"`
	Hits   []HitData `json:"hits,omitempty"`
}

// DropRecord removes a terminal job from the store.
type DropRecord struct {
	ID string `json:"id"`
}

// Record is the WAL record envelope: exactly one payload field is non-nil,
// matching Type.
type Record struct {
	Seq    uint64        `json:"seq"`
	TimeMS int64         `json:"time_ms"`
	Type   RecordType    `json:"type"`
	Submit *SubmitRecord `json:"submit,omitempty"`
	State  *StateRecord  `json:"state,omitempty"`
	Chunk  *ChunkRecord  `json:"chunk,omitempty"`
	Drop   *DropRecord   `json:"drop,omitempty"`
}

// ErrCorrupt is the sentinel wrapped by every WAL decode failure, so callers
// can errors.Is() corruption apart from I/O errors.
var ErrCorrupt = errors.New("jobstore: corrupt WAL record")

// CorruptError describes where and why a WAL record failed to decode.
type CorruptError struct {
	Segment string // segment file name ("" when decoding a bare line)
	Offset  int64  // byte offset of the record start within the segment
	Reason  string
}

func (e *CorruptError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("jobstore: corrupt WAL record: %s", e.Reason)
	}
	return fmt.Sprintf("jobstore: corrupt WAL record at %s+%d: %s", e.Segment, e.Offset, e.Reason)
}

// Unwrap ties every CorruptError to the ErrCorrupt sentinel.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// encodeRecord renders one record line: crc32hex, space, JSON, newline.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobstore: marshal record: %w", err)
	}
	var b bytes.Buffer
	b.Grow(len(payload) + 10)
	fmt.Fprintf(&b, "%08x ", crc32.ChecksumIEEE(payload))
	b.Write(payload)
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// decodeRecord parses one line (without the trailing newline). Every failure
// is a *CorruptError; it never panics on arbitrary bytes.
func decodeRecord(line []byte) (Record, error) {
	corrupt := func(reason string) (Record, error) {
		return Record{}, &CorruptError{Reason: reason}
	}
	if len(line) < 10 || line[8] != ' ' {
		return corrupt("short or malformed header")
	}
	sum64, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return corrupt("bad CRC hex: " + err.Error())
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(sum64) {
		return corrupt(fmt.Sprintf("CRC mismatch: header %08x, payload %08x", uint32(sum64), got))
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return corrupt("bad JSON: " + err.Error())
	}
	if err := rec.validate(); err != nil {
		return corrupt(err.Error())
	}
	return rec, nil
}

// validate checks the envelope invariant: exactly one payload, matching Type.
func (r Record) validate() error {
	var set int
	for _, p := range []bool{r.Submit != nil, r.State != nil, r.Chunk != nil, r.Drop != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("%d payloads set, want exactly 1", set)
	}
	switch r.Type {
	case RecSubmit:
		if r.Submit == nil {
			return errors.New("type submit without submit payload")
		}
		if r.Submit.ID == "" || r.Submit.ChunkSize <= 0 {
			return errors.New("submit payload missing id or chunk size")
		}
		switch r.Submit.Kind {
		case "":
			if len(r.Submit.Pairs) == 0 {
				return errors.New("submit payload missing pairs")
			}
			if r.Submit.Search != nil {
				return errors.New("alignment submit carrying a search spec")
			}
		case KindSearch:
			sp := r.Submit.Search
			if sp == nil {
				return errors.New("search submit without search spec")
			}
			if len(r.Submit.Pairs) != 0 {
				return errors.New("search submit carrying pairs")
			}
			if sp.Corpus == "" || sp.Query == "" || sp.SeqCount <= 0 || sp.TopK <= 0 {
				return errors.New("search spec missing corpus, query, seq count or top-k")
			}
		default:
			return fmt.Errorf("unknown submit kind %q", r.Submit.Kind)
		}
	case RecState:
		if r.State == nil {
			return errors.New("type state without state payload")
		}
		if r.State.ID == "" || !r.State.State.known() {
			return errors.New("state payload missing id or unknown state")
		}
	case RecChunk:
		if r.Chunk == nil {
			return errors.New("type chunk without chunk payload")
		}
		if r.Chunk.ID == "" || r.Chunk.Index < 0 {
			return errors.New("chunk payload missing id or index")
		}
		if r.Chunk.Search {
			if len(r.Chunk.Scores) != 0 {
				return errors.New("search chunk carrying scores")
			}
		} else if len(r.Chunk.Scores) == 0 {
			return errors.New("chunk payload missing scores")
		} else if len(r.Chunk.Hits) != 0 {
			return errors.New("alignment chunk carrying hits")
		}
	case RecDrop:
		if r.Drop == nil {
			return errors.New("type drop without drop payload")
		}
		if r.Drop.ID == "" {
			return errors.New("drop payload missing id")
		}
	default:
		return fmt.Errorf("unknown record type %q", r.Type)
	}
	return nil
}

const segmentPattern = "wal-%08d.log"

// segmentName renders the numbered segment file name.
func segmentName(n int) string { return fmt.Sprintf(segmentPattern, n) }

// segmentNumber parses a segment file name, reporting ok=false for
// foreign files.
func segmentNumber(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, segmentPattern, &n); err != nil || segmentName(n) != name {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment file names in dir, in log order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		if _, ok := segmentNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// ReplayReport says what replay found — and what it had to throw away.
type ReplayReport struct {
	Segments  int    `json:"segments"`  // segment files scanned
	Records   int    `json:"records"`   // whole records recovered
	Truncated bool   `json:"truncated"` // a torn/corrupt tail was cut
	Corrupt   string `json:"corrupt,omitempty"`
	// TruncatedBytes counts bytes discarded at and after the corruption
	// point (including any later segments removed wholesale).
	TruncatedBytes int64 `json:"truncated_bytes"`
	Jobs           int   `json:"jobs"` // live jobs after applying the records
}

// scanSegment reads whole records from one segment file, stopping at the
// first torn or corrupt record. lastSeq is the sequence number of the last
// record in the previous segment (0 for the first), continuing the strictly
// increasing sequence check across the boundary. It returns the records, the
// byte offset of the first bad record (== file size when the whole file is
// clean), and the corruption that stopped it (nil when clean).
func scanSegment(path string, lastSeq uint64) (recs []Record, goodLen int64, corrupt *CorruptError, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return recs, off, nil, nil
		}
		if err == io.EOF {
			// Bytes after the final newline: a torn record from a crash
			// mid-append.
			return recs, off, &CorruptError{Segment: filepath.Base(path), Offset: off,
				Reason: "torn record at end of segment"}, nil
		}
		if err != nil {
			return nil, 0, nil, err
		}
		rec, derr := decodeRecord(bytes.TrimSuffix(line, []byte("\n")))
		if derr != nil {
			ce := derr.(*CorruptError)
			ce.Segment, ce.Offset = filepath.Base(path), off
			return recs, off, ce, nil
		}
		if rec.Seq <= lastSeq {
			return recs, off, &CorruptError{Segment: filepath.Base(path), Offset: off,
				Reason: fmt.Sprintf("sequence regression: %d after %d", rec.Seq, lastSeq)}, nil
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off += int64(len(line))
	}
}

// truncPlan says how to repair a corrupt log: cut segment segs[index] back
// to goodLen bytes and delete every later segment.
type truncPlan struct {
	index   int
	goodLen int64
}

// scanDir reads every whole record from the WAL directory, stopping at the
// first corruption and returning the repair plan (nil when clean). Missing
// directories scan as empty.
func scanDir(dir string) (all []Record, rep ReplayReport, segs []string, plan *truncPlan, err error) {
	segs, err = listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, rep, nil, nil, nil
		}
		return nil, rep, nil, nil, err
	}
	var lastSeq uint64
	for i, seg := range segs {
		path := filepath.Join(dir, seg)
		recs, goodLen, corrupt, err := scanSegment(path, lastSeq)
		if err != nil {
			return nil, rep, nil, nil, err
		}
		rep.Segments++
		all = append(all, recs...)
		rep.Records += len(recs)
		if len(recs) > 0 {
			lastSeq = recs[len(recs)-1].Seq
		}
		if corrupt != nil {
			plan = &truncPlan{index: i, goodLen: goodLen}
			rep.Truncated = true
			rep.Corrupt = corrupt.Error()
			if st, err := os.Stat(path); err == nil {
				rep.TruncatedBytes += st.Size() - goodLen
			}
			for _, later := range segs[i+1:] {
				if st, err := os.Stat(filepath.Join(dir, later)); err == nil {
					rep.TruncatedBytes += st.Size()
				}
			}
			break
		}
	}
	return all, rep, segs, plan, nil
}

// ScanDir reads every whole record from the WAL directory without mutating
// anything, stopping at the first corruption. Tests and tooling use it to
// audit a log (e.g. proving no chunk was checkpointed twice); Open uses the
// same scan and then truncates.
func ScanDir(dir string) ([]Record, ReplayReport, error) {
	all, rep, _, _, err := scanDir(dir)
	return all, rep, err
}

// SyncPolicy selects when appends reach the disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before it returns — the crash-safe
	// default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy is the inverse of SyncPolicy.String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("jobstore: unknown sync policy %q (want always or never)", s)
}

// wal is the append side of the log: the current segment file plus the
// rotation and sync machinery. Callers (Store) serialize access.
type wal struct {
	dir      string
	segBytes int64
	policy   SyncPolicy

	f      *os.File
	segNum int
	size   int64 // bytes of whole records in f
	// broken is set when a failed append could not be undone: every later
	// append fails with it until the store is reopened and replay repairs
	// the log.
	broken error

	// syncDir fsyncs the WAL directory; a test seam (defaults to
	// fsyncDir). File fsync alone does not persist the *directory entry*
	// of a freshly created segment: a crash right after rotation could
	// lose the new segment's name even though its bytes were synced.
	syncDir func(string) error
	// syncFile fsyncs a segment file; a test seam (defaults to
	// (*os.File).Sync).
	syncFile func(*os.File) error
}

// fsyncDir opens a directory and fsyncs it, making recent entry
// creations (new segment files) durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openWAL positions the writer after replay: appends go to the last
// surviving segment (already truncated past any corruption), or a fresh
// first segment for an empty directory.
func openWAL(dir string, segBytes int64, policy SyncPolicy) (*wal, error) {
	w := &wal{dir: dir, segBytes: segBytes, policy: policy, segNum: 1,
		syncDir: fsyncDir, syncFile: (*os.File).Sync}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return w, w.openSegment(1, 0)
	}
	last := segs[len(segs)-1]
	n, _ := segmentNumber(last)
	st, err := os.Stat(filepath.Join(dir, last))
	if err != nil {
		return nil, err
	}
	return w, w.openSegment(n, st.Size())
}

func (w *wal) openSegment(n int, size int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(n)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.segNum, w.size = f, n, size
	if size == 0 {
		// The segment was (possibly) just created: fsync the directory so
		// the entry itself survives a crash, not just the file contents.
		if err := w.syncDir(w.dir); err != nil {
			return fmt.Errorf("jobstore: fsync dir after segment create: %w", err)
		}
	}
	return nil
}

// append writes one record and, under SyncAlways, fsyncs it before
// returning. A full segment is sealed and the next one started before the
// record is written, never after, so no error can follow a written record.
// A failed write or fsync cuts the segment back to its last whole record:
// the failed record leaves nothing behind, and its sequence number is
// reused. A log that cannot be put back (a failed rotation or cut) refuses
// every later append.
func (w *wal) append(rec Record) error {
	if w.broken != nil {
		return w.broken
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if w.size >= w.segBytes {
		if err := w.rotate(); err != nil {
			w.broken = err
			return err
		}
	}
	_, err = w.f.Write(line)
	if err == nil && w.policy == SyncAlways {
		err = w.syncFile(w.f)
	}
	if err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = fmt.Errorf("jobstore: cut back failed append: %w", terr)
		}
		return fmt.Errorf("jobstore: append: %w", err)
	}
	w.size += int64(len(line))
	return nil
}

// rotate seals the current segment (fsynced regardless of policy, so a
// sealed segment is always durable) and starts the next one. The directory
// is fsynced after the seal and again after the new segment's creation
// (inside openSegment), so neither the sealed segment nor its successor can
// vanish from the directory on a crash.
func (w *wal) rotate() error {
	if err := w.syncFile(w.f); err != nil {
		return fmt.Errorf("jobstore: fsync on rotate: %w", err)
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("jobstore: close on rotate: %w", err)
	}
	if err := w.syncDir(w.dir); err != nil {
		return fmt.Errorf("jobstore: fsync dir after seal: %w", err)
	}
	return w.openSegment(w.segNum+1, 0)
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.syncFile(w.f)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// applyTruncPlan repairs the corruption scanDir found: cut the corrupt
// segment back to its last whole record and delete every later segment, so
// the next append continues from a clean tail.
func applyTruncPlan(dir string, segs []string, plan *truncPlan) error {
	if plan == nil {
		return nil
	}
	path := filepath.Join(dir, segs[plan.index])
	if err := os.Truncate(path, plan.goodLen); err != nil {
		return fmt.Errorf("jobstore: truncate torn tail: %w", err)
	}
	for _, later := range segs[plan.index+1:] {
		if err := os.Remove(filepath.Join(dir, later)); err != nil {
			return fmt.Errorf("jobstore: remove post-corruption segment: %w", err)
		}
	}
	return nil
}

// nowMS converts a clock reading to the WAL's millisecond timestamps.
func nowMS(t time.Time) int64 { return t.UnixMilli() }
