package jobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testPairs(n int) []PairData {
	out := make([]PairData, n)
	for i := range out {
		out[i] = PairData{X: "ACGT", Y: "ACGTACGT"}
	}
	return out
}

// submit persists an alignment job owned by the anonymous tenant.
func submit(s *Store, id, key string, chunkSize int, pairs []PairData) (*Job, error) {
	return s.Submit(SubmitRecord{ID: id, Key: key, ChunkSize: chunkSize, Pairs: pairs})
}

// scores is the checkpoint of an alignment chunk.
func scores(v ...int) Checkpoint { return Checkpoint{Scores: v} }

func mustOpen(t *testing.T, dir string) (*Store, ReplayReport) {
	t.Helper()
	s, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

func TestSubmitGetByKey(t *testing.T) {
	s, rep := mustOpen(t, t.TempDir())
	defer s.Close()
	if rep.Records != 0 || rep.Jobs != 0 {
		t.Fatalf("fresh dir replay: %+v", rep)
	}
	j, err := submit(s, "j1", "key-1", 4, testPairs(10))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.NumChunks() != 3 || j.ChunksDone() != 0 {
		t.Fatalf("submitted job: %+v", j)
	}
	if lo, hi := j.ChunkBounds(2); lo != 8 || hi != 10 {
		t.Fatalf("last chunk bounds = [%d,%d), want [8,10)", lo, hi)
	}
	got, ok := s.Get("j1")
	if !ok || got.ID != "j1" || got.Key != "key-1" {
		t.Fatalf("Get: %+v ok=%v", got, ok)
	}
	byKey, ok := s.ByKey("key-1")
	if !ok || byKey.ID != "j1" {
		t.Fatalf("ByKey: %+v ok=%v", byKey, ok)
	}
	if _, err := submit(s, "j1", "", 4, testPairs(1)); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
}

func TestStateMachineTransitions(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	defer s.Close()
	if _, err := submit(s, "j", "", 2, testPairs(4)); err != nil {
		t.Fatal(err)
	}
	// queued → done is illegal.
	if _, err := s.SetState("j", StateDone, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("queued→done: %v", err)
	}
	if prev, err := s.SetState("j", StateRunning, ""); err != nil || prev != StateQueued {
		t.Fatalf("queued→running: prev=%v err=%v", prev, err)
	}
	// running → queued (drain requeue) is legal.
	if _, err := s.SetState("j", StateQueued, ""); err != nil {
		t.Fatalf("running→queued: %v", err)
	}
	if _, err := s.SetState("j", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("j", StateCancelled, ""); err != nil {
		t.Fatalf("running→cancelled: %v", err)
	}
	// Terminal states are frozen.
	if _, err := s.SetState("j", StateRunning, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("cancelled→running: %v", err)
	}
	if err := s.AddChunk("j", 0, scores(1, 2)); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("chunk on terminal job: %v", err)
	}
	if _, err := s.SetState("missing", StateRunning, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v", err)
	}
}

func TestChunkCheckpointsAndScores(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	defer s.Close()
	if _, err := submit(s, "j", "", 3, testPairs(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("j", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddChunk("j", 0, scores(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Wrong length, bad index, duplicate.
	if err := s.AddChunk("j", 1, scores(4)); err == nil {
		t.Fatal("short chunk accepted")
	}
	if err := s.AddChunk("j", 3, scores(1)); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if err := s.AddChunk("j", 0, scores(1, 2, 3)); !errors.Is(err, ErrDuplicateChunk) {
		t.Fatalf("duplicate chunk: %v", err)
	}
	if err := s.AddChunk("j", 1, scores(4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get("j")
	if _, err := j.Result(); err == nil {
		t.Fatal("Result with a missing chunk succeeded")
	}
	if err := s.AddChunk("j", 2, scores(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("j", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	j, _ = s.Get("j")
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5, 6, 7}
	if !reflect.DeepEqual(res, scores(want...)) {
		t.Fatalf("result = %+v, want scores %v", res, want)
	}
}

func TestReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	if _, err := submit(s, "a", "ka", 2, testPairs(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(s, "b", "kb", 2, testPairs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("a", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddChunk("a", 0, scores(5, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("b", StateCancelled, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rep := mustOpen(t, dir)
	defer s2.Close()
	if rep.Truncated || rep.Jobs != 2 || rep.Records != 5 {
		t.Fatalf("replay report: %+v", rep)
	}
	a, ok := s2.Get("a")
	if !ok || a.State != StateRunning || a.ChunksDone() != 1 || a.Chunks[0].Scores[0] != 5 {
		t.Fatalf("replayed job a: %+v", a)
	}
	b, ok := s2.Get("b")
	if !ok || b.State != StateCancelled {
		t.Fatalf("replayed job b: %+v", b)
	}
	if _, ok := s2.ByKey("ka"); !ok {
		t.Fatal("idempotency key lost in replay")
	}
	// Appends continue cleanly after replay.
	if err := s2.AddChunk("a", 1, scores(7, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestDropGC(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	if _, err := submit(s, "j", "k", 2, testPairs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drop("j"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("drop of non-terminal job: %v", err)
	}
	if _, err := s.SetState("j", StateCancelled, ""); err != nil {
		t.Fatal(err)
	}
	if prev, err := s.Drop("j"); err != nil || prev != StateCancelled {
		t.Fatalf("drop: prev=%v err=%v", prev, err)
	}
	if _, ok := s.Get("j"); ok {
		t.Fatal("dropped job still visible")
	}
	if _, ok := s.ByKey("k"); ok {
		t.Fatal("dropped job's key still mapped")
	}
	s.Close()
	s2, rep := mustOpen(t, dir)
	defer s2.Close()
	if rep.Jobs != 0 {
		t.Fatalf("dropped job resurrected by replay: %+v", rep)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := submit(s, fmt.Sprintf("j%d", i), "", 4, testPairs(4)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation happened: segments %v", segs)
	}
	s2, rep := mustOpen(t, dir)
	defer s2.Close()
	if rep.Jobs != 8 || rep.Segments != len(segs) || rep.Truncated {
		t.Fatalf("multi-segment replay: %+v", rep)
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := submit(s, fmt.Sprintf("j%d", i), "", 4, testPairs(4)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Tear the final record mid-line, as a crash mid-append would.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := mustOpen(t, dir)
	if !rep.Truncated || rep.Records != 2 || rep.Jobs != 2 || rep.TruncatedBytes == 0 {
		t.Fatalf("torn-tail replay: %+v", rep)
	}
	if !strings.Contains(rep.Corrupt, "torn record") {
		t.Fatalf("report reason: %q", rep.Corrupt)
	}
	// The torn job is gone; the survivors are intact and appendable.
	if _, ok := s2.Get("j2"); ok {
		t.Fatal("torn job j2 survived")
	}
	if _, err := submit(s2, "j3", "", 4, testPairs(4)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// A third open sees a clean log: truncation repaired the file on disk.
	s3, rep3 := mustOpen(t, dir)
	defer s3.Close()
	if rep3.Truncated || rep3.Jobs != 3 {
		t.Fatalf("post-repair replay: %+v", rep3)
	}
}

func TestMidLogCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := submit(s, fmt.Sprintf("j%d", i), "", 4, testPairs(4)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Skipf("expected ≥3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the middle segment: replay must recover only
	// the records before it and drop the later segments entirely.
	mid := filepath.Join(dir, segs[1])
	raw, _ := os.ReadFile(mid)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(mid, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, dir)
	defer s2.Close()
	if !rep.Truncated {
		t.Fatalf("corruption not reported: %+v", rep)
	}
	if rep.Jobs >= 6 {
		t.Fatalf("corrupt replay kept all jobs: %+v", rep)
	}
	left, _ := listSegments(dir)
	for _, seg := range left[1:] {
		if seg > segs[1] {
			t.Fatalf("post-corruption segment %s survived", seg)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			s, _, err := Open(Options{Dir: t.TempDir(), Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := submit(s, "j", "", 1, testPairs(1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, bad := range []string{"interval", "nope"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("sync policy %q accepted", bad)
		}
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	for st := StateQueued; st < numStates; st++ {
		b, err := st.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("state %v round-tripped to %v", st, back)
		}
	}
	var s State
	if err := s.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("bogus state accepted")
	}
	if err := s.UnmarshalJSON([]byte(`7`)); err == nil {
		t.Fatal("numeric state accepted")
	}
}

func TestStateCountsAndList(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := submit(s, fmt.Sprintf("j%d", i), "", 1, testPairs(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SetState("j1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	counts := s.StateCounts()
	if counts[StateQueued] != 2 || counts[StateRunning] != 1 {
		t.Fatalf("state counts: %v", counts)
	}
	list := s.List()
	if len(list) != 3 || list[0].ID != "j0" || list[2].ID != "j2" {
		t.Fatalf("list order: %v", list)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestDirSyncedOnSegmentLifecycle asserts the WAL fsyncs its parent
// directory at every point a directory entry is born: initial segment
// creation, and each rotation (seal + next segment's create). Without the
// directory sync, a crash right after rotation could lose the new segment's
// directory entry even though its contents were fsynced.
func TestDirSyncedOnSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var calls int
	var dirs []string
	s.w.syncDir = func(d string) error {
		calls++
		dirs = append(dirs, d)
		return nil
	}

	before := calls
	start := s.w.segNum
	for i := 0; calls == before && i < 64; i++ {
		if _, err := submit(s, fmt.Sprintf("sync%d", i), "", 4, testPairs(4)); err != nil {
			t.Fatal(err)
		}
	}
	if s.w.segNum == start {
		t.Fatalf("no rotation happened within the append budget")
	}
	// One rotation = two dir syncs: after the seal and after the new
	// segment's creation.
	if calls < 2 {
		t.Fatalf("rotation synced the directory %d time(s), want >= 2", calls)
	}
	for _, d := range dirs {
		if d != dir {
			t.Fatalf("synced the wrong directory %q, want %q", d, dir)
		}
	}

	// A rotate whose directory sync fails must surface the error, not
	// silently continue on a possibly-lost segment.
	s.w.syncDir = func(string) error { return fmt.Errorf("boom") }
	var rotateErr error
	for i := 0; i < 64; i++ {
		if _, err := submit(s, fmt.Sprintf("fail%d", i), "", 4, testPairs(4)); err != nil {
			rotateErr = err
			break
		}
	}
	if rotateErr == nil || !strings.Contains(rotateErr.Error(), "fsync dir") {
		t.Fatalf("rotate with failing dir sync: err = %v, want fsync dir error", rotateErr)
	}
}

// TestFailedAppendLeavesNoRecord fails one fsync inside an append: the
// directory fsync after a rotation creates the next segment, and the fsync
// of the record itself. The failed submit must not come back on reopen,
// every submit acknowledged before or after it must, and replay must find
// nothing to cut. A failed record fsync is cut back and later appends go
// on; a failed rotation refuses every later append.
func TestFailedAppendLeavesNoRecord(t *testing.T) {
	boom := errors.New("injected fsync failure")
	cases := []struct {
		name      string
		segBytes  int64
		inject    func(w *wal)
		wantAfter int // submits acknowledged after the failed one, of 10
	}{
		{"rotation", 256, func(w *wal) {
			calls := 0
			w.syncDir = func(string) error {
				if calls++; calls == 2 { // after the seal, then after the create
					return boom
				}
				return nil
			}
		}, 0},
		{"fsync", 0, func(w *wal) {
			failed := false
			w.syncFile = func(f *os.File) error {
				if !failed {
					failed = true
					return boom
				}
				return f.Sync()
			}
		}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(Options{Dir: dir, SegmentBytes: tc.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			acked := []string{"before"}
			if _, err := submit(s, "before", "", 4, testPairs(4)); err != nil {
				t.Fatal(err)
			}
			tc.inject(s.w)
			failed := ""
			for i := 0; failed == "" && i < 64; i++ {
				id := fmt.Sprintf("j%d", i)
				if _, err := submit(s, id, "", 4, testPairs(4)); err == nil {
					acked = append(acked, id)
				} else if !errors.Is(err, boom) {
					t.Fatalf("submit %s: %v, want the injected failure", id, err)
				} else {
					failed = id
				}
			}
			if failed == "" {
				t.Fatal("no append failed")
			}
			after := 0
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("after%d", i)
				if _, err := submit(s, id, "", 4, testPairs(4)); err == nil {
					acked = append(acked, id)
					after++
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, rep := mustOpen(t, dir)
			defer s2.Close()
			if rep.Truncated {
				t.Fatalf("replay cut the log: %+v", rep)
			}
			if _, ok := s2.Get(failed); ok {
				t.Fatalf("failed submit %s came back", failed)
			}
			for _, id := range acked {
				if _, ok := s2.Get(id); !ok {
					t.Fatalf("acknowledged submit %s lost (%d acknowledged)", id, len(acked))
				}
			}
			if after != tc.wantAfter {
				t.Fatalf("%d of 10 submits after the failure acknowledged, want %d", after, tc.wantAfter)
			}
		})
	}
}

// TestOpenSyncsDirOnFirstSegment pins the initial create: a brand-new WAL
// directory must be synced as soon as the first segment exists, which the
// default (real) fsyncDir implementation performs against the real dir.
func TestOpenSyncsDirOnFirstSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if w.syncDir == nil {
		t.Fatal("wal has no syncDir hook")
	}
	// The seam must default to a working implementation.
	if err := w.syncDir(dir); err != nil {
		t.Fatalf("default syncDir(%s): %v", dir, err)
	}
	if err := fsyncDir(filepath.Join(dir, "nonexistent")); err == nil {
		t.Fatal("fsyncDir on a missing directory should fail")
	}
}

func TestTenantOwnershipSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	for _, id := range []string{"t1", "t2"} {
		if _, err := s.Submit(SubmitRecord{ID: id, Tenant: "acme", ChunkSize: 2, Pairs: testPairs(2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submit(s, "t3", "", 2, testPairs(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveByTenant("acme"); got != 2 {
		t.Fatalf("ActiveByTenant(acme) = %d, want 2", got)
	}
	if got := s.ActiveByTenant(""); got != 1 {
		t.Fatalf("ActiveByTenant(anonymous) = %d, want 1", got)
	}
	// Terminal jobs stop counting against the quota.
	if _, err := s.SetState("t1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddChunk("t1", 0, scores(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetState("t1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveByTenant("acme"); got != 1 {
		t.Fatalf("ActiveByTenant(acme) after done = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Ownership and the active count are WAL-resident: both survive reopen.
	s2, rep := mustOpen(t, dir)
	defer s2.Close()
	if rep.Truncated {
		t.Fatalf("replay report: %+v", rep)
	}
	j, ok := s2.Get("t2")
	if !ok || j.Tenant != "acme" {
		t.Fatalf("replayed job t2 tenant = %+v ok=%v", j, ok)
	}
	if got := s2.ActiveByTenant("acme"); got != 1 {
		t.Fatalf("replayed ActiveByTenant(acme) = %d, want 1", got)
	}
	if j3, ok := s2.Get("t3"); !ok || j3.Tenant != "" {
		t.Fatalf("untenanted submit gained a tenant: %+v", j3)
	}
}
