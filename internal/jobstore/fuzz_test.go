package jobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// validLine renders one well-formed record line for seeding the fuzzers.
func validLine(t testInterface, seq uint64) []byte {
	line, err := encodeRecord(Record{Seq: seq, TimeMS: 1700000000000, Type: RecSubmit,
		Submit: &SubmitRecord{ID: "j", ChunkSize: 2, Pairs: []PairData{{X: "AC", Y: "ACGT"}}}})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

type testInterface interface{ Fatal(...any) }

// FuzzDecodeRecord throws arbitrary bytes at the line decoder: it must
// never panic, and every rejection must be a typed *CorruptError wrapping
// ErrCorrupt. Accepted records must re-encode to a decodable line.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("short"))
	f.Add([]byte("00000000 {}"))
	f.Add([]byte("zzzzzzzz {\"seq\":1}"))
	f.Add(bytes.TrimSuffix(validLine(f, 1), []byte("\n")))
	f.Add([]byte("ffffffff " + string(make([]byte, 64))))
	f.Add([]byte("00000000 {\"type\":\"submit\"}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeRecord(line)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Valid records survive an encode/decode round trip.
		out, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encode of accepted record: %v", err)
		}
		if _, err := decodeRecord(bytes.TrimSuffix(out, []byte("\n"))); err != nil {
			t.Fatalf("re-decode of re-encoded record: %v", err)
		}
	})
}

// FuzzWALReplay writes arbitrary bytes as a segment file and opens the
// store over it: Open must never panic, must report rather than fail on
// corruption, and the truncation it performs must leave a log that a second
// Open replays identically and cleanly.
func FuzzWALReplay(f *testing.F) {
	good := validLine(f, 1)
	two := append(append([]byte{}, good...), validLine(f, 2)...)
	f.Add([]byte(""))
	f.Add(good)
	f.Add(two)
	f.Add(two[:len(two)-5])                     // torn tail
	f.Add(append([]byte("garbage\n"), good...)) // corrupt head
	f.Add([]byte("00000000 not-json\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open on arbitrary bytes errored (should report, not fail): %v", err)
		}
		// The store must accept appends after any repair.
		if _, err := submit(s, "fuzz-post", "", 1, []PairData{{X: "A", Y: "AC"}}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// A second open replays the repaired log cleanly: same records plus
		// the append, and nothing left to truncate.
		s2, rep2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("re-open after repair: %v", err)
		}
		defer s2.Close()
		if rep2.Truncated {
			t.Fatalf("repair did not converge: first %+v, second %+v", rep, rep2)
		}
		if rep2.Records != rep.Records+1 {
			t.Fatalf("records changed across repair: first %d, second %d", rep.Records, rep2.Records)
		}
		if _, ok := s2.Get("fuzz-post"); !ok {
			t.Fatal("post-repair append lost")
		}
	})
}

// TestFuzzSeedsDirect runs the fuzz bodies over their seed corpus so the
// properties hold in plain `go test` runs too.
func TestFuzzSeedsDirect(t *testing.T) {
	for _, line := range [][]byte{
		[]byte(""), []byte("short"), []byte("00000000 {}"),
		bytes.TrimSuffix(validLine(t, 1), []byte("\n")),
	} {
		if _, err := decodeRecord(line); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error for %q: %v", line, err)
			}
		}
	}
}
