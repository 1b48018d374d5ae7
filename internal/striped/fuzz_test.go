package striped

import (
	"context"
	"testing"

	"repro/internal/dna"
	"repro/internal/swa"
)

func reversed(s dna.Seq) dna.Seq {
	r := make(dna.Seq, len(s))
	for i, b := range s {
		r[len(s)-1-i] = b
	}
	return r
}

// FuzzStripedVsReference feeds arbitrary byte strings and scoring
// parameters through every kernel path (assembly where available, the
// portable 8-bit lanes, and the forced 16-bit lanes) and demands
// byte-identical scores versus the scalar swa.Score reference. Large Match
// values let the fuzzer reach the overflow re-pass and the scalar fallback
// with short inputs.
func FuzzStripedVsReference(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGGT"), 2, 1, 1)
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), 7, 1, 1) // 8-bit overflow
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), 1000, 1, 1)            // 16-bit overflow
	f.Add([]byte{}, []byte("T"), 1, 0, 0)
	f.Add([]byte("G"), []byte{}, 3, 2, 0)

	es := engines()
	f.Fuzz(func(t *testing.T, xb, yb []byte, match, mismatch, gap int) {
		sc := swa.Scoring{Match: match, Mismatch: mismatch, Gap: gap}
		if sc.Validate() != nil {
			t.Skip()
		}
		if match+mismatch > 100_000 || len(xb) > 2048 || len(yb) > 2048 {
			t.Skip() // keep each case fast; huge values add nothing
		}
		toSeq := func(b []byte) dna.Seq {
			s := make(dna.Seq, len(b))
			for i, c := range b {
				s[i] = dna.Base(c % 4)
			}
			return s
		}
		x, y := toSeq(xb), toSeq(yb)
		want := swa.Score(x, y, sc)
		// 33 lanes: one byte-lane group plus a leftover for the SSE2 kernel.
		// Odd lanes hold both sequences reversed, which scores the same, so
		// a lane mix-up in the byte-lane transpose cannot pass.
		rx, ry := reversed(x), reversed(y)
		pairs := make([]dna.Pair, laneWidth+1)
		for l := range pairs {
			pairs[l] = dna.Pair{X: x, Y: y}
			if l%2 == 1 {
				pairs[l] = dna.Pair{X: rx, Y: ry}
			}
		}
		for name, e := range es {
			got, _, err := e.ScoreBatch(context.Background(), pairs, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range pairs {
				if got[i] != want {
					t.Fatalf("%s pair %d: got %d want %d (m=%d n=%d sc=%+v)",
						name, i, got[i], want, len(x), len(y), sc)
				}
			}
		}
	})
}
