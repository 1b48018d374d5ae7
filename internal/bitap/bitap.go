// Package bitap implements the classic intra-word bit-parallel string
// algorithms — Shift-And, Shift-Or, and Myers' bit-vector algorithm for
// approximate matching under edit distance. They parallelise across the
// *pattern positions of one instance*, whereas the paper's BPBC technique
// parallelises across *instances*; the repository benchmarks contrast the
// two styles (see EXPERIMENTS.md). Patterns are limited to the word width
// (64 positions), the standard constraint of this family.
package bitap

import (
	"fmt"

	"repro/internal/dna"
)

// maxPattern is the longest pattern the single-word variants support.
const maxPattern = 64

// masks precomputes the per-base occurrence bitmasks B[c]: bit i of B[c] is
// set when pattern position i holds base c.
func masks(x dna.Seq) ([4]uint64, error) {
	if len(x) == 0 || len(x) > maxPattern {
		return [4]uint64{}, fmt.Errorf("bitap: pattern length must be 1..%d, got %d", maxPattern, len(x))
	}
	var b [4]uint64
	for i, c := range x {
		b[c&3] |= 1 << uint(i)
	}
	return b, nil
}

// ShiftAnd returns the offsets where X occurs exactly in Y, using the
// Shift-And automaton: D ← ((D << 1) | 1) & B[y[j]].
func ShiftAnd(x, y dna.Seq) ([]int, error) {
	b, err := masks(x)
	if err != nil {
		return nil, err
	}
	m := len(x)
	accept := uint64(1) << uint(m-1)
	var d uint64
	var out []int
	for j, c := range y {
		d = ((d << 1) | 1) & b[c&3]
		if d&accept != 0 {
			out = append(out, j-m+1)
		}
	}
	return out, nil
}

// ShiftOr returns the same occurrences with the complemented automaton
// (one fewer operation per character: D ← (D << 1) | ^B[y[j]]).
func ShiftOr(x, y dna.Seq) ([]int, error) {
	b, err := masks(x)
	if err != nil {
		return nil, err
	}
	m := len(x)
	accept := uint64(1) << uint(m-1)
	d := ^uint64(0)
	var out []int
	for j, c := range y {
		d = (d << 1) | ^b[c&3]
		if d&accept == 0 {
			out = append(out, j-m+1)
		}
	}
	return out, nil
}

// MyersDistances returns, for every text position j, the minimum edit
// distance (Levenshtein) between X and any substring of Y ending at j —
// Myers' 1999 bit-vector algorithm, the canonical intra-word bit-parallel
// dynamic program.
func MyersDistances(x, y dna.Seq) ([]int, error) {
	b, err := masks(x)
	if err != nil {
		return nil, err
	}
	m := len(x)
	high := uint64(1) << uint(m-1)
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	out := make([]int, len(y))
	for j, c := range y {
		eq := b[c&3]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&high != 0 {
			score++
		} else if mh&high != 0 {
			score--
		}
		// Search (semi-global) variant: the first row is free, so no
		// carry enters the shifted horizontal deltas (the global-distance
		// variant would OR a 1 into ph here).
		ph <<= 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		out[j] = score
	}
	return out, nil
}

// MyersSearch returns the positions j where X matches a substring of Y
// ending at j with at most k edits, with the distance for each.
type MyersHit struct {
	End  int // inclusive end position in Y
	Dist int
}

// MyersSearch runs the k-differences search.
func MyersSearch(x, y dna.Seq, k int) ([]MyersHit, error) {
	if k < 0 {
		return nil, fmt.Errorf("bitap: negative edit bound %d", k)
	}
	d, err := MyersDistances(x, y)
	if err != nil {
		return nil, err
	}
	var hits []MyersHit
	for j, dist := range d {
		if dist <= k {
			hits = append(hits, MyersHit{End: j, Dist: dist})
		}
	}
	return hits, nil
}

// MyersMinDistance returns the minimum semi-global edit distance between
// X and any substring of Y — min over j of MyersDistances(x, y)[j] —
// without materialising the per-position slice: one O(n) bit-parallel
// pass per text. It is no cheaper a filter than the exact score it would
// guard: on a 64×128 pair it takes about twice as long as the striped
// backend's byte-lane Smith-Waterman, so the corpus search does not use
// it. An empty Y has no substring ending anywhere, so the distance is
// len(x) (delete everything), matching the DP's first column.
func MyersMinDistance(x, y dna.Seq) (int, error) {
	b, err := masks(x)
	if err != nil {
		return 0, err
	}
	m := len(x)
	high := uint64(1) << uint(m-1)
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	best := m
	for _, c := range y {
		eq := b[c&3]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&high != 0 {
			score++
		} else if mh&high != 0 {
			score--
		}
		ph <<= 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		if score < best {
			best = score
		}
	}
	return best, nil
}

// EditDistancesRef is the quadratic reference for MyersDistances: the
// semi-global edit-distance DP (first row free), used by tests.
func EditDistancesRef(x, y dna.Seq) []int {
	m, n := len(x), len(y)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for i := 0; i <= m; i++ {
		prev[i] = i
	}
	out := make([]int, n)
	for j := 1; j <= n; j++ {
		cur[0] = 0
		for i := 1; i <= m; i++ {
			sub := prev[i-1]
			if x[i-1] != y[j-1] {
				sub++
			}
			cur[i] = min(sub, prev[i]+1, cur[i-1]+1)
		}
		out[j-1] = cur[m]
		prev, cur = cur, prev
	}
	return out
}
