package striped

import (
	"context"

	"repro/internal/dna"
	"repro/internal/swa"
)

// laneWidth is how many pairs the byte-lane kernel scores at once: one
// per byte lane of a 256-bit AVX2 register.
const laneWidth = 32

// Byte-lane arena layout, each row laneWidth bytes: the kernel's match
// table (match+mismatch at byte 0 of each 16-byte half, else 0), the
// broadcast mismatch and gap, then its running best and overflow rows.
const (
	laneMatch = 0 * laneWidth
	laneBias  = 1 * laneWidth
	laneGap   = 2 * laneWidth
	laneBest  = 3 * laneWidth
	laneOvf   = 4 * laneWidth
	laneArena = 5 * laneWidth
)

// nextLaneGroup returns the index of the first run of laneWidth
// consecutive pairs at or after i that share one non-empty (len X, len Y),
// or len(pairs) if there is none.
func nextLaneGroup(pairs []dna.Pair, i int) int {
	for i < len(pairs) {
		m, n := len(pairs[i].X), len(pairs[i].Y)
		run := 1
		for run < laneWidth && i+run < len(pairs) && len(pairs[i+run].X) == m && len(pairs[i+run].Y) == n {
			run++
		}
		if run == laneWidth && m > 0 && n > 0 {
			return i
		}
		i += run
	}
	return len(pairs)
}

// scoreLanes scores laneWidth pairs of one non-empty shape with the
// byte-lane kernel and settles each lane: a lane whose pre-bias add may
// have saturated is re-scored through the widening ladder alone.
func (e *Engine) scoreLanes(ctx context.Context, sr *scratch, dst []int, pairs []dna.Pair, sc swa.Scoring, useU16 bool, info *BatchInfo) error {
	if err := runLanes(ctx, sr, pairs, sc); err != nil {
		return err
	}
	info.KernelPairs += laneWidth
	info.LanePairs += laneWidth
	best := sr.lanes[laneBest : laneBest+laneWidth]
	ovf := sr.lanes[laneOvf : laneOvf+laneWidth]
	for l, p := range pairs {
		if err := e.settle(ctx, sr, dst, l, p, int(best[l]), ovf[l] == 255, sc, useU16, info); err != nil {
			return err
		}
	}
	return nil
}

// runLanes transposes laneWidth equal-shape pairs into lane-interleaved
// rows (the W2B stage of the source paper at byte width) and runs the
// byte-lane kernel over the text in pollCells chunks, leaving each lane's
// best score and overflow flag in the arena.
func runLanes(ctx context.Context, sr *scratch, pairs []dna.Pair, sc swa.Scoring) error {
	m, n := len(pairs[0].X), len(pairs[0].Y)
	sr.lanes = growBytes(sr.lanes, laneArena)
	for l := 0; l < laneWidth; l++ {
		sr.lanes[laneMatch+l] = 0
		if l%16 == 0 {
			sr.lanes[laneMatch+l] = byte(sc.Match + sc.Mismatch)
		}
		sr.lanes[laneBias+l] = byte(sc.Mismatch)
		sr.lanes[laneGap+l] = byte(sc.Gap)
		sr.lanes[laneBest+l] = 0
		sr.lanes[laneOvf+l] = 0
	}
	sr.xt = interleave(sr.xt, pairs, false)
	sr.yt = interleave(sr.yt, pairs, true)
	sr.hcol = growBytes(sr.hcol, m*laneWidth)
	clear(sr.hcol)

	chunk := max(1, pollCells/(m*laneWidth))
	for at := 0; at < n; at += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		cols := min(chunk, n-at)
		laneSW32(&sr.lanes[0], &sr.xt[0], &sr.yt[at*laneWidth], &sr.hcol[0], int64(m), int64(cols))
	}
	return nil
}

// interleave writes base i of pair l's pattern (or text) to byte
// i·laneWidth+l of dst. It moves 8×8 byte blocks through registers with
// the three-round masked swap of Hacker's Delight §7.3, the transpose the
// source paper uses for its bit lanes, and copies the last length%8 rows
// byte by byte.
func interleave(dst []byte, pairs []dna.Pair, text bool) []byte {
	length := len(seqOf(pairs[0], text))
	dst = growBytes(dst, length*laneWidth)
	whole := length &^ 7
	for l0 := 0; l0 < laneWidth; l0 += 8 {
		s0, s1 := seqOf(pairs[l0], text), seqOf(pairs[l0+1], text)
		s2, s3 := seqOf(pairs[l0+2], text), seqOf(pairs[l0+3], text)
		s4, s5 := seqOf(pairs[l0+4], text), seqOf(pairs[l0+5], text)
		s6, s7 := seqOf(pairs[l0+6], text), seqOf(pairs[l0+7], text)
		for i := 0; i < whole; i += 8 {
			w0, w1, w2, w3, w4, w5, w6, w7 := transpose8(
				load8(s0[i:]), load8(s1[i:]), load8(s2[i:]), load8(s3[i:]),
				load8(s4[i:]), load8(s5[i:]), load8(s6[i:]), load8(s7[i:]))
			o := i*laneWidth + l0
			store8(dst[o:], w0)
			store8(dst[o+laneWidth:], w1)
			store8(dst[o+2*laneWidth:], w2)
			store8(dst[o+3*laneWidth:], w3)
			store8(dst[o+4*laneWidth:], w4)
			store8(dst[o+5*laneWidth:], w5)
			store8(dst[o+6*laneWidth:], w6)
			store8(dst[o+7*laneWidth:], w7)
		}
	}
	for l, p := range pairs {
		s := seqOf(p, text)
		for i := whole; i < length; i++ {
			dst[i*laneWidth+l] = byte(s[i])
		}
	}
	return dst
}

func seqOf(p dna.Pair, text bool) dna.Seq {
	if text {
		return p.Y
	}
	return p.X
}

func load8(s dna.Seq) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func store8(d []byte, v uint64) {
	_ = d[7]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	d[4], d[5], d[6], d[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// transpose8 transposes the 8×8 byte matrix whose row k is wk (byte c of
// wk is element (k, c)): swap the off-diagonal 4×4 blocks, then the 2×2
// blocks inside each, then single bytes.
func transpose8(w0, w1, w2, w3, w4, w5, w6, w7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	w0, w4 = swapBlocks(w0, w4, 32, 0x00000000ffffffff)
	w1, w5 = swapBlocks(w1, w5, 32, 0x00000000ffffffff)
	w2, w6 = swapBlocks(w2, w6, 32, 0x00000000ffffffff)
	w3, w7 = swapBlocks(w3, w7, 32, 0x00000000ffffffff)
	w0, w2 = swapBlocks(w0, w2, 16, 0x0000ffff0000ffff)
	w1, w3 = swapBlocks(w1, w3, 16, 0x0000ffff0000ffff)
	w4, w6 = swapBlocks(w4, w6, 16, 0x0000ffff0000ffff)
	w5, w7 = swapBlocks(w5, w7, 16, 0x0000ffff0000ffff)
	w0, w1 = swapBlocks(w0, w1, 8, 0x00ff00ff00ff00ff)
	w2, w3 = swapBlocks(w2, w3, 8, 0x00ff00ff00ff00ff)
	w4, w5 = swapBlocks(w4, w5, 8, 0x00ff00ff00ff00ff)
	w6, w7 = swapBlocks(w6, w7, 8, 0x00ff00ff00ff00ff)
	return w0, w1, w2, w3, w4, w5, w6, w7
}

// swapBlocks exchanges the high sh-bit field of each 2·sh-bit unit of a
// with the low field of the same unit of b; lo masks the low fields.
func swapBlocks(a, b uint64, sh uint, lo uint64) (uint64, uint64) {
	return a&lo | (b&lo)<<sh, (a>>sh)&lo | b&^lo
}
