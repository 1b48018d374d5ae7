//go:build !amd64

package striped

import (
	"context"

	"repro/internal/dna"
	"repro/internal/swa"
)

// haveAsm and haveLanes are false off amd64: the portable uint64-SWAR
// kernels serve instead (8-bit lanes first, widening to 16-bit on
// overflow).
const (
	haveAsm   = false
	haveLanes = false
)

const asmCap = 254

// runAsmPair is unreachable when haveAsm is false; the engine never groups
// pairs for it.
func (e *Engine) runAsmPair(ctx context.Context, sr *scratch, p0, p1 dna.Pair, sc swa.Scoring) (s0, s1 int, ovf0, ovf1 bool, err error) {
	panic("striped: assembly kernel unavailable on this architecture")
}

// laneSW32 is unreachable when haveLanes is false; the engine never forms
// byte-lane groups.
func laneSW32(arena, xt, yt, h *byte, m, n int64) {
	panic("striped: byte-lane kernel unavailable on this architecture")
}
