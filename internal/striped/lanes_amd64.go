//go:build amd64

package striped

// haveLanes selects the AVX2 byte-lane kernel. AVX2 is not part of the
// amd64 baseline, so it is detected once at start-up.
var haveLanes = hasAVX2()

// laneSW32 is implemented in lanes_amd64.s. It advances 32 pairs' H
// columns across n text columns; best/ovf state round-trips through the
// arena so the engine can feed a long text in chunks.
//
//go:noescape
func laneSW32(arena, xt, yt, h *byte, m, n int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// across context switches (CPUID.1:ECX.OSXSAVE and AVX, XCR0 bits 1–2,
// CPUID.7.0:EBX.AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
