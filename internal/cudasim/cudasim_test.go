package cudasim

import (
	"math"
	"testing"

	"repro/internal/perfmodel"
)

func newTestDevice(t testing.TB) *Device {
	t.Helper()
	return NewDevice(perfmodel.TitanX, 16<<20)
}

func TestAllocAndCopy(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Size() != 1024 {
		t.Errorf("Size = %d", buf.Size())
	}
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	if err := d.MemcpyHtoD(buf, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 1024)
	if err := d.MemcpyDtoH(dst, buf); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: got %d want %d", i, dst[i], src[i])
		}
	}
}

func TestAllocErrors(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 1024)
	if _, err := d.Alloc(-1); err == nil {
		t.Error("negative alloc should fail")
	}
	if _, err := d.Alloc(2048); err == nil {
		t.Error("oversized alloc should fail")
	}
	buf, _ := d.Alloc(256)
	if err := d.MemcpyHtoD(buf, make([]byte, 512)); err == nil {
		t.Error("oversized HtoD should fail")
	}
	if err := d.MemcpyDtoH(make([]byte, 512), buf); err == nil {
		t.Error("oversized DtoH should fail")
	}
}

// Regression: (bytes+255)&^255 used to wrap negative for huge requests and
// slip past the out-of-memory check, handing out a bogus buffer.
func TestAllocOverflowGuard(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 1024)
	for _, bytes := range []int64{math.MaxInt64, math.MaxInt64 - 100, math.MaxInt64 - 255} {
		if _, err := d.Alloc(bytes); err == nil {
			t.Errorf("Alloc(%d) succeeded on a 1 KiB device", bytes)
		}
	}
	// The guard must not break ordinary allocations.
	if _, err := d.Alloc(512); err != nil {
		t.Fatalf("Alloc(512): %v", err)
	}
}

func TestLaunchShapeErrors(t *testing.T) {
	d := newTestDevice(t)
	noop := KernelFunc(func(b *Block) {})
	if _, err := d.Launch(0, 32, noop); err == nil {
		t.Error("zero blocks should fail")
	}
	if _, err := d.Launch(1, 0, noop); err == nil {
		t.Error("zero threads should fail")
	}
	if _, err := d.Launch(1, 2048, noop); err == nil {
		t.Error(">1024 threads should fail")
	}
}

func TestKernelPanicIsReported(t *testing.T) {
	d := newTestDevice(t)
	k := KernelFunc(func(b *Block) { panic("boom") })
	if _, err := d.Launch(4, 32, k); err == nil {
		t.Error("kernel panic should surface as error")
	}
}

// TestVectorAddKernel runs a complete small kernel end to end: global loads,
// ALU, global stores, across many blocks.
func TestVectorAddKernel(t *testing.T) {
	d := newTestDevice(t)
	const n = 4096
	a, _ := d.Alloc(n * 4)
	bBuf, _ := d.Alloc(n * 4)
	c, _ := d.Alloc(n * 4)
	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		putU32(host, i, uint32(i))
	}
	if err := d.MemcpyHtoD(a, host); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		putU32(host, i, uint32(3*i+7))
	}
	if err := d.MemcpyHtoD(bBuf, host); err != nil {
		t.Fatal(err)
	}

	const threads = 128
	blocks := n / threads
	k := KernelFunc(func(blk *Block) {
		blk.ForEachThread(func(th *Thread) {
			idx := int64(blk.Idx*threads + th.Tid)
			x := th.GlobalLoad32(a, idx)
			y := th.GlobalLoad32(bBuf, idx)
			th.Ops(1)
			th.GlobalStore32(c, idx, x+y)
		})
	})
	stats, err := d.Launch(blocks, threads, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	if err := d.MemcpyDtoH(out, c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := getU32(out, i); got != uint32(i)+uint32(3*i+7) {
			t.Fatalf("c[%d] = %d", i, got)
		}
	}
	if stats.ALUOps != n {
		t.Errorf("ALUOps = %d, want %d", stats.ALUOps, n)
	}
	// Perfectly coalesced: each warp's 32 4-byte accesses span exactly four
	// 32-byte sectors; 3 accesses (2 loads + 1 store) per warp-phase.
	warps := int64(n / 32)
	if stats.GlobalTransactions != 12*warps {
		t.Errorf("GlobalTransactions = %d, want %d", stats.GlobalTransactions, 12*warps)
	}
	if stats.GlobalLoadBytes != int64(n*8) || stats.GlobalStoreBytes != int64(n*4) {
		t.Errorf("traffic = %d/%d bytes", stats.GlobalLoadBytes, stats.GlobalStoreBytes)
	}
}

func TestStridedAccessIsUncoalesced(t *testing.T) {
	d := newTestDevice(t)
	buf, _ := d.Alloc(1 << 20)
	k := KernelFunc(func(blk *Block) {
		blk.ForEachThread(func(th *Thread) {
			// Stride of 128 bytes: every lane in its own sector.
			th.GlobalLoad32(buf, int64(th.Tid*32))
		})
	})
	stats, err := d.Launch(1, 32, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GlobalTransactions != 32 {
		t.Errorf("strided warp made %d transactions, want 32", stats.GlobalTransactions)
	}
}

func TestSharedMemoryAndConflicts(t *testing.T) {
	d := newTestDevice(t)

	// Conflict-free: thread i accesses word i (distinct banks).
	k1 := KernelFunc(func(blk *Block) {
		arr := blk.SharedAlloc(32)
		blk.ForEachThread(func(th *Thread) {
			th.SharedStore(arr, th.Tid, uint32(th.Tid))
		})
		blk.Sync()
		blk.ForEachThread(func(th *Thread) {
			if got := th.SharedLoad(arr, 31-th.Tid); got != uint32(31-th.Tid) {
				panic("shared readback wrong")
			}
		})
	})
	s1, err := d.Launch(1, 32, k1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.BankConflictReplays != 0 {
		t.Errorf("conflict-free kernel reported %d replays", s1.BankConflictReplays)
	}
	if s1.SharedCycles != 2 {
		t.Errorf("SharedCycles = %d, want 2 (one per phase)", s1.SharedCycles)
	}
	if s1.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1", s1.Barriers)
	}

	// Worst case: all 32 threads hit bank 0 (stride 32 words).
	k2 := KernelFunc(func(blk *Block) {
		arr := blk.SharedAlloc(32 * 32)
		blk.ForEachThread(func(th *Thread) {
			th.SharedStore(arr, th.Tid*32, 1)
		})
	})
	s2, err := d.Launch(1, 32, k2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.BankConflictReplays != 31 {
		t.Errorf("32-way conflict reported %d replays, want 31", s2.BankConflictReplays)
	}
	if s2.SharedCycles != 32 {
		t.Errorf("SharedCycles = %d, want 32", s2.SharedCycles)
	}
}

func TestSharedAllocLimit(t *testing.T) {
	d := newTestDevice(t)
	k := KernelFunc(func(blk *Block) {
		blk.SharedAlloc(48*1024/4 + 1)
	})
	if _, err := d.Launch(1, 1, k); err == nil {
		t.Error("shared over-allocation should panic -> error")
	}
}

func TestGlobalBoundsChecked(t *testing.T) {
	d := newTestDevice(t)
	buf, _ := d.Alloc(16)
	k := KernelFunc(func(blk *Block) {
		blk.ForEachThread(func(th *Thread) {
			th.GlobalLoad32(buf, 4) // word 4 = bytes 16..20, out of range
		})
	})
	if _, err := d.Launch(1, 1, k); err == nil {
		t.Error("out-of-bounds global access should be caught")
	}
}

func TestSharedBoundsChecked(t *testing.T) {
	d := newTestDevice(t)
	k := KernelFunc(func(blk *Block) {
		arr := blk.SharedAlloc(8)
		blk.ForEachThread(func(th *Thread) {
			th.SharedLoad(arr, 8)
		})
	})
	if _, err := d.Launch(1, 1, k); err == nil {
		t.Error("out-of-bounds shared access should be caught")
	}
}

func TestLoad64RoundTrip(t *testing.T) {
	d := newTestDevice(t)
	buf, _ := d.Alloc(64)
	k := KernelFunc(func(blk *Block) {
		blk.ForEachThread(func(th *Thread) {
			th.GlobalStore64(buf, int64(th.Tid), uint64(th.Tid)*0x0101010101010101)
		})
		blk.ForEachThread(func(th *Thread) {
			if th.GlobalLoad64(buf, int64(th.Tid)) != uint64(th.Tid)*0x0101010101010101 {
				panic("load64 mismatch")
			}
		})
	})
	if _, err := d.Launch(1, 8, k); err != nil {
		t.Fatal(err)
	}
}

func TestLoad8(t *testing.T) {
	d := newTestDevice(t)
	buf, _ := d.Alloc(32)
	host := make([]byte, 32)
	for i := range host {
		host[i] = byte(i * 3)
	}
	if err := d.MemcpyHtoD(buf, host); err != nil {
		t.Fatal(err)
	}
	k := KernelFunc(func(blk *Block) {
		blk.ForEachThread(func(th *Thread) {
			if th.GlobalLoad8(buf, int64(th.Tid)) != byte(th.Tid*3) {
				panic("load8 mismatch")
			}
		})
	})
	stats, err := d.Launch(1, 32, k)
	if err != nil {
		t.Fatal(err)
	}
	// 32 single-byte accesses from one warp in one slot: one segment.
	if stats.GlobalTransactions != 1 {
		t.Errorf("byte loads made %d transactions, want 1", stats.GlobalTransactions)
	}
}

func TestStatsCostConversion(t *testing.T) {
	s := &LaunchStats{
		ALUOps:             1000,
		GlobalTransactions: 10,
		SharedCycles:       5,
		Blocks:             4,
		ThreadsPerBlock:    128,
	}
	c := s.Cost(true, 32)
	if c.ALUOps != 1000 || c.GlobalBytes != 320 || c.SharedBytes != 640 {
		t.Errorf("cost conversion wrong: %+v", c)
	}
	if !c.FuseLogic {
		t.Error("FuseLogic flag not propagated")
	}
	if c.Time(perfmodel.TitanX) <= 0 {
		t.Error("cost time should be positive")
	}
	unfused := s.Cost(false, 32)
	if unfused.Time(perfmodel.TitanX) < c.Time(perfmodel.TitanX) {
		t.Error("unfused ALU stream should not be faster")
	}
}

func putU32(b []byte, i int, v uint32) {
	b[i*4] = byte(v)
	b[i*4+1] = byte(v >> 8)
	b[i*4+2] = byte(v >> 16)
	b[i*4+3] = byte(v >> 24)
}

func getU32(b []byte, i int) uint32 {
	return uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
}
