// Package cudasim is the GPU substrate of this reproduction: a CUDA-like
// functional simulator with an exact cost model. It stands in for the
// paper's GeForce GTX TITAN X (see DESIGN.md §2 for the substitution
// argument).
//
// The execution model is block-synchronous: a kernel implements RunBlock and
// expresses intra-block thread parallelism as phases — calls to
// Block.ForEachThread, separated by Block.Sync barriers — exactly the
// lockstep structure the paper's wavefront kernel has. Within a phase the
// simulator runs the thread bodies sequentially (semantically equivalent for
// barrier-synchronised kernels) while recording, per warp:
//
//   - ALU operation counts (charged explicitly by the kernel, which keeps
//     functional code and cost accounting in one place),
//   - global-memory transactions with coalescing analysis (accesses from
//     one warp in the same access slot are merged into 32-byte sectors),
//   - shared-memory cycles with bank-conflict replay accounting
//     (32 four-byte banks, as on the paper's hardware).
//
// Blocks execute concurrently on host goroutines. The collected LaunchStats
// convert to wall-clock estimates through internal/perfmodel.
package cudasim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/perfmodel"
)

// DefaultHostCap bounds how much host memory one simulated device may pin
// for its global-memory backing. Realistic specs declare many GiB of device
// memory, but a simulated workload only ever touches a fraction of it; the
// cap keeps a fleet of 12 GiB devices from exhausting the host while still
// failing loudly (with a *HostOOMError) if a workload genuinely needs more.
const DefaultHostCap = int64(1) << 30

// Device is a simulated GPU: a spec for the cost model plus a global memory.
// The backing array is allocated lazily — constructing a device with a
// multi-GiB capacity costs nothing until buffers are actually allocated.
type Device struct {
	Spec     perfmodel.DeviceSpec
	global   []byte // grown on demand by Alloc, never beyond capacity/hostCap
	capacity int64  // declared device global-memory size
	hostCap  int64  // hard cap on host bytes actually backed
	used     int64
}

// NewDevice creates a device with the given global-memory capacity. No host
// memory is allocated up front: the backing array grows on demand as Alloc
// reserves buffers, up to min(globalBytes, DefaultHostCap) — use
// SetMaxHostBytes to raise or lower the host-side cap.
func NewDevice(spec perfmodel.DeviceSpec, globalBytes int64) *Device {
	if globalBytes < 0 {
		// Same contract as the old eager make([]byte, globalBytes).
		panic(fmt.Sprintf("cudasim: negative device capacity %d", globalBytes))
	}
	return &Device{Spec: spec, capacity: globalBytes, hostCap: DefaultHostCap}
}

// SetMaxHostBytes overrides the cap on host memory the device may pin for
// its backing array. Call before issuing work; it does not shrink an
// already-grown backing.
func (d *Device) SetMaxHostBytes(n int64) {
	if n < 0 {
		n = 0
	}
	d.hostCap = n
}

// Capacity returns the declared device global-memory size in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// HostBytes returns how much host memory currently backs the device's
// global memory — the lazily grown portion, not the declared capacity.
func (d *Device) HostBytes() int64 { return int64(len(d.global)) }

// HostOOMError reports that growing the device backing would exceed the
// host-side cap: the simulated workload genuinely needs more resident bytes
// than the host is allowed to pin for this device.
type HostOOMError struct {
	Need  int64 // host bytes the backing would have to reach
	Limit int64 // configured host cap
}

func (e *HostOOMError) Error() string {
	return fmt.Sprintf("cudasim: device backing needs %d host bytes, cap is %d", e.Need, e.Limit)
}

// Buf is a region of device global memory.
type Buf struct {
	off, size int64
}

// Size returns the buffer length in bytes.
func (b Buf) Size() int64 { return b.size }

// Alloc reserves a global-memory buffer (bump allocator; buffers live for
// the device's lifetime, like a benchmark's cudaMalloc arena).
func (d *Device) Alloc(bytes int64) (Buf, error) {
	if bytes < 0 {
		return Buf{}, fmt.Errorf("cudasim: negative allocation")
	}
	// Guard before aligning: (bytes+255)&^255 would wrap negative for
	// bytes near MaxInt64 and sail past the out-of-memory check below.
	if bytes > math.MaxInt64-255 {
		return Buf{}, fmt.Errorf("cudasim: out of global memory (%d requested, %d free)",
			bytes, d.capacity-d.used)
	}
	aligned := (bytes + 255) &^ 255
	if d.used+aligned > d.capacity {
		return Buf{}, fmt.Errorf("cudasim: out of global memory (%d requested, %d free)",
			aligned, d.capacity-d.used)
	}
	if err := d.grow(d.used + aligned); err != nil {
		return Buf{}, err
	}
	b := Buf{off: d.used, size: bytes}
	d.used += aligned
	return b, nil
}

// grow ensures the backing array covers [0, need) bytes, doubling to
// amortise growth and clamping to the declared capacity and the host cap.
// It runs only from Alloc — the same single-goroutine control path as the
// bump allocator itself — so kernels already in flight (which only touch
// previously allocated, hence already-backed, regions) never race it.
func (d *Device) grow(need int64) error {
	if need <= int64(len(d.global)) {
		return nil
	}
	if need > d.hostCap {
		return &HostOOMError{Need: need, Limit: d.hostCap}
	}
	newLen := max(int64(len(d.global))*2, int64(64<<10))
	for newLen < need {
		newLen *= 2
	}
	newLen = min(newLen, d.capacity, d.hostCap)
	grown := make([]byte, newLen)
	copy(grown, d.global)
	d.global = grown
	return nil
}

// MemcpyHtoD copies host bytes into a device buffer (Step 1 of the paper's
// pipeline; the PCIe time is modelled separately by perfmodel).
func (d *Device) MemcpyHtoD(dst Buf, src []byte) error {
	if int64(len(src)) > dst.size {
		return fmt.Errorf("cudasim: HtoD copy of %d bytes into %d-byte buffer", len(src), dst.size)
	}
	copy(d.global[dst.off:dst.off+int64(len(src))], src)
	return nil
}

// MemcpyDtoH copies a device buffer back to host memory (Step 5).
func (d *Device) MemcpyDtoH(dst []byte, src Buf) error {
	if int64(len(dst)) > src.size {
		return fmt.Errorf("cudasim: DtoH copy of %d bytes from %d-byte buffer", len(dst), src.size)
	}
	copy(dst, d.global[src.off:src.off+int64(len(dst))])
	return nil
}

// LaunchStats is the exact work tally of one kernel launch.
type LaunchStats struct {
	ALUOps              int64
	GlobalLoadBytes     int64
	GlobalStoreBytes    int64
	GlobalTransactions  int64 // 32-byte sectors touched, after coalescing
	SharedCycles        int64 // warp shared-access cycles incl. replays
	BankConflictReplays int64
	Barriers            int64
	Blocks              int
	ThreadsPerBlock     int
}

// Cost converts the stats into the perfmodel kernel-cost form. fuseLogic
// marks bitwise-logic kernels eligible for LOP3 fusion; regsPerThread is the
// kernel's register footprint, which drives the occupancy model (see
// perfmodel).
func (s *LaunchStats) Cost(fuseLogic bool, regsPerThread int) perfmodel.KernelCost {
	return perfmodel.KernelCost{
		ALUOps:    s.ALUOps,
		FuseLogic: fuseLogic,
		// Transactions dominate DRAM time; each moves a 32-byte sector.
		GlobalBytes:     s.GlobalTransactions * 32,
		SharedBytes:     s.SharedCycles * 128,
		Blocks:          s.Blocks,
		ThreadsPerBlock: s.ThreadsPerBlock,
		RegsPerThread:   regsPerThread,
	}
}

// Kernel is implemented by simulated CUDA kernels.
type Kernel interface {
	RunBlock(b *Block)
}

// KernelFunc adapts a function to the Kernel interface.
type KernelFunc func(b *Block)

// RunBlock calls f(b).
func (f KernelFunc) RunBlock(b *Block) { f(b) }

// Launch executes the kernel over a 1-D grid with no cancellation point.
// It is LaunchCtx with a background context.
func (d *Device) Launch(blocks, threadsPerBlock int, k Kernel) (*LaunchStats, error) {
	return d.LaunchCtx(context.Background(), blocks, threadsPerBlock, k)
}

// LaunchCtx executes the kernel over a 1-D grid. Blocks run concurrently on
// host goroutines; each gets a fresh shared memory. Returns the merged
// stats of all blocks. The context is observed between blocks: once it is
// done, no further block starts and the context's error is returned, which
// bounds cancellation latency to one block's runtime. A kernel panic
// likewise aborts the grid — no worker claims another block once any block
// has panicked — and the panic from the lowest-indexed panicking block is
// reported, so a multi-block failure is deterministic. On both the
// cancellation and panic paths the returned stats still tally all work
// performed before the abort (partial, but accurate).
func (d *Device) LaunchCtx(ctx context.Context, blocks, threadsPerBlock int, k Kernel) (*LaunchStats, error) {
	if blocks <= 0 || threadsPerBlock <= 0 {
		return nil, fmt.Errorf("cudasim: launch shape %d×%d invalid", blocks, threadsPerBlock)
	}
	if threadsPerBlock > 1024 {
		return nil, fmt.Errorf("cudasim: %d threads per block exceeds the 1024 limit", threadsPerBlock)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := &LaunchStats{Blocks: blocks, ThreadsPerBlock: threadsPerBlock}
	workers := min(runtime.GOMAXPROCS(0), blocks)
	var next atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	// Each worker tallies into its own slot; the merge happens below, after
	// wg.Wait, in this goroutine. That keeps merging lock-free (no shared
	// mutex serialising concurrent launches or devices) and guarantees a
	// panicking worker's partial tallies are still counted: its slot is
	// populated incrementally as blocks run, not in a final merge step the
	// panic could skip.
	locals := make([]LaunchStats, workers)
	type panicRec struct {
		block int
		val   any
	}
	var panicMu sync.Mutex
	var firstPanic *panicRec
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			claimed := -1
			defer func() {
				if r := recover(); r != nil {
					// Stop the grid: no worker claims another block.
					abort.Store(true)
					panicMu.Lock()
					if firstPanic == nil || claimed < firstPanic.block {
						firstPanic = &panicRec{block: claimed, val: r}
					}
					panicMu.Unlock()
				}
			}()
			local := &locals[w]
			for ctx.Err() == nil && !abort.Load() {
				bi := int(next.Add(1)) - 1
				if bi >= blocks {
					break
				}
				claimed = bi
				b := &Block{
					Idx:   bi,
					Dim:   threadsPerBlock,
					dev:   d,
					stats: local,
					warp:  d.Spec.WarpSize,
				}
				k.RunBlock(b)
				b.flushPhase()
			}
		}()
	}
	wg.Wait()
	for w := range locals {
		mergeStats(total, &locals[w])
	}
	if firstPanic != nil {
		return total, fmt.Errorf("cudasim: kernel panicked in block %d: %v", firstPanic.block, firstPanic.val)
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	return total, nil
}

// mergeStats folds src into dst. It is only called from the goroutine that
// owns the launch, after every worker has finished, so it needs no locking.
func mergeStats(dst, src *LaunchStats) {
	dst.ALUOps += src.ALUOps
	dst.GlobalLoadBytes += src.GlobalLoadBytes
	dst.GlobalStoreBytes += src.GlobalStoreBytes
	dst.GlobalTransactions += src.GlobalTransactions
	dst.SharedCycles += src.SharedCycles
	dst.BankConflictReplays += src.BankConflictReplays
	dst.Barriers += src.Barriers
}
