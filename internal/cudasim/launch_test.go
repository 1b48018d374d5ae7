package cudasim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

// TestPanicAbortsRemainingBlocks: once any block panics, no worker may claim
// another block — the grid aborts instead of executing every remaining block
// before reporting the error.
func TestPanicAbortsRemainingBlocks(t *testing.T) {
	d := newTestDevice(t)
	const blocks = 10_000
	workers := min(runtime.GOMAXPROCS(0), blocks)

	// Block 0 closes the gate and panics; every other block waits for the
	// gate first, so no block can complete before the panic has happened.
	// The panicking worker sets the abort flag microseconds after the gate
	// closes, while the survivors are still inside their 1ms in-flight
	// block, so each of the other workers completes at most that one block.
	gate := make(chan struct{})
	var executed atomic.Int64
	k := KernelFunc(func(b *Block) {
		if b.Idx == 0 {
			close(gate)
			panic("block 0 failed")
		}
		<-gate
		time.Sleep(time.Millisecond)
		executed.Add(1)
	})
	_, err := d.Launch(blocks, 1, k)
	if err == nil {
		t.Fatal("panicking launch reported no error")
	}
	if got := executed.Load(); got > int64(workers) {
		t.Errorf("after the panic %d blocks still executed (want at most %d in-flight ones out of %d)",
			got, workers, blocks)
	}
}

// TestFirstPanicReportedDeterministically: when several blocks panic, the
// error must carry the lowest-indexed one, not whichever worker lost the
// race to a channel.
func TestFirstPanicReportedDeterministically(t *testing.T) {
	d := newTestDevice(t)
	for i := 0; i < 20; i++ {
		k := KernelFunc(func(b *Block) { panic(b.Idx) })
		_, err := d.Launch(64, 1, k)
		if err == nil {
			t.Fatal("panicking launch reported no error")
		}
		if !strings.Contains(err.Error(), "block 0: 0") {
			t.Fatalf("run %d: want the block-0 panic reported, got %v", i, err)
		}
	}
}

// TestPartialStatsOnPanic: a panicking worker's tallies must not be dropped —
// the stats returned with the error account for the work done before the
// failure.
func TestPartialStatsOnPanic(t *testing.T) {
	d := newTestDevice(t)
	// One block, one worker: the only tallies are the panicking worker's own.
	k := KernelFunc(func(b *Block) {
		b.ForEachThread(func(th *Thread) { th.Ops(10) })
		panic("after the work")
	})
	stats, err := d.Launch(1, 4, k)
	if err == nil {
		t.Fatal("panicking launch reported no error")
	}
	if stats == nil {
		t.Fatal("panicking launch returned nil stats")
	}
	if stats.ALUOps != 40 {
		t.Errorf("partial ALUOps = %d, want 40 (the panicking worker's tallies)", stats.ALUOps)
	}
}

func TestLaunchCtxCancellation(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 1<<16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	noop := KernelFunc(func(b *Block) {})
	if _, err := d.LaunchCtx(ctx, 4, 32, noop); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestLaunchCtxCancelMidGrid(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 1<<16)
	ctx, cancel := context.WithCancel(context.Background())
	// Up to GOMAXPROCS workers run the kernel at once, so they share one
	// atomic count.
	var ran atomic.Int64
	k := KernelFunc(func(b *Block) {
		if ran.Add(1) == 2 {
			cancel()
		}
	})
	_, err := d.LaunchCtx(ctx, 1_000_000, 1, k)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() >= 1_000_000 {
		t.Fatal("cancellation did not stop the block loop early")
	}
}

// TestPartialStatsOnCancel: cancellation mid-grid likewise returns the
// tallies of the blocks that did run.
func TestPartialStatsOnCancel(t *testing.T) {
	d := newTestDevice(t)
	ctx, cancel := context.WithCancel(context.Background())
	k := KernelFunc(func(b *Block) {
		b.ForEachThread(func(th *Thread) { th.Ops(5) })
		cancel() // every block cancels; the first one already stops the grid
	})
	stats, err := d.LaunchCtx(ctx, 1_000, 2, k)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats == nil {
		t.Fatal("cancelled launch returned nil stats")
	}
	if stats.ALUOps < 10 {
		t.Errorf("partial ALUOps = %d, want at least the first block's 10", stats.ALUOps)
	}
}

// TestConcurrentLaunchesIndependentStats: launches on distinct devices run
// concurrently and each produces exact stats. Before the fix, a package-wide
// mergeMu serialised every stat merge process-wide; now merging is per-launch
// and lock-free (the race detector guards the claim).
func TestConcurrentLaunchesIndependentStats(t *testing.T) {
	const devices = 4
	const blocks = 64
	var wg sync.WaitGroup
	errs := make([]error, devices)
	stats := make([]*LaunchStats, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewDevice(perfmodel.TitanX, 1<<20)
			k := KernelFunc(func(b *Block) {
				b.ForEachThread(func(th *Thread) { th.Ops(i + 1) })
			})
			stats[i], errs[i] = d.Launch(blocks, 32, k)
		}()
	}
	wg.Wait()
	for i := 0; i < devices; i++ {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if want := int64(blocks * 32 * (i + 1)); stats[i].ALUOps != want {
			t.Errorf("device %d: ALUOps = %d, want %d", i, stats[i].ALUOps, want)
		}
	}
}
