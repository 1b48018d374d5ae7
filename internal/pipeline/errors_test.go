package pipeline

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/dna"
)

func errPairs(t *testing.T, count, m, n int) []dna.Pair {
	t.Helper()
	return dna.RandomPairs(rand.New(rand.NewPCG(11, 0)), count, m, n)
}

func TestRunBitwiseDeviceOOM(t *testing.T) {
	pairs := errPairs(t, 32, 16, 64)
	// 64 bytes of device memory cannot hold even the first buffer.
	_, err := RunBitwise[uint32](context.Background(), pairs, Config{GlobalBytes: 64})
	if err == nil || !strings.Contains(err.Error(), "out of global memory") {
		t.Fatalf("want device OOM error, got %v", err)
	}
	if !strings.Contains(err.Error(), "XWord") {
		t.Fatalf("OOM error should name the failing buffer: %v", err)
	}
	if _, err := RunWordwise(context.Background(), pairs, Config{GlobalBytes: 64}); err == nil ||
		!strings.Contains(err.Error(), "out of global memory") {
		t.Fatalf("wordwise: want device OOM error, got %v", err)
	}
}

func TestLayoutForOversizedPattern(t *testing.T) {
	// m = 1025 exceeds the 1024-thread block limit.
	pairs := errPairs(t, 1, 1025, 1025)
	if _, err := RunBitwise[uint32](context.Background(), pairs, Config{}); err == nil {
		t.Fatal("m > 1024 accepted")
	}
	if _, err := RunWordwise(context.Background(), pairs, Config{}); err == nil {
		t.Fatal("wordwise: m > 1024 accepted")
	}
}

func TestLayoutForEmptySequences(t *testing.T) {
	pairs := []dna.Pair{{X: dna.Seq{}, Y: dna.Seq{}}}
	if _, err := RunBitwise[uint32](context.Background(), pairs, Config{}); err == nil {
		t.Fatal("empty sequences accepted")
	}
	// Text shorter than the pattern violates n >= m.
	short := []dna.Pair{{X: dna.MustParse("ACGTACGT"), Y: dna.MustParse("ACG")}}
	if _, err := RunBitwise[uint32](context.Background(), short, Config{}); err == nil {
		t.Fatal("n < m accepted")
	}
}

func TestLayoutForMismatchedPairCounts(t *testing.T) {
	pairs := errPairs(t, 4, 8, 16)
	pairs[2].Y = pairs[2].Y[:12] // ragged text length
	_, err := RunBitwise[uint32](context.Background(), pairs, Config{})
	if err == nil || !strings.Contains(err.Error(), "pair 2") {
		t.Fatalf("want shape error naming pair 2, got %v", err)
	}
}

func TestRunBitwiseCancelledContext(t *testing.T) {
	pairs := errPairs(t, 32, 16, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBitwise[uint32](ctx, pairs, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := RunWordwise(ctx, pairs, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("wordwise: want context.Canceled, got %v", err)
	}
}
