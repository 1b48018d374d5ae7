package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted, or an error
// when fewer than minBeyond samples lie above it: a p99 needs at least
// 1000 samples.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := n - int(math.Floor((1-p)*float64(n)+1e-9)) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// probeSink keeps the host probe's result live so the loop is not removed.
var probeSink uint64

// hostProbe times a fixed CPU loop that uses only the standard library:
// SHA-256 over 4 MiB plus 2^24 xorshift steps. Its time moves with the
// host's speed and not with the program, so a reader can tell host drift
// from a program change.
func hostProbe() float64 {
	buf := make([]byte, 1<<16)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	begin := time.Now()
	h := sha256.New()
	for range 64 {
		h.Write(buf)
	}
	x := uint64(88172645463325252)
	for range 1 << 24 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x ^ uint64(h.Sum(nil)[0])
	return float64(time.Since(begin)) / 1e6
}

// peakRSSMiB returns the process's VmHWM in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := bytes.Cut(sc.Bytes(), []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

// runtimeSample is a read of the Go runtime counters the runtime layer
// metrics are computed from.
type runtimeSample struct {
	allocBytes      float64 // cumulative heap allocation
	gcCPU, totalCPU float64 // cumulative GC and total CPU seconds
	liveBytes       float64 // heap live after the last GC
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2), liveBytes: v(3)}
}
