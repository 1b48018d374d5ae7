package cudasim

import (
	"errors"
	"testing"

	"repro/internal/perfmodel"
)

// Lazy backing: constructing a device with a realistic multi-GiB capacity
// must not pin host memory, and the backing must grow only as Alloc
// reserves buffers.
func TestLazyBackingGrowsOnDemand(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 12<<30) // the paper's TITAN X: 12 GiB
	if got := d.HostBytes(); got != 0 {
		t.Fatalf("fresh device pinned %d host bytes, want 0", got)
	}
	if got := d.Capacity(); got != 12<<30 {
		t.Fatalf("Capacity = %d, want %d", got, int64(12<<30))
	}
	buf, err := d.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	host := d.HostBytes()
	if host < 1<<20 {
		t.Fatalf("backing %d bytes after a 1 MiB Alloc", host)
	}
	if host > 4<<20 {
		t.Fatalf("backing %d bytes after a 1 MiB Alloc; doubling overshot", host)
	}
	// Transfers through the grown region must round-trip.
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := d.MemcpyHtoD(buf, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<20)
	if err := d.MemcpyDtoH(got, buf); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("round-trip mismatch at byte %d", i)
		}
	}
	// Doubling leaves headroom after a non-power-of-two growth: an Alloc
	// that fits the grown region must not grow the backing again.
	if _, err := d.Alloc(100 << 10); err != nil {
		t.Fatal(err)
	}
	host = d.HostBytes() // 2 MiB after doubling past 1 MiB + 100 KiB
	if _, err := d.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if d.HostBytes() != host {
		t.Fatalf("backing grew from %d to %d for an in-bounds Alloc", host, d.HostBytes())
	}
}

// Growth preserves bytes already written: an Alloc that doubles the backing
// must copy the old contents across.
func TestLazyBackingGrowthPreservesContents(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 1<<30)
	first, err := d.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i ^ (i >> 8))
	}
	if err := d.MemcpyHtoD(first, src); err != nil {
		t.Fatal(err)
	}
	before := d.HostBytes()
	if _, err := d.Alloc(8 << 20); err != nil { // forces growth
		t.Fatal(err)
	}
	if d.HostBytes() <= before {
		t.Fatalf("backing did not grow (%d -> %d)", before, d.HostBytes())
	}
	got := make([]byte, 64<<10)
	if err := d.MemcpyDtoH(got, first); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("contents lost during growth at byte %d", i)
		}
	}
}

// The host cap turns a runaway resident set into a typed error instead of
// an actual host OOM.
func TestHostCapTypedError(t *testing.T) {
	d := NewDevice(perfmodel.TitanX, 12<<30)
	d.SetMaxHostBytes(1 << 20)
	if _, err := d.Alloc(512 << 10); err != nil {
		t.Fatalf("in-cap Alloc: %v", err)
	}
	_, err := d.Alloc(2 << 20)
	var oom *HostOOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *HostOOMError, got %v", err)
	}
	if oom.Limit != 1<<20 || oom.Need <= oom.Limit {
		t.Fatalf("HostOOMError fields Need=%d Limit=%d inconsistent", oom.Need, oom.Limit)
	}
	// Device-capacity exhaustion still reports the classic OOM, not a host
	// cap error: the request fits the host cap but not the declared size.
	small := NewDevice(perfmodel.TitanX, 1024)
	if _, err := small.Alloc(4096); err == nil || errors.As(err, &oom) {
		t.Fatalf("device OOM misreported: %v", err)
	}
}
