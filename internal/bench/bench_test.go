package bench

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

func collectUnit(t *testing.T) *File {
	t.Helper()
	f, err := Collect(context.Background(), workload.Unit, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCollectValidates(t *testing.T) {
	f := collectUnit(t)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workload.Unit.NList) {
		t.Fatalf("%d runs, want %d", len(f.Runs), len(workload.Unit.NList))
	}
	for _, r := range f.Runs {
		if r.Lanes != 32 {
			t.Errorf("n=%d: lanes = %d, want 32", r.N, r.Lanes)
		}
		if r.WallNS <= 0 {
			t.Errorf("n=%d: wall time not recorded", r.N)
		}
		if r.WallGCUPS <= 0 {
			t.Errorf("n=%d: wall GCUPS not recorded", r.N)
		}
		if r.WallGCUPS >= r.GCUPS {
			t.Errorf("n=%d: wall GCUPS %v ≥ simulated GCUPS %v — the simulator cannot outrun the modelled GPU",
				r.N, r.WallGCUPS, r.GCUPS)
		}
		if r.Stages.SWA <= 0 {
			t.Errorf("n=%d: SWA stage time is zero", r.N)
		}
	}
	if f.Host.GoVersion == "" || f.Host.NumCPU <= 0 {
		t.Errorf("host info incomplete: %+v", f.Host)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := collectUnit(t)
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Runs) != len(f.Runs) || g.Workload != f.Workload {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *File { return collectUnit(t) }
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"wrong schema", func(f *File) { f.Schema = "repro/bench-pipeline/v0" }},
		{"single run", func(f *File) { f.Runs = f.Runs[:1] }},
		{"zero gcups", func(f *File) { f.Runs[0].GCUPS = 0 }},
		{"zero sim time", func(f *File) { f.Runs[1].SimTotalNS = 0 }},
		{"wall time without wall gcups", func(f *File) { f.Runs[0].WallGCUPS = 0 }},
		{"stage sum mismatch", func(f *File) { f.Runs[0].Stages.SWA++ }},
		{"one shape", func(f *File) {
			f.Runs[1] = f.Runs[0]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base()
			tc.mutate(f)
			if err := f.Validate(); err == nil {
				t.Error("Validate accepted a broken file")
			}
		})
	}
}

func TestCollectHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, workload.Unit, pipeline.Config{}); err == nil {
		t.Error("Collect ignored a canceled context")
	}
}
