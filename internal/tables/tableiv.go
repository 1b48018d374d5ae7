package tables

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitslice"
	"repro/internal/bpbc"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/swa"
	"repro/internal/workload"
)

// Engine identifies one of the three implementations Table IV compares.
type Engine string

const (
	Bitwise32  Engine = "bitwise-32"
	Bitwise64  Engine = "bitwise-64"
	Wordwise32 Engine = "wordwise-32"
)

// Engines lists them in the paper's row order.
var Engines = []Engine{Bitwise32, Bitwise64, Wordwise32}

// paperTotals holds the paper's published Table IV "Total" columns in
// milliseconds, and the SWA kernel columns, keyed by engine then n.
var paperCPUTotalMs = map[Engine]map[int]float64{
	Bitwise32:  {1024: 11144.07, 2048: 22225.32, 4096: 45781.57, 8192: 91566.72, 16384: 183129.05, 32768: 363030.58, 65536: 729800.04},
	Bitwise64:  {1024: 5666.71, 2048: 11343.36, 4096: 22838.67, 8192: 45596.74, 16384: 90828.78, 32768: 180865.26, 65536: 357870.14},
	Wordwise32: {1024: 6803.99, 2048: 13590.92, 4096: 27169.32, 8192: 54358.14, 16384: 108680.38, 32768: 217621.17, 65536: 435637.82},
}

var paperGPUTotalMs = map[Engine]map[int]float64{
	Bitwise32:  {1024: 12.66, 2048: 23.52, 4096: 43.59, 8192: 86.94, 16384: 177.21, 32768: 351.27, 65536: 695.42},
	Bitwise64:  {1024: 19.28, 2048: 36.51, 4096: 67.97, 8192: 132.64, 16384: 264.14, 32768: 528.46, 65536: 1054.04},
	Wordwise32: {1024: 36.51, 2048: 63.20, 4096: 131.91, 8192: 243.32, 16384: 525.07, 32768: 992.78, 65536: 2176.96},
}

// PaperCPUTotal returns the paper's published CPU total for an engine/n.
func PaperCPUTotal(e Engine, n int) time.Duration {
	return time.Duration(paperCPUTotalMs[e][n] * float64(time.Millisecond))
}

// PaperGPUTotal returns the paper's published GPU total for an engine/n.
func PaperGPUTotal(e Engine, n int) time.Duration {
	return time.Duration(paperGPUTotalMs[e][n] * float64(time.Millisecond))
}

// TableIVRow is one (engine, n) cell group of Table IV: measured CPU stage
// times (rescaled to the paper's 32K pairs) and simulated GPU stage times.
type TableIVRow struct {
	Engine Engine
	N      int
	// CPU stages, rescaled to the paper's pair count. Wordwise has only SWA.
	CPU bpbc.Timing
	// CPUMeasuredN records the n the measurement actually ran at (smaller
	// presets extrapolate the largest measured n linearly).
	CPUMeasuredN int
	// GPU stages at full paper scale, from the simulator cost model.
	GPU pipeline.StageTimes
	// Paper's published totals, for side-by-side comparison.
	PaperCPU, PaperGPU time.Duration
}

// TableIVResult is the full reproduction of Table IV.
type TableIVResult struct {
	Preset workload.Spec
	NList  []int
	Rows   []TableIVRow
}

// cpuTimeFloor is how much run time BuildTableIV spends on each (engine,
// n) CPU cell at least. A unit-preset run takes about a millisecond, and
// one run that slow work elsewhere on the host preempts can invert the
// engines' ordering; the fastest of ~50 does not.
const cpuTimeFloor = 50 * time.Millisecond

// BuildTableIV measures the CPU engines on the preset workload and runs the
// GPU simulator extrapolation, producing a row per engine per n of the
// paper's sweep. All times are normalised to the paper's 32K-pair workload
// so they are directly comparable with the published table. The context is
// checked between measurements, so Ctrl-C interrupts long CPU sweeps.
func BuildTableIV(ctx context.Context, preset workload.Spec, progress func(string)) (*TableIVResult, error) {
	if progress == nil {
		progress = func(string) {}
	}
	target := workload.Paper
	res := &TableIVResult{Preset: preset, NList: target.NList}

	// --- CPU measurements at the preset scale. ---
	// Per n, the engines are timed interleaved, round after round, so load
	// from outside the process falls on all three alike; each (engine, n)
	// cell keeps its fastest run, and is re-run until its runs add up to
	// cpuTimeFloor. A paper-preset run takes seconds, so it runs once.
	type cpuKey struct {
		e Engine
		n int
	}
	cpuMeasured := map[cpuKey]bpbc.Timing{}
	for _, e := range Engines {
		// Warm-up run: populates transpose-plan caches and page-faults the
		// working set so the first timed row is not inflated.
		if _, err := runCPU(e, preset.Generate(preset.NList[0])[:min(preset.Pairs, 64)]); err != nil {
			return nil, err
		}
	}
	for _, n := range preset.NList {
		pairs := preset.Generate(n)
		spent := map[Engine]time.Duration{}
		for more := true; more; {
			more = false
			for _, e := range Engines {
				if spent[e] >= cpuTimeFloor {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if spent[e] == 0 {
					progress(fmt.Sprintf("CPU %s n=%d (%d pairs)", e, n, preset.Pairs))
				}
				begin := time.Now()
				t, err := runCPU(e, pairs)
				if err != nil {
					return nil, err
				}
				spent[e] += time.Since(begin)
				if best, ok := cpuMeasured[cpuKey{e, n}]; !ok || t.Total() < best.Total() {
					cpuMeasured[cpuKey{e, n}] = t
				}
				more = true
			}
		}
	}
	maxMeasuredN := preset.NList[len(preset.NList)-1]

	// --- GPU extrapolation bases (two small functional runs per engine). ---
	gpuBases := map[Engine]*gpuBase{}
	for _, e := range Engines {
		progress(fmt.Sprintf("GPU simulator calibration %s", e))
		b, err := measureGPUBase(ctx, e, preset.M)
		if err != nil {
			return nil, err
		}
		gpuBases[e] = b
	}

	for _, e := range Engines {
		for _, n := range target.NList {
			row := TableIVRow{
				Engine:   e,
				N:        n,
				PaperCPU: PaperCPUTotal(e, n),
				PaperGPU: PaperGPUTotal(e, n),
			}
			// CPU: use the measurement at this n when available, else
			// extrapolate the largest measured n (every stage is linear
			// in n for n >> m).
			mn := n
			t, ok := cpuMeasured[cpuKey{e, mn}]
			if !ok {
				mn = maxMeasuredN
				base := cpuMeasured[cpuKey{e, mn}]
				t = bpbc.Timing{
					W2B: scaleByN(base.W2B, mn, n, preset.M),
					SWA: time.Duration(float64(base.SWA) * float64(n) / float64(mn)),
					B2W: base.B2W,
				}
			}
			row.CPUMeasuredN = mn
			row.CPU = bpbc.Timing{
				W2B: perfmodel.Scale(t.W2B, preset.Pairs, target.Pairs),
				SWA: perfmodel.Scale(t.SWA, preset.Pairs, target.Pairs),
				B2W: perfmodel.Scale(t.B2W, preset.Pairs, target.Pairs),
			}
			// GPU: simulator-extrapolated at full paper scale.
			row.GPU = gpuBases[e].stagesAt(n, target.Pairs, preset.M)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// scaleByN rescales the W2B stage, whose work is proportional to m+n.
func scaleByN(d time.Duration, fromN, toN, m int) time.Duration {
	return time.Duration(float64(d) * float64(toN+m) / float64(fromN+m))
}

func runCPU(e Engine, pairs []dna.Pair) (bpbc.Timing, error) {
	opt := bpbc.Options{Scoring: swa.PaperScoring}
	var r *bpbc.Result
	var err error
	switch e {
	case Bitwise32:
		r, err = bpbc.BulkScores[uint32](pairs, opt)
	case Bitwise64:
		r, err = bpbc.BulkScores[uint64](pairs, opt)
	case Wordwise32:
		r, err = bpbc.WordwiseScores(pairs, opt)
	default:
		return bpbc.Timing{}, fmt.Errorf("tables: unknown engine %q", e)
	}
	if err != nil {
		return bpbc.Timing{}, err
	}
	return r.Timing, nil
}

// gpuBase holds two functional simulator runs at small n from which every
// per-block kernel stat extrapolates exactly (stats are affine in n and
// proportional in the block count; see the pipeline linearity tests).
type gpuBase struct {
	engine   Engine
	lanes    int
	nA, nB   int
	a, b     gpuStats
	dev      perfmodel.DeviceSpec
	pcie     perfmodel.PCIeLink
	basePair int // pairs used in the measurement runs (one group)
}

type gpuStats struct {
	w2b, swa, b2w cudasim.LaunchStats
}

func measureGPUBase(ctx context.Context, e Engine, m int) (*gpuBase, error) {
	const nA, nB = 256, 512
	lanes := 32
	if e == Bitwise64 {
		lanes = 64
	}
	basePairs := lanes // exactly one lane group
	if e == Wordwise32 {
		basePairs = 32 // 32 blocks, one per pair
	}
	run := func(n int) (gpuStats, error) {
		pairs := workload.Spec{Pairs: basePairs, M: m, Seed: 99}.Generate(n)
		var r *pipeline.Result
		var err error
		switch e {
		case Bitwise32:
			r, err = pipeline.RunBitwise[uint32](ctx, pairs, pipeline.Config{})
		case Bitwise64:
			r, err = pipeline.RunBitwise[uint64](ctx, pairs, pipeline.Config{})
		case Wordwise32:
			r, err = pipeline.RunWordwise(ctx, pairs, pipeline.Config{})
		default:
			return gpuStats{}, fmt.Errorf("tables: unknown engine %q", e)
		}
		if err != nil {
			return gpuStats{}, err
		}
		return gpuStats{w2b: r.W2BStats, swa: r.SWAStats, b2w: r.B2WStats}, nil
	}
	a, err := run(nA)
	if err != nil {
		return nil, err
	}
	b, err := run(nB)
	if err != nil {
		return nil, err
	}
	return &gpuBase{
		engine: e, lanes: lanes, nA: nA, nB: nB, a: a, b: b,
		dev: perfmodel.TitanX, pcie: perfmodel.PaperPCIe, basePair: basePairs,
	}, nil
}

// lerpStats extrapolates one launch's stats to text length n (affine in n)
// and scales to `factor` times the measured block count.
func lerpStats(a, b cudasim.LaunchStats, nA, nB, n int, factor int64) cudasim.LaunchStats {
	li := func(x, y int64) int64 {
		return (x + (y-x)*int64(n-nA)/int64(nB-nA)) * factor
	}
	return cudasim.LaunchStats{
		ALUOps:              li(a.ALUOps, b.ALUOps),
		GlobalLoadBytes:     li(a.GlobalLoadBytes, b.GlobalLoadBytes),
		GlobalStoreBytes:    li(a.GlobalStoreBytes, b.GlobalStoreBytes),
		GlobalTransactions:  li(a.GlobalTransactions, b.GlobalTransactions),
		SharedCycles:        li(a.SharedCycles, b.SharedCycles),
		BankConflictReplays: li(a.BankConflictReplays, b.BankConflictReplays),
		Barriers:            li(a.Barriers, b.Barriers),
		Blocks:              int(li(int64(a.Blocks), int64(b.Blocks))),
		ThreadsPerBlock:     a.ThreadsPerBlock,
	}
}

// stagesAt produces the simulated GPU stage times for the paper-scale
// workload of `pairs` pairs at text length n.
func (g *gpuBase) stagesAt(n, pairs, m int) pipeline.StageTimes {
	factor := int64(pairs / g.basePair)
	var st pipeline.StageTimes
	st.H2G = g.pcie.Transfer(int64(pairs) * int64(m+n))
	st.G2H = g.pcie.Transfer(int64(pairs) * 4)
	swaStats := lerpStats(g.a.swa, g.b.swa, g.nA, g.nB, n, factor)
	if g.engine == Wordwise32 {
		st.SWA = swaStats.Cost(false, kernels.WordwiseRegs).Time(g.dev)
	} else {
		s := bitslice.RequiredBits(uint(swa.PaperScoring.Match), m)
		st.SWA = swaStats.Cost(true, kernels.SWARegs(s, g.lanes)).Time(g.dev)
		regsT := kernels.TransposeRegs(g.lanes)
		w2b := lerpStats(g.a.w2b, g.b.w2b, g.nA, g.nB, n, factor)
		b2w := lerpStats(g.a.b2w, g.b.b2w, g.nA, g.nB, n, factor)
		st.W2B = w2b.Cost(true, regsT).Time(g.dev)
		st.B2W = b2w.Cost(true, regsT).Time(g.dev)
	}
	return st
}

// RenderTableIV renders the reproduction beside the paper's totals.
func RenderTableIV(r *TableIVResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Table IV — running time (ms) for the SWA, normalised to 32K pairs (CPU measured on preset %q, GPU simulated)", r.Preset.Name),
		"engine", "n",
		"cpu W2B", "cpu SWA", "cpu B2W", "cpu Total", "paper cpu",
		"H2G", "gpu W2B", "gpu SWA", "gpu B2W", "G2H", "gpu Total", "paper gpu")
	for _, row := range r.Rows {
		t.AddRow(string(row.Engine), stats.I(row.N),
			stats.Ms(row.CPU.W2B), stats.Ms(row.CPU.SWA), stats.Ms(row.CPU.B2W),
			stats.Ms(row.CPU.Total()), stats.Ms(row.PaperCPU),
			stats.Ms(row.GPU.H2G), stats.Ms(row.GPU.W2B), stats.Ms(row.GPU.SWA),
			stats.Ms(row.GPU.B2W), stats.Ms(row.GPU.G2H),
			stats.Ms(row.GPU.Total()), stats.Ms(row.PaperGPU))
	}
	return t.String()
}

// TableVRow is one row of the paper's Table V: throughput and speedup with
// the best word size per platform (CPU bitwise-64 vs GPU bitwise-32).
type TableVRow struct {
	N                   int
	CPUGCUPS, GPUGCUPS  float64
	Speedup             float64
	PaperCPUGCUPS       float64
	PaperSpeedup        float64
	PaperImpliedGCUPS   float64 // paper CPU GCUPS × paper speedup
	PaperPrintedGPUGCUP float64 // the (inconsistent) printed GPU column
}

var paperTableV = map[int][3]float64{ // n -> {cpu GCUPS, gpu GCUPS printed, speedup}
	1024:  {0.76, 1877.40, 447.6},
	2048:  {0.76, 2022.85, 482.3},
	4096:  {0.75, 2197.58, 523.9},
	8192:  {0.75, 2199.75, 524.5},
	16384: {0.76, 2149.79, 512.5},
	32768: {0.76, 2159.60, 514.9},
	65536: {0.77, 2158.43, 514.6},
}

// BuildTableV derives Table V from a Table IV result.
func BuildTableV(iv *TableIVResult) []TableVRow {
	target := workload.Paper
	byKey := map[Engine]map[int]TableIVRow{}
	for _, r := range iv.Rows {
		if byKey[r.Engine] == nil {
			byKey[r.Engine] = map[int]TableIVRow{}
		}
		byKey[r.Engine][r.N] = r
	}
	var out []TableVRow
	for _, n := range iv.NList {
		cpu := byKey[Bitwise64][n]
		gpu := byKey[Bitwise32][n]
		p := paperTableV[n]
		row := TableVRow{
			N:                   n,
			CPUGCUPS:            perfmodel.GCUPS(target.Pairs, target.M, n, cpu.CPU.Total()),
			GPUGCUPS:            perfmodel.GCUPS(target.Pairs, target.M, n, gpu.GPU.Total()),
			PaperCPUGCUPS:       p[0],
			PaperPrintedGPUGCUP: p[1],
			PaperSpeedup:        p[2],
			PaperImpliedGCUPS:   p[0] * p[2],
		}
		if gpu.GPU.Total() > 0 {
			row.Speedup = float64(cpu.CPU.Total()) / float64(gpu.GPU.Total())
		}
		out = append(out, row)
	}
	return out
}

// RenderTableV renders the throughput/speedup comparison.
func RenderTableV(rows []TableVRow) string {
	t := stats.NewTable(
		"Table V — GCUPS and speedup (CPU bitwise-64 vs GPU bitwise-32, best word sizes)",
		"n", "cpu GCUPS", "paper cpu", "gpu GCUPS", "paper implied", "paper printed", "speedup", "paper speedup")
	for _, r := range rows {
		t.AddRow(stats.I(r.N),
			stats.F2(r.CPUGCUPS), stats.F2(r.PaperCPUGCUPS),
			stats.F1(r.GPUGCUPS), stats.F1(r.PaperImpliedGCUPS), stats.F1(r.PaperPrintedGPUGCUP),
			stats.F1(r.Speedup), stats.F1(r.PaperSpeedup))
	}
	return t.String() +
		"note: the paper's printed GPU GCUPS column is ~5.5x its own Total-column arithmetic\n" +
		"(cells/total = paper cpu GCUPS x paper speedup); both are shown. See EXPERIMENTS.md.\n"
}
