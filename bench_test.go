// Benchmarks: one per paper table/figure (regenerating its measurement at
// a fixed per-iteration scale) plus micro-benchmarks of the core
// operations. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-update ingest costs README and DESIGN cite are the TreeAdd
// rows, at a fixed 2M updates per run:
//
//	go test -run '^$' -bench TreeAdd -benchtime 2000000x -count 3 .
package rap_test

import (
	"testing"

	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/experiments"
	"rap/internal/hw"
	"rap/internal/mini"
	"rap/internal/multidim"
	"rap/internal/stats"
	"rap/internal/trace"
	"rap/internal/workload"
)

const benchEvents = 200_000

func benchOptions() experiments.Options {
	return experiments.Options{Events: benchEvents, Seed: 1}
}

// --- One benchmark per table/figure ---

func BenchmarkFig2BranchAndRatioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		if r.ChosenBranch != 4 {
			b.Fatal("wrong operating point")
		}
	}
}

func BenchmarkFig3BoundSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig3(); len(r.Batched) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkFig5GzipValueTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOptions())
		if err != nil || len(r.HotRanges) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MemoryTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchOptions())
		if err != nil || r.Timeline.MaxNodes == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MemoryPanels(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000 // 28 runs per iteration
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8CodeErrors(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.CodeProfile, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ValueErrors(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.ValueProfile, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9MissValueCurves(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ZeroLoadTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHWTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HW(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlineBudgets(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Headline(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNarrowOperandProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Narrow(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMiniValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Mini(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensions(b *testing.B) {
	o := benchOptions()
	o.Events = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Extensions(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core operation micro-benchmarks ---

func Benchmark2DTreeAdd(b *testing.B) {
	t2, err := multidim.New2D(multidim.DefaultConfig2D())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<16, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2.Add(uint64(z.Rank()), uint64(z.Rank()))
	}
}

func BenchmarkSampledAdd(b *testing.B) {
	s, err := core.NewSampled(core.DefaultConfig(), 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<16, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(z.Rank()))
	}
}

// microTable is the number of points the TreeAdd benchmarks precompute
// and cycle through, so the timed loop is tree work only.
const microTable = 1 << 16

// zipfPoints draws the microTable points of a Zipf(universe, s) stream
// from seed 1.
func zipfPoints(universe int, s float64) []uint64 {
	z := stats.NewZipf(stats.NewSplitMix64(1), universe, s)
	points := make([]uint64, microTable)
	for i := range points {
		points[i] = uint64(z.Rank())
	}
	return points
}

// benchAdd times b.N single-point updates of t, cycling through points.
func benchAdd(b *testing.B, t *core.Tree, points []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Add(points[i&(microTable-1)])
	}
	reportNodeBytes(b, t)
}

func BenchmarkTreeAddZipf(b *testing.B) {
	benchAdd(b, core.MustNew(core.DefaultConfig()), zipfPoints(1<<20, 1.2))
}

// BenchmarkTreeAddZipfAudit is BenchmarkTreeAddZipf with the accuracy
// audit's tap installed at SamplePeriod 1024: per event one atomic add
// and a binary search over the adopted ranges, and an exact count inside
// them. The tap adopts its ranges as the stream flows, as under rapd
// -audit.
func BenchmarkTreeAddZipfAudit(b *testing.B) {
	t := core.MustNew(core.DefaultConfig())
	taps, err := audit.New(audit.Options{SamplePeriod: 1024}).Attach(core.DefaultConfig(), t, 1)
	if err != nil {
		b.Fatal(err)
	}
	t.SetTap(taps[0])
	benchAdd(b, t, zipfPoints(1<<20, 1.2))
}

func BenchmarkTreeAddUniform(b *testing.B) {
	rng := stats.NewSplitMix64(1)
	points := make([]uint64, microTable)
	for i := range points {
		points[i] = rng.Uint64()
	}
	benchAdd(b, core.MustNew(core.DefaultConfig()), points)
}

func BenchmarkTreeAddCoalesced(b *testing.B) {
	// The hardware path: weighted updates from the stage-0 buffer.
	t := core.MustNew(core.DefaultConfig())
	points := zipfPoints(1<<12, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.AddN(points[i&(microTable-1)], 16)
	}
	reportNodeBytes(b, t)
}

// reportNodeBytes attaches the memory-per-node metrics to an ingest
// benchmark: the paper's 16 B/node accounting model alongside the bytes
// this implementation actually holds per live node (node slab plus pooled
// adaptive-width counters), so density regressions show up in benchstat.
func reportNodeBytes(b *testing.B, t *core.Tree) {
	b.ReportMetric(float64(core.NodeBytes), "model-B/node")
	if n := t.NodeCount(); n > 0 {
		b.ReportMetric(float64(t.ArenaBytes())/float64(n), "arena-B/node")
	}
}

func BenchmarkHotRanges(b *testing.B) {
	t := core.MustNew(core.DefaultConfig())
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<20, 1.2)
	for i := 0; i < 500_000; i++ {
		t.Add(uint64(z.Rank()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hr := t.HotRanges(0.10); len(hr) == 0 {
			b.Fatal("no hot ranges")
		}
	}
}

func BenchmarkEstimate(b *testing.B) {
	t := core.MustNew(core.DefaultConfig())
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<20, 1.2)
	for i := 0; i < 500_000; i++ {
		t.Add(uint64(z.Rank()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Estimate(uint64(i)&0xFFFF, uint64(i)&0xFFFF+1<<20)
	}
}

func BenchmarkMarshal(b *testing.B) {
	t := core.MustNew(core.DefaultConfig())
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<20, 1.2)
	for i := 0; i < 500_000; i++ {
		t.Add(uint64(z.Rank()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCAMSearch(b *testing.B) {
	tc, err := hw.NewTCAM(32, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tc.Insert(hw.Row{Prefix: 0, Plen: 0})
	rng := stats.NewSplitMix64(1)
	for i := 0; i < 4000; i++ {
		plen := int(rng.Uint64n(16))*2 + 2
		tc.Insert(hw.Row{Prefix: rng.Uint64(), Plen: plen})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tc.Search(rng.Uint64()); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkEnginePipeline(b *testing.B) {
	eng, err := hw.NewEngine(hw.DefaultConfig(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewSplitMix64(1)
	z := stats.NewZipf(rng, 1<<16, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(trace.Event{Value: uint64(z.Rank()), Weight: 1})
	}
}

func BenchmarkCoalescingBuffer(b *testing.B) {
	gcc, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	src := gcc.Code(1, 0)
	buf := trace.NewCoalescingBuffer(src, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := buf.Next(); !ok {
			b.Fatal("source dried up")
		}
	}
}

func BenchmarkWorkloadCodeStream(b *testing.B) {
	gcc, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	src := gcc.Code(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("source dried up")
		}
	}
}

func BenchmarkMiniVM(b *testing.B) {
	prog, err := mini.LoadProgram("graph")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := mini.NewVM(prog, mini.Config{Seed: uint64(i)})
		if _, err := vm.Run(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(vm.Steps()))
	}
}
