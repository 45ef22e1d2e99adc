// The experiments start no goroutine, so the race detector has nothing
// to find here and only slows them tenfold; CI runs them without -race.

//go:build !race

package experiments

import (
	"math"
	"strings"
	"testing"

	"rap/internal/analysis"
)

// Small-scale options keep the suite fast; every assertion is about shape,
// which is scale-invariant.
func testOptions() Options { return Options{Events: 150_000, Seed: 1} }

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	if r.ChosenBranch != 4 || r.ChosenRatio != 2 {
		t.Fatalf("chosen operating point b=%d q=%v, want 4, 2", r.ChosenBranch, r.ChosenRatio)
	}
	// b sweep: minimum at b in {2,4}, increasing afterwards.
	byBranch := map[int]float64{}
	for _, p := range r.BranchSweep {
		byBranch[p.Branch] = p.WorstNodes
	}
	if !(byBranch[4] <= byBranch[8] && byBranch[8] <= byBranch[16]) {
		t.Fatalf("branch sweep not increasing past 4: %+v", r.BranchSweep)
	}
	// q sweep: q=2 minimal.
	min := math.Inf(1)
	minQ := 0.0
	for _, p := range r.RatioSweep {
		if p.WorstNodes < min {
			min, minQ = p.WorstNodes, p.Ratio
		}
	}
	if minQ != 2 {
		t.Fatalf("q sweep minimized at %v, want 2", minQ)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("print output malformed")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3()
	if r.MergeCount != 21 { // 2^10..2^30 doublings inclusive
		t.Fatalf("merge count = %d, want 21", r.MergeCount)
	}
	for _, p := range r.Batched {
		if p.Bound < r.Continuous-1e-9 {
			t.Fatal("batched bound dipped below the continuous bound")
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "batch merge") {
		t.Fatal("no merge marks in output")
	}
}

func TestFig5GzipHotTree(t *testing.T) {
	r, err := Fig5(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HotRanges) < 5 || len(r.HotRanges) > 10 {
		t.Fatalf("gzip hot ranges = %d, paper found 7", len(r.HotRanges))
	}
	// The nested small-value structure and the high band must both appear.
	var low, band bool
	for _, h := range r.HotRanges {
		if h.Hi <= 0x3ffff {
			low = true
		}
		if h.Lo >= 0x100000000 && h.Hi <= 0x13fffffff {
			band = true
		}
	}
	if !low || !band {
		t.Fatalf("missing expected hot structure (low=%v band=%v): %+v", low, band, r.HotRanges)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "%") {
		t.Fatal("print output malformed")
	}
}

func TestFig6Sawtooth(t *testing.T) {
	r, err := Fig6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline.MaxNodes <= 0 || r.Timeline.MaxNodes > 800 {
		t.Fatalf("gcc eps=10%% max nodes = %d, paper says < 500", r.Timeline.MaxNodes)
	}
	if r.Timeline.AvgNodes > float64(r.Timeline.MaxNodes) {
		t.Fatal("avg exceeds max")
	}
	last := r.Timeline.Points[len(r.Timeline.Points)-1]
	if last.MergeBatches == 0 {
		t.Fatal("no merges over the run")
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "batch merge") {
		t.Fatal("no merge marks printed")
	}
}

func TestFig7Shapes(t *testing.T) {
	r, err := Fig7(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 4 {
		t.Fatalf("panels = %d, want 4", len(r.Panels))
	}
	find := func(kind ProfileKind, eps float64) Fig7Panel {
		for _, p := range r.Panels {
			if p.Kind == kind && p.Epsilon == eps {
				return p
			}
		}
		t.Fatalf("panel %s/%v missing", kind, eps)
		return Fig7Panel{}
	}
	// Tighter epsilon must need more memory for every benchmark.
	for _, kind := range []ProfileKind{CodeProfile, ValueProfile} {
		p10, p1 := find(kind, 0.10), find(kind, 0.01)
		for i := range p10.Rows {
			if p1.Rows[i].MaxNodes <= p10.Rows[i].MaxNodes {
				t.Errorf("%s %s: eps=1%% max %d not above eps=10%% max %d",
					kind, p10.Rows[i].Benchmark, p1.Rows[i].MaxNodes, p10.Rows[i].MaxNodes)
			}
		}
	}
	// Figure 7's value panel: parser (most distinct load values) needs
	// the most nodes. Average is the scale-stable metric; the max is
	// dominated by the startup transient at short runs.
	vp := find(ValueProfile, 0.10)
	var parserAvg, othersAvg float64
	for _, row := range vp.Rows {
		if row.Benchmark == "parser" {
			parserAvg = row.AvgNodes
		} else if row.AvgNodes > othersAvg {
			othersAvg = row.AvgNodes
		}
	}
	if parserAvg <= othersAvg {
		t.Errorf("parser avg %.0f not the leader (best other %.0f)", parserAvg, othersAvg)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "parser") {
		t.Fatal("print output malformed")
	}
}

func TestFig8Shapes(t *testing.T) {
	o := testOptions()
	code, err := Fig8(CodeProfile, o)
	if err != nil {
		t.Fatal(err)
	}
	value, err := Fig8(ValueProfile, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Fig8Result{code, value} {
		if len(r.Rows) != 7 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.HotRanges == 0 {
				t.Errorf("%s %s: no hot ranges", r.Kind, row.Benchmark)
			}
			if row.Max1 > row.Max10+1 {
				t.Errorf("%s %s: eps=1%% error %.2f far above eps=10%% error %.2f",
					r.Kind, row.Benchmark, row.Max1, row.Max10)
			}
		}
		if r.AvgAccuracy10 < 90 {
			t.Errorf("%s: average accuracy %.2f%% below 90%%", r.Kind, r.AvgAccuracy10)
		}
	}
	// The vortex hot-value-0 outlier (paper: ~20%).
	var vortexMax, otherMax float64
	for _, row := range value.Rows {
		if row.Benchmark == "vortex" {
			vortexMax = row.Max10
		} else if row.Max10 > otherMax {
			otherMax = row.Max10
		}
	}
	if vortexMax <= otherMax {
		t.Errorf("vortex max error %.2f not the value-profile outlier (best other %.2f)",
			vortexMax, otherMax)
	}
	var sb strings.Builder
	code.Print(&sb)
	value.Print(&sb)
	if !strings.Contains(sb.String(), "Maximum_10") {
		t.Fatal("print output malformed")
	}
}

func TestFig9MissLocality(t *testing.T) {
	r, err := Fig9(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.MissRatioDL1 <= r.MissRatioDL2 {
		t.Fatalf("DL1 miss ratio %.3f not above DL2 %.3f", r.MissRatioDL1, r.MissRatioDL2)
	}
	// The Figure 9 ordering at narrow widths: misses above all loads.
	for _, k := range []int{8, 16, 24} {
		all := analysis.CoverageAt(r.AllLoads, k)
		d1 := analysis.CoverageAt(r.DL1Misses, k)
		if d1 <= all {
			t.Errorf("width 2^%d: DL1 coverage %.3f not above all-loads %.3f", k, d1, all)
		}
	}
	if r.DL1At16 < 0.30 {
		t.Errorf("DL1 coverage at 2^16 = %.3f, paper reads ~0.56", r.DL1At16)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "dl1_misses") {
		t.Fatal("print output malformed")
	}
}

func TestFig10ZeroLoads(t *testing.T) {
	r, err := Fig10(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HotRanges) == 0 {
		t.Fatal("no hot zero-load ranges")
	}
	if r.HotBandCoverage < 0.35 || r.HotBandCoverage > 0.9 {
		t.Fatalf("hot band coverage %.3f, paper: ~0.68", r.HotBandCoverage)
	}
	// Every hot range must be in the data segment, not code.
	for _, h := range r.HotRanges {
		if h.Hi < 0x100000000 && h.Lo > 0 {
			t.Errorf("hot zero-load range [%x,%x] below the data segment", h.Lo, h.Hi)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "zero-load") {
		t.Fatal("print output malformed")
	}
}

func TestHWTable(t *testing.T) {
	r, err := HW(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Big.TotalAreaMM2-24.73) > 0.01 {
		t.Fatalf("area %.3f, want 24.73", r.Big.TotalAreaMM2)
	}
	if r.AreaRatio <= 10 || r.EnergyRatio <= 10 {
		t.Fatalf("small-config ratios %.1f/%.1f, want > 10", r.AreaRatio, r.EnergyRatio)
	}
	if r.PipelineReport.CyclesPerOp < 4 || r.PipelineReport.CyclesPerOp > 6 {
		t.Fatalf("cycles/op %.2f outside [4,6]", r.PipelineReport.CyclesPerOp)
	}
	if r.BufferCompression < 5 {
		t.Fatalf("buffer compression %.1f, paper: ~10x", r.BufferCompression)
	}
	if r.PipelineReport.ForcedMerges != 0 {
		t.Fatal("4096-row TCAM should never overflow on a code profile")
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "TCAM") {
		t.Fatal("print output malformed")
	}
}

func TestHeadlineBudgets(t *testing.T) {
	r, err := Headline(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fits8KB {
		t.Error("eps=10% trees exceed the 8 KB budget")
	}
	if !r.Fits64KB {
		t.Error("eps=1% trees exceed the 64 KB budget")
	}
	if r.AvgAcc8KB < 95 {
		t.Errorf("8 KB accuracy %.2f%%, paper: 98%%", r.AvgAcc8KB)
	}
	if r.AvgAcc64KB < r.AvgAcc8KB {
		t.Errorf("64 KB accuracy %.2f%% below 8 KB %.2f%%", r.AvgAcc64KB, r.AvgAcc8KB)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "8 KB") {
		t.Fatal("print output malformed")
	}
}

func TestNarrowConcentration(t *testing.T) {
	r, err := Narrow(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.HotRanges == 0 {
		t.Fatal("no hot narrow-operand ranges")
	}
	best := 0.0
	for _, reg := range r.TopRegions {
		if reg.Share > best {
			best = reg.Share
		}
	}
	if best < 0.10 {
		t.Errorf("no region concentrates narrow operands (best %.3f)", best)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "narrow") {
		t.Fatal("print output malformed")
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BranchRows) != 3 || len(r.Comparison) != 3 {
		t.Fatalf("missing rows: %d branch, %d comparison", len(r.BranchRows), len(r.Comparison))
	}
	// Continuous merging keeps a tighter tree at the cost of far more
	// batches (Figure 3's tradeoff).
	if r.Continuous.MaxNodes >= r.Batched.MaxNodes {
		t.Errorf("continuous max %d not below batched %d", r.Continuous.MaxNodes, r.Batched.MaxNodes)
	}
	if r.Continuous.MergeBatches <= 10*r.Batched.MergeBatches {
		t.Errorf("continuous batches %d not far above batched %d",
			r.Continuous.MergeBatches, r.Batched.MergeBatches)
	}
	// RAP must answer the hierarchical range query far better than the
	// equal-memory grid and space-saving.
	var rap, grid, ss ComparatorRow
	for _, row := range r.Comparison {
		switch {
		case strings.HasPrefix(row.Name, "RAP"):
			rap = row
		case strings.HasPrefix(row.Name, "fixed"):
			grid = row
		default:
			ss = row
		}
	}
	if rap.RangeQueryErrPct >= grid.RangeQueryErrPct || rap.RangeQueryErrPct >= ss.RangeQueryErrPct {
		t.Errorf("RAP range query err %.2f not best (grid %.2f, ss %.2f)",
			rap.RangeQueryErrPct, grid.RangeQueryErrPct, ss.RangeQueryErrPct)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "space-saving") {
		t.Fatal("print output malformed")
	}
}
