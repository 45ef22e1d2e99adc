package baseline

import (
	"reflect"
	"testing"
	"testing/quick"

	"rap/internal/stats"
)

func TestFixedGridBasics(t *testing.T) {
	g := NewFixedGrid(16, 4) // 16 cells of width 4096
	g.Add(0)
	g.Add(4095)
	g.Add(4096)
	g.AddN(0xFFFF, 2)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Cells() != 16 || g.MemoryBytes() != 128 {
		t.Fatalf("cells=%d mem=%d", g.Cells(), g.MemoryBytes())
	}
	if got := g.Estimate(0, 4095); got != 2 {
		t.Fatalf("cell 0 estimate = %d, want 2", got)
	}
	if got := g.Estimate(0, 0xFFFF); got != 5 {
		t.Fatalf("full estimate = %d, want 5", got)
	}
	// Partial cells contribute nothing (lower bound).
	if got := g.Estimate(1, 4094); got != 0 {
		t.Fatalf("partial cell estimate = %d, want 0", got)
	}
	if got := g.Estimate(10, 5); got != 0 {
		t.Fatalf("inverted estimate = %d", got)
	}
}

func TestFixedGridMasksUniverse(t *testing.T) {
	g := NewFixedGrid(8, 2)
	g.Add(0x1FF) // masked to 0xFF -> last cell
	if got := g.Estimate(0xC0, 0xFF); got != 1 {
		t.Fatalf("masked point estimate = %d", got)
	}
}

func TestFixedGridHotCells(t *testing.T) {
	g := NewFixedGrid(8, 2) // 4 cells of width 64
	for i := 0; i < 90; i++ {
		g.Add(10)
	}
	for i := 0; i < 10; i++ {
		g.Add(200)
	}
	hot := g.HotCells(0.5)
	if len(hot) != 1 || hot[0].Lo != 0 || hot[0].Hi != 63 || hot[0].Count != 90 {
		t.Fatalf("HotCells = %+v", hot)
	}
}

func TestFixedGridPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"universe 0":    func() { NewFixedGrid(0, 0) },
		"grid negative": func() { NewFixedGrid(16, -1) },
		"grid too big":  func() { NewFixedGrid(16, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestPropFixedGridLowerBound(t *testing.T) {
	f := func(points []uint16, a, b uint16) bool {
		g := NewFixedGrid(16, 6)
		var truth uint64
		if a > b {
			a, b = b, a
		}
		for _, p := range points {
			g.Add(uint64(p))
			if p >= a && p <= b {
				truth++
			}
		}
		return g.Estimate(uint64(a), uint64(b)) <= truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(10)
	for i := 0; i < 1000; i++ {
		s.Add(42)
	}
	if s.N() != 1000 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Estimate(42, 42); got != 1000 {
		t.Fatalf("sampled estimate = %d, want 1000 exactly on a constant stream", got)
	}
	if s.TableSize() != 1 {
		t.Fatalf("table size = %d", s.TableSize())
	}
	// Sampling can miss rare values entirely — the failure mode RAP's
	// merge-not-sample design avoids.
	s2 := NewSampler(100)
	for i := 0; i < 99; i++ {
		s2.Add(7)
	}
	if got := s2.Estimate(7, 7); got != 0 {
		t.Fatalf("expected rare value to be missed, estimate = %d", got)
	}
}

func TestSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sampler k=0 accepted")
		}
	}()
	NewSampler(0)
}

func TestSpaceSavingExactWhenSmall(t *testing.T) {
	ss := NewSpaceSaving(10)
	for i := 0; i < 30; i++ {
		ss.Add(uint64(i % 3))
	}
	es := ss.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	for _, e := range es {
		if e.Count != 10 || e.Err != 0 {
			t.Fatalf("entry %+v, want exact count 10", e)
		}
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Count overestimates truth by at most Err, and any value with true
	// count > n/m is guaranteed monitored.
	rng := stats.NewSplitMix64(77)
	z := stats.NewZipf(rng, 1000, 1.3)
	truth := map[uint64]uint64{}
	ss := NewSpaceSaving(50)
	n := 100_000
	for i := 0; i < n; i++ {
		v := uint64(z.Rank())
		truth[v]++
		ss.Add(v)
	}
	if ss.N() != uint64(n) {
		t.Fatalf("N = %d", ss.N())
	}
	monitored := map[uint64]bool{}
	for _, e := range ss.Entries() {
		monitored[e.Value] = true
		if e.Count < truth[e.Value] {
			t.Fatalf("space-saving count %d below truth %d for %d", e.Count, truth[e.Value], e.Value)
		}
		if e.Count-e.Err > truth[e.Value] {
			t.Fatalf("count-err %d exceeds truth %d for %d", e.Count-e.Err, truth[e.Value], e.Value)
		}
	}
	guarantee := uint64(n) / 50
	for v, c := range truth {
		if c > guarantee && !monitored[v] {
			t.Fatalf("value %d with count %d > n/m=%d not monitored", v, c, guarantee)
		}
	}
}

// TestSpaceSavingDeterministic: evictions on a stream full of count ties
// do not depend on map iteration order, so two sketches fed the same
// stream report the same entries.
func TestSpaceSavingDeterministic(t *testing.T) {
	rng := stats.NewSplitMix64(5)
	a, b := NewSpaceSaving(16), NewSpaceSaving(16)
	for i := 0; i < 10_000; i++ {
		v := rng.Uint64() % 64 // 64 values contending for 16 counters
		a.Add(v)
		b.Add(v)
	}
	if ea, eb := a.Entries(), b.Entries(); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("same stream, different entries:\n%v\n%v", ea, eb)
	}
}

func TestSpaceSavingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SpaceSaving m=0 accepted")
		}
	}()
	NewSpaceSaving(0)
}

func TestGridBitsForBudget(t *testing.T) {
	cases := []struct {
		budget, universe, want int
	}{
		{8 * 1024, 64, 10}, // 1024 cells
		{8 * 1024, 8, 8},   // clamped to universe
		{7, 64, 0},         // under one cell
		{16, 64, 1},
	}
	for _, tc := range cases {
		if got := GridBitsForBudget(tc.budget, tc.universe); got != tc.want {
			t.Errorf("GridBitsForBudget(%d,%d) = %d, want %d", tc.budget, tc.universe, got, tc.want)
		}
	}
}
