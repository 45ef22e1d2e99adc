package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Known-answer check so cross-platform determinism is pinned.
	c := NewSplitMix64(0)
	if got := c.Uint64(); got != 0xE220A8397B1DCDAF {
		t.Fatalf("SplitMix64(0) first output = %x, want e220a8397b1dcdaf", got)
	}
}

func TestSplitMix64Distribution(t *testing.T) {
	rng := NewSplitMix64(7)
	n := 100_000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
		buckets[int(f*10)]++
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, n/10)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	rng := NewSplitMix64(1)
	child := rng.Split()
	x := child.Uint64()
	rng2 := NewSplitMix64(1)
	child2 := rng2.Split()
	if child2.Uint64() != x {
		t.Fatal("Split not deterministic")
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

func TestUint64nRange(t *testing.T) {
	rng := NewSplitMix64(3)
	for i := 0; i < 10_000; i++ {
		if v := rng.Uint64n(37); v >= 37 {
			t.Fatalf("Uint64n(37) = %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewSplitMix64(5)
	z := NewZipf(rng, 1000, 1.2)
	counts := make([]int, 1000)
	n := 200_000
	for i := 0; i < n; i++ {
		counts[z.Rank()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("Zipf not monotone decreasing: c0=%d c10=%d c100=%d",
			counts[0], counts[10], counts[100])
	}
	// Rank 0 should carry roughly 1/H_s share; for s=1.2, n=1000 that is
	// ~18%. Accept a broad band.
	frac := float64(counts[0]) / float64(n)
	if frac < 0.10 || frac > 0.30 {
		t.Fatalf("Zipf top rank fraction %.3f outside [0.10, 0.30]", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	rng := NewSplitMix64(1)
	for _, f := range []func(){
		func() { NewZipf(rng, 0, 1) },
		func() { NewZipf(rng, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("NewZipf accepted invalid params")
				}
			}()
			f()
		}()
	}
}

func TestDiscreteProportions(t *testing.T) {
	rng := NewSplitMix64(9)
	d := NewDiscrete(rng, []float64{1, 3, 6})
	counts := make([]int, 3)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[d.Index()]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("Discrete index %d frequency %.3f, want %.1f", i, got, want)
		}
	}
}

func TestDiscretePanics(t *testing.T) {
	rng := NewSplitMix64(1)
	for name, f := range map[string]func(){
		"empty":    func() { NewDiscrete(rng, nil) },
		"negative": func() { NewDiscrete(rng, []float64{1, -1}) },
		"zero sum": func() { NewDiscrete(rng, []float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDiscrete accepted %s weights", name)
				}
			}()
			f()
		}()
	}
}

func TestGeometricMean(t *testing.T) {
	rng := NewSplitMix64(11)
	p := 0.25
	n := 100_000
	sum := 0
	for i := 0; i < n; i++ {
		sum += Geometric(rng, p)
	}
	mean := float64(sum) / float64(n)
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(0.25) mean %.3f, want %.1f", mean, want)
	}
	if Geometric(rng, 1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v", z)
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 63, 64},
	}
	for _, tc := range cases {
		if got := Log2Bucket(tc.v); got != tc.want {
			t.Errorf("Log2Bucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestQuickUint64nAlwaysBelow(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return NewSplitMix64(seed).Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
