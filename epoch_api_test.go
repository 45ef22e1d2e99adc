package rap_test

import (
	"reflect"
	"testing"

	"rap"
)

// TestProfilerSignatureGuard pins the deprecated Profiler surface: every
// method the seed interface exposed must keep its exact signature. The
// Writer/Reader split may grow new facets, but existing callers holding
// a Profiler must never need to change.
func TestProfilerSignatureGuard(t *testing.T) {
	want := map[string]string{
		"Add":            "func(uint64)",
		"AddN":           "func(uint64, uint64)",
		"AddBatch":       "func([]uint64)",
		"N":              "func() uint64",
		"Estimate":       "func(uint64, uint64) uint64",
		"EstimateBounds": "func(uint64, uint64) (uint64, uint64)",
		"HotRanges":      "func(float64) []core.HotRange",
		"Stats":          "func() core.Stats",
		"Finalize":       "func() core.Stats",
		"Snapshot":       "func() ([]uint8, error)",
	}
	typ := reflect.TypeOf((*rap.Profiler)(nil)).Elem()
	got := map[string]string{}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		got[m.Name] = m.Type.String()
	}
	for name, sig := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("Profiler lost method %s (want %s)", name, sig)
			continue
		}
		if g != sig {
			t.Errorf("Profiler.%s signature changed: %s, want %s", name, g, sig)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("Profiler grew unreviewed method %s — update the guard deliberately", name)
		}
	}
}

// TestReaderOfAllEngines checks the epoch escape hatch across the four
// engines: consistent-cut engines hand back a working epoch, the
// sampling engine reports ok=false.
func TestReaderOfAllEngines(t *testing.T) {
	feed := func(p rap.Writer) {
		for i := uint64(0); i < 20_000; i++ {
			p.Add(i % 997)
		}
	}
	cases := []struct {
		name string
		opts []rap.Option
		ok   bool
	}{
		{"tree", nil, true},
		{"concurrent", []rap.Option{rap.WithConcurrent()}, true},
		{"sharded", []rap.Option{rap.WithSharding(4)}, true},
		{"sampled", []rap.Option{rap.WithSampling(8)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := rap.New(append([]rap.Option{rap.WithUniverse(1 << 20), rap.WithEpsilon(0.05)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			feed(p)
			e, ok := rap.ReaderOf(p)
			if ok != c.ok {
				t.Fatalf("ReaderOf ok = %v, want %v", ok, c.ok)
			}
			if !ok {
				return
			}
			defer e.Release()
			// Every epoch is cut as of the call.
			n0 := e.N()
			if n0 != 20_000 {
				t.Fatalf("epoch N = %d, want 20000", n0)
			}
			lo, hi := e.EstimateBounds(0, 1<<20-1)
			if lo > hi || hi != n0 {
				t.Fatalf("epoch full-range bounds (%d, %d), want high = %d", lo, hi, n0)
			}
			// The epoch is a cut: later writes must not leak in.
			p.Add(1)
			if e.N() != n0 {
				t.Fatalf("epoch N moved to %d after a later write", e.N())
			}
		})
	}
}
