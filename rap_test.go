package rap_test

import (
	"errors"
	"testing"

	"rap"
)

// Compile-time proof that every engine satisfies the public Profiler
// interface — the facade's core contract.
var (
	_ rap.Profiler = (*rap.Tree)(nil)
	_ rap.Profiler = (*rap.SampledTree)(nil)
	_ rap.Profiler = (*rap.Sharded)(nil)
)

// TestFacadeStructLiteralPath checks the pre-facade construction style
// (Config literal into a typed constructor) still works through the
// aliases.
func TestFacadeStructLiteralPath(t *testing.T) {
	cfg := rap.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	tr, err := rap.NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		tr.Add(i % 256)
	}
	if tr.N() != 10_000 {
		t.Fatalf("N = %d", tr.N())
	}
	low, high := tr.EstimateBounds(0, 255)
	if low > 10_000 || high < 10_000 {
		t.Fatalf("true count 10000 outside [%d,%d]", low, high)
	}
}

// TestFacadeErrors checks the re-exported sentinels are the ones the
// engines actually return.
func TestFacadeErrors(t *testing.T) {
	a := rap.MustNewTree(rap.DefaultConfig())
	cfg := rap.DefaultConfig()
	cfg.Epsilon = 0.5
	b := rap.MustNewTree(cfg)
	if err := a.Merge(b); !errors.Is(err, rap.ErrConfigMismatch) {
		t.Fatalf("config-mismatch merge returned %v", err)
	}
	if err := a.Merge(a); !errors.Is(err, rap.ErrSelfMerge) {
		t.Fatalf("self merge returned %v", err)
	}

	e, err := rap.NewSharded(rap.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e3, err := rap.NewSharded(rap.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Restore(snap); !errors.Is(err, rap.ErrShardCount) {
		t.Fatalf("shard-count-mismatch restore returned %v", err)
	}
}

// TestProfilerPolymorphism drives each engine through the interface and
// checks the shared lower-bound contract.
func TestProfilerPolymorphism(t *testing.T) {
	build := []struct {
		name string
		mk   func() (rap.Profiler, error)
	}{
		{"tree", func() (rap.Profiler, error) { return rap.New(rap.WithUniverse(1<<16), rap.WithEpsilon(0.05)) }},
		{"concurrent", func() (rap.Profiler, error) {
			return rap.New(rap.WithUniverse(1<<16), rap.WithEpsilon(0.05), rap.WithConcurrent())
		}},
		{"sampled", func() (rap.Profiler, error) {
			return rap.New(rap.WithUniverse(1<<16), rap.WithEpsilon(0.05), rap.WithSampling(4))
		}},
		{"sharded", func() (rap.Profiler, error) {
			return rap.New(rap.WithUniverse(1<<16), rap.WithEpsilon(0.05), rap.WithSharding(4))
		}},
	}
	for _, tc := range build {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			const n = 50_000
			for i := 0; i < n; i++ {
				p.Add(uint64(i % 1024)) // uniform over [0,1024)
			}
			if p.N() != n {
				t.Fatalf("N = %d, want %d", p.N(), n)
			}
			low, high := p.EstimateBounds(0, 1023)
			if low > n || high < n {
				t.Fatalf("true count %d outside [%d,%d]", n, low, high)
			}
			if est := p.Estimate(0, 1<<16-1); est > n {
				t.Fatalf("whole-universe estimate %d exceeds n", est)
			}
			hot := p.HotRanges(0.99)
			for _, h := range hot {
				if h.Weight > n {
					t.Fatalf("hot range overshoots stream: %+v", h)
				}
			}
			st := p.Finalize()
			if st.N != n {
				t.Fatalf("finalized Stats.N = %d", st.N)
			}
		})
	}
}
