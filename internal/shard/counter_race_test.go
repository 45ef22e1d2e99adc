package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"rap/internal/core"
)

// TestShardCounterPromotionEpochHammer is the sharded twin of the core
// spill hammer: weighted feeders keep counters reaching 2^31 and spilling
// in every shard while pinned epoch readers query the merged cut, under
// the race detector. The merged epoch is built from shard clones; if a
// clone aliased its donor's spill slab, the shards' concurrent adds and
// spills would race the reads here.
func TestShardCounterPromotionEpochHammer(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 20
	cfg.Branch = 4
	cfg.Epsilon = 0.05
	cfg.FirstMerge = 64
	e, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const each = 6_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.Handle()
			samples := make([]core.Sample, 0, 64)
			for i := 0; i < each; i++ {
				samples = append(samples,
					// Hot set with weights near 2^24: constant spill
					// churn in whichever shard the chunk lands.
					core.Sample{Value: uint64(i%16) << 14, Weight: 1<<24 + uint64(i%200)},
					core.Sample{Value: uint64(w*each+i) * 2654435761 % (1 << 20), Weight: 1},
				)
				if len(samples) == cap(samples) {
					h.AddSamples(samples)
					samples = samples[:0]
				}
			}
			h.AddSamples(samples)
		}(w)
	}

	var stop atomic.Bool
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for !stop.Load() {
				ep := e.Reader()
				n := ep.N()
				if full := ep.Estimate(0, 1<<20-1); full != n {
					t.Errorf("merged epoch leaks mass: full estimate %d, N %d", full, n)
				}
				hot := ep.Estimate(0, 1<<16-1)
				if again := ep.Estimate(0, 1<<16-1); again != hot {
					t.Errorf("pinned epoch answer moved: %d -> %d", hot, again)
				}
				ep.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	spilled := false
	for i := 0; i < e.Shards() && !spilled; i++ {
		e.WithShard(i, func(tr *core.Tree) {
			tr.Walk(func(ni core.NodeInfo) bool {
				spilled = ni.Count >= 1<<31
				return !spilled
			})
		})
	}
	if !spilled {
		t.Fatal("hammer spilled no counters; weights are mistuned")
	}
	if full := e.Estimate(0, 1<<20-1); full != e.N() {
		t.Fatalf("engine leaks mass after hammer: %d != %d", full, e.N())
	}
}
