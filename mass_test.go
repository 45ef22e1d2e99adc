package rap_test

// Counter-mass conservation, driven through the engine-conformance table:
// every unit of weight an engine admits must remain countable — the
// full-universe estimate accounts for all credited mass, and Stats.N plus
// the unadmitted ledger always reconstructs exactly what was offered — no
// matter how the counters underneath spill out of their nodes, are
// compacted by merge batches, copied by epoch publication, or
// round-tripped through snapshots. A lost or double-counted unit anywhere
// in the counter machinery shows up here as a conservation leak.

import (
	"testing"

	"rap"
	"rap/internal/stats"
)

const confUniverseMax = 1<<16 - 1

// offeredStream feeds eng a mixed workload and returns the total weight
// offered: a skewed weight-1 stream, mid-size weighted updates, and a few
// jump updates that carry a counter past 2^32 at once, spilling it.
func offeredStream(eng rap.Profiler, seed uint64) uint64 {
	var offered uint64
	points := confStream(seed, 20_000)
	eng.AddBatch(points[:10_000])
	for _, p := range points[10_000:] {
		eng.Add(p)
	}
	offered += 20_000
	rng := stats.NewSplitMix64(seed ^ 0xabcdef)
	for i := 0; i < 300; i++ {
		w := rng.Uint64n(1000) + 1
		eng.AddN(rng.Uint64n(1<<16), w)
		offered += w
	}
	for i := 0; i < 4; i++ {
		// Jump updates: a single weight that spills a counter.
		eng.AddN(rng.Uint64n(1<<16), 1<<32)
		offered += 1 << 32
	}
	return offered
}

// expectedCounted returns the full-universe estimate an engine must report
// after offered weight: the offered mass itself, except for the sampling
// engine whose estimates are scaled-up sampled counts (k=3 in the
// conformance table), where the deterministic sampler admits exactly
// floor(offered/k) events whatever the call pattern was.
func expectedCounted(p rap.Profiler, offered uint64) uint64 {
	if _, ok := p.(*rap.SampledTree); ok {
		return (offered / 3) * 3
	}
	return offered
}

func TestConformanceMassConservation(t *testing.T) {
	for _, spec := range engineTable() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			eng := spec.make(t)
			offered := offeredStream(eng, 4242)

			check := func(stage string, r rap.Reader, p rap.Profiler, want uint64) {
				t.Helper()
				st := r.Stats()
				if st.N+st.UnadmittedN != want {
					t.Fatalf("%s: N %d + unadmitted %d != offered %d",
						stage, st.N, st.UnadmittedN, want)
				}
				if got, expect := r.Estimate(0, confUniverseMax), expectedCounted(p, want); got != expect {
					t.Fatalf("%s: full-universe estimate %d, want %d", stage, got, expect)
				}
			}

			check("after ingest", eng, eng, offered)

			// Merge-batch compaction (spill rebuild included) conserves mass.
			eng.Finalize()
			check("after finalize", eng, eng, offered)

			// Epoch publication copies the spill slab: the pinned reader's
			// mass stays frozen while the writer keeps spilling.
			if ep, ok := rap.ReaderOf(eng); ok {
				more := offeredStream(eng, 777)
				check("pinned epoch", ep, eng, offered)
				check("writer after epoch", eng, eng, offered+more)
				ep.Release()
				offered += more
			}

			// Snapshot round-trip conserves mass, and the restored engine
			// keeps conserving as ingest continues.
			if spec.snapshot != nil {
				restored := spec.restore(t, spec.snapshot(t, eng))
				check("restored", restored, restored, offered)
				more := offeredStream(restored, 31337)
				check("restored after more ingest", restored, restored, offered+more)
				restored.Finalize()
				check("restored after finalize", restored, restored, offered+more)
			}
		})
	}
}
