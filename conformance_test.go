package rap_test

// Engine-conformance suite: one table of engine constructors, one shared
// assertion set, driven entirely through the rap.Profiler interface. Every
// engine must agree with itself across ingest paths (Add vs AddN vs
// AddBatch), account N exactly in Stats, and round-trip its snapshot
// format back to identical estimates. New engines join the table, not a
// new test file.

import (
	"testing"

	"rap"
	"rap/internal/stats"
)

func confConfig() rap.Config {
	cfg := rap.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	cfg.FirstMerge = 64
	return cfg
}

// engineSpec describes one engine's place in the conformance table.
type engineSpec struct {
	name string
	make func(t *testing.T) rap.Profiler
	// exactBatch: AddBatch must be estimate-for-estimate identical to
	// sequential Add. False only for Sharded, where Add round-robins
	// single events across stripes while AddBatch pins a chunk to one —
	// a different (equally valid) shard assignment of the same stream.
	exactBatch bool
	// snapshot/restore expose the engine's snapshot surface; nil when the
	// engine has none (SampledTree is ingest-side state, not a store).
	snapshot func(t *testing.T, p rap.Profiler) []byte
	restore  func(t *testing.T, data []byte) rap.Profiler
}

func engineTable() []engineSpec {
	cfg := confConfig()
	return []engineSpec{
		{
			name:       "Tree",
			make:       func(t *testing.T) rap.Profiler { return mustProfiler[*rap.Tree](t)(rap.NewTree(cfg)) },
			exactBatch: true,
			snapshot: func(t *testing.T, p rap.Profiler) []byte {
				data, err := p.(*rap.Tree).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return data
			},
			restore: func(t *testing.T, data []byte) rap.Profiler {
				var nt rap.Tree
				if err := nt.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				return &nt
			},
		},
		{
			// The engine rap.WithConcurrent builds: Sharded at one shard,
			// where Add and AddBatch land on the same tree, so batches
			// must match sequential Add exactly.
			name:       "ConcurrentTree",
			make:       func(t *testing.T) rap.Profiler { return mustProfiler[rap.Profiler](t)(rap.New(concurrentOpts(cfg)...)) },
			exactBatch: true,
			snapshot: func(t *testing.T, p rap.Profiler) []byte {
				data, err := p.(*rap.Sharded).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return data
			},
			restore: func(t *testing.T, data []byte) rap.Profiler {
				fresh := mustProfiler[rap.Profiler](t)(rap.New(concurrentOpts(cfg)...))
				if err := fresh.(*rap.Sharded).Restore(data); err != nil {
					t.Fatal(err)
				}
				return fresh
			},
		},
		{
			// k=3 on purpose: batch determinism must hold mid-sampling
			// period, not just at the k=1 degenerate point.
			name:       "SampledTree",
			make:       func(t *testing.T) rap.Profiler { return mustProfiler[*rap.SampledTree](t)(rap.NewSampled(cfg, 3)) },
			exactBatch: true,
		},
		{
			name:       "Sharded",
			make:       func(t *testing.T) rap.Profiler { return mustProfiler[*rap.Sharded](t)(rap.NewSharded(cfg, 4)) },
			exactBatch: false,
			snapshot: func(t *testing.T, p rap.Profiler) []byte {
				data, err := p.(*rap.Sharded).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return data
			},
			restore: func(t *testing.T, data []byte) rap.Profiler {
				fresh := mustProfiler[*rap.Sharded](t)(rap.NewSharded(cfg, 4))
				if err := fresh.(*rap.Sharded).Restore(data); err != nil {
					t.Fatal(err)
				}
				return fresh
			},
		},
	}
}

// concurrentOpts selects the concurrent engine over confConfig's
// settings through the functional options.
func concurrentOpts(cfg rap.Config) []rap.Option {
	return []rap.Option{
		rap.WithUniverseBits(cfg.UniverseBits),
		rap.WithEpsilon(cfg.Epsilon),
		rap.WithFirstMerge(cfg.FirstMerge),
		rap.WithConcurrent(),
	}
}

func mustProfiler[P rap.Profiler](t *testing.T) func(P, error) rap.Profiler {
	return func(p P, err error) rap.Profiler {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// confStream is the shared conformance workload: skewed with uniform
// noise, enough volume to split, merge, and refill holes.
func confStream(seed uint64, n int) []uint64 {
	rng := stats.NewSplitMix64(seed)
	z := stats.NewZipf(rng, 1<<16, 1.2)
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = rng.Uint64n(1 << 16)
		} else {
			out[i] = uint64(z.Rank())
		}
	}
	return out
}

// probeRanges returns the aligned query set estimates are compared on.
func probeRanges(rng *stats.SplitMix64, w, count int) [][2]uint64 {
	out := make([][2]uint64, count)
	for i := range out {
		width := uint64(1) << (2 * (1 + rng.Intn(w/2-1)))
		lo := rng.Uint64n(1<<w) &^ (width - 1)
		out[i] = [2]uint64{lo, lo + width - 1}
	}
	return out
}

func TestConformanceAddBatchEquivalence(t *testing.T) {
	const events = 25_000
	points := confStream(42, events)
	cfg := confConfig()
	for _, spec := range engineTable() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			sequential := spec.make(t)
			batched := spec.make(t)
			for _, p := range points {
				sequential.Add(p)
			}
			// Uneven chunk sizes so chunk boundaries move relative to
			// split/merge points.
			rng := stats.NewSplitMix64(7)
			for off := 0; off < len(points); {
				end := off + 1 + int(rng.Uint64n(700))
				if end > len(points) {
					end = len(points)
				}
				batched.AddBatch(points[off:end])
				off = end
			}
			if sequential.N() != batched.N() {
				t.Fatalf("N: sequential %d, batched %d", sequential.N(), batched.N())
			}
			slack := 2 * cfg.Epsilon * float64(sequential.N())
			for _, pr := range probeRanges(rng, cfg.UniverseBits, 120) {
				a := sequential.Estimate(pr[0], pr[1])
				b := batched.Estimate(pr[0], pr[1])
				if spec.exactBatch {
					if a != b {
						t.Fatalf("[%#x,%#x]: sequential estimate %d, batched %d",
							pr[0], pr[1], a, b)
					}
				} else if diff := absDiff(a, b); float64(diff) > slack {
					t.Fatalf("[%#x,%#x]: sequential %d and batched %d diverge beyond 2ε·n = %.1f",
						pr[0], pr[1], a, b, slack)
				}
			}
		})
	}
}

func TestConformanceAddNMatchesAdd(t *testing.T) {
	points := confStream(43, 10_000)
	for _, spec := range engineTable() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			viaAdd := spec.make(t)
			viaAddN := spec.make(t)
			for _, p := range points {
				viaAdd.Add(p)
				viaAddN.AddN(p, 1)
			}
			if viaAdd.N() != viaAddN.N() {
				t.Fatalf("N: Add %d, AddN %d", viaAdd.N(), viaAddN.N())
			}
			rng := stats.NewSplitMix64(11)
			for _, pr := range probeRanges(rng, confConfig().UniverseBits, 80) {
				if a, b := viaAdd.Estimate(pr[0], pr[1]), viaAddN.Estimate(pr[0], pr[1]); a != b {
					t.Fatalf("[%#x,%#x]: Add estimate %d, AddN estimate %d", pr[0], pr[1], a, b)
				}
			}
		})
	}
}

func TestConformanceStatsNAccounting(t *testing.T) {
	points := confStream(44, 15_000)
	for _, spec := range engineTable() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			eng := spec.make(t)
			var want uint64
			for i, p := range points {
				if i%3 == 0 {
					w := uint64(1 + i%5)
					eng.AddN(p, w)
					want += w
				} else {
					eng.Add(p)
					want++
				}
			}
			if got := eng.N(); got != want {
				t.Fatalf("N() = %d, fed %d", got, want)
			}
			if st := eng.Stats(); st.N != want {
				t.Fatalf("Stats().N = %d, fed %d", st.N, want)
			}
			if st := eng.Finalize(); st.N != want {
				t.Fatalf("Finalize().N = %d, fed %d", st.N, want)
			}
			if got := eng.N(); got != want {
				t.Fatalf("N() after Finalize = %d, fed %d", got, want)
			}
		})
	}
}

func TestConformanceSnapshotRestoreSameEstimates(t *testing.T) {
	points := confStream(45, 20_000)
	for _, spec := range engineTable() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			if spec.snapshot == nil {
				t.Skip("engine has no snapshot surface")
			}
			eng := spec.make(t)
			for _, p := range points {
				eng.Add(p)
			}
			data := spec.snapshot(t, eng)
			restored := spec.restore(t, data)
			if eng.N() != restored.N() {
				t.Fatalf("N: live %d, restored %d", eng.N(), restored.N())
			}
			rng := stats.NewSplitMix64(17)
			for _, pr := range probeRanges(rng, confConfig().UniverseBits, 120) {
				a := eng.Estimate(pr[0], pr[1])
				b := restored.Estimate(pr[0], pr[1])
				if a != b {
					t.Fatalf("[%#x,%#x]: live estimate %d, restored %d", pr[0], pr[1], a, b)
				}
			}
			// The restored engine must remain live: ingest continues and
			// the counters pick up where the snapshot left off.
			restored.Add(points[0])
			if restored.N() != eng.N()+1 {
				t.Fatalf("restored engine frozen: N = %d after one more Add (live N %d)",
					restored.N(), eng.N())
			}
		})
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
