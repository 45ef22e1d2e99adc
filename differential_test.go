package rap_test

// Exact-oracle differential suite: every engine, on several stream
// shapes, is measured against a brute-force exact counter
// (internal/oracle). The assertions are the paper's contract — every
// estimate is a lower bound on the truth, tracked (prefix-aligned) ranges
// undershoot by at most ε·n, and arbitrary spans by at most 2ε·n (one ε·n
// budget per boundary) — and they are layout-blind: the suite passed
// unchanged on the pointer-linked node store and gates the arena-backed
// one, proving the storage rewrite estimate-for-estimate equivalent.

import (
	"testing"

	"rap"
	"rap/internal/oracle"
	"rap/internal/stats"
)

// diffConfig is the differential operating point: a 16-bit universe keeps
// the oracle exact and the queries dense, FirstMerge=32 exercises the
// merge schedule early, and MinSplitCount=1 disables the cold-start split
// guard so the pure ε·n bound is assertable (the guard floors the split
// threshold above ε·n/H at small n, inflating the worst case).
func diffConfig() rap.Config {
	cfg := rap.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	cfg.FirstMerge = 32
	cfg.MinSplitCount = 1
	return cfg
}

// diffEngines builds one of each engine over cfg. The sampled engine runs
// at k=1: sampling deliberately trades the one-sided guarantee away for
// k>1, so the differential bound is only its contract at k=1 (where it
// degenerates to a plain tree behind the sampler bookkeeping).
func diffEngines(t *testing.T, cfg rap.Config) map[string]rap.Profiler {
	t.Helper()
	tree, err := rap.NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := rap.NewSharded(cfg, 1) // what rap.WithConcurrent builds
	if err != nil {
		t.Fatal(err)
	}
	samp, err := rap.NewSampled(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	shrd, err := rap.NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rap.Profiler{
		"Tree":           tree,
		"ConcurrentTree": conc,
		"SampledTree":    samp,
		"Sharded":        shrd,
	}
}

// diffStream generates the named stream shape over a w-bit universe.
type diffStream struct {
	name string
	gen  func(rng *stats.SplitMix64, w int, n int) []uint64
}

var diffStreams = []diffStream{
	// The paper's hot-spot shape: heavily skewed ranks.
	{"zipf", func(rng *stats.SplitMix64, w, n int) []uint64 {
		z := stats.NewZipf(rng, 1<<w, 1.2)
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(z.Rank())
		}
		return out
	}},
	// Uniform noise: maximal spread, shallow trees, constant merging.
	{"uniform", func(rng *stats.SplitMix64, w, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = rng.Uint64n(1 << w)
		}
		return out
	}},
	// Adversarial boundaries: values hugging power-of-two edges (B-1, B,
	// B+1) plus the universe extremes — the points where childIndex, hi
	// masks, and split bounds are most likely to be off by one.
	{"boundary", func(rng *stats.SplitMix64, w, n int) []uint64 {
		max := uint64(1<<w) - 1
		out := make([]uint64, n)
		for i := range out {
			switch rng.Intn(8) {
			case 0:
				out[i] = 0
			case 1:
				out[i] = max
			default:
				b := uint64(1) << (1 + rng.Intn(w-1))
				switch rng.Intn(3) {
				case 0:
					out[i] = (b - 1) & max
				case 1:
					out[i] = b & max
				default:
					out[i] = (b + 1) & max
				}
			}
		}
		return out
	}},
}

func TestDifferentialOracleAllEngines(t *testing.T) {
	const events = 30_000
	cfg := diffConfig()
	w := cfg.UniverseBits
	for _, stream := range diffStreams {
		stream := stream
		t.Run(stream.name, func(t *testing.T) {
			rng := stats.NewSplitMix64(0xd1f + uint64(len(stream.name)))
			points := stream.gen(rng, w, events)
			ref := oracle.New()
			for _, p := range points {
				ref.Add(p)
			}
			for name, eng := range diffEngines(t, cfg) {
				name, eng := name, eng
				t.Run(name, func(t *testing.T) {
					for _, p := range points {
						eng.Add(p)
					}
					if eng.N() != ref.N() {
						t.Fatalf("N = %d, oracle counted %d", eng.N(), ref.N())
					}
					checkAgainstOracle(t, eng, ref, cfg, rng)
				})
			}
		})
	}
}

// checkAgainstOracle runs the three-part differential assertion set:
// tracked ranges (lower bound, ε·n undershoot), arbitrary spans (lower
// bound, 2ε·n undershoot, bracketing upper bound), and boundary-derived
// spans ending exactly at recorded values.
func checkAgainstOracle(t *testing.T, eng rap.Profiler, ref *oracle.Oracle, cfg rap.Config, rng *stats.SplitMix64) {
	t.Helper()
	w := cfg.UniverseBits
	n := float64(ref.N())
	slack := cfg.Epsilon * n

	// Tracked ranges: aligned to the b=4 split strides, the shapes the
	// tree actually stores. Missing events were credited to at most H
	// ancestors holding at most ε·n/H each — undershoot ≤ ε·n.
	for q := 0; q < 80; q++ {
		width := uint64(1) << (2 * (1 + rng.Intn(w/2-1)))
		lo := rng.Uint64n(1<<w) &^ (width - 1)
		hi := lo + width - 1
		assertBracket(t, eng, ref, lo, hi, slack, "tracked")
	}
	// Arbitrary spans: two unaligned boundaries, one ε·n budget each.
	for q := 0; q < 60; q++ {
		lo := rng.Uint64n(1 << w)
		hi := lo + rng.Uint64n(1<<w-lo)
		assertBracket(t, eng, ref, lo, hi, 2*slack, "arbitrary")
	}
	// Boundary-derived spans: endpoints at (or adjacent to) values that
	// actually occurred, where an off-by-one in range cover shows up.
	vals := ref.Values()
	for q := 0; q < 40 && len(vals) > 0; q++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		if a > b {
			a, b = b, a
		}
		assertBracket(t, eng, ref, a, b, 2*slack, "value-anchored")
	}
}

func assertBracket(t *testing.T, eng rap.Profiler, ref *oracle.Oracle, lo, hi uint64, slack float64, kind string) {
	t.Helper()
	truth := ref.Count(lo, hi)
	low, high := eng.EstimateBounds(lo, hi)
	if est := eng.Estimate(lo, hi); est != low {
		t.Fatalf("%s [%#x,%#x]: Estimate %d != EstimateBounds low %d", kind, lo, hi, est, low)
	}
	if low > truth {
		t.Fatalf("%s [%#x,%#x]: estimate %d exceeds exact count %d (lower bound violated)",
			kind, lo, hi, low, truth)
	}
	if truth > high {
		t.Fatalf("%s [%#x,%#x]: exact count %d above upper bound %d", kind, lo, hi, truth, high)
	}
	if under := float64(truth) - float64(low); under > slack {
		t.Fatalf("%s [%#x,%#x]: undershoot %.0f beyond budget %.1f", kind, lo, hi, under, slack)
	}
}

// TestDifferentialOracleWeighted drives the same contract through the
// weighted AddN path with random weights, so coalesced ingest (the
// hardware stage-0 buffer shape) is held to the same bound.
func TestDifferentialOracleWeighted(t *testing.T) {
	cfg := diffConfig()
	w := cfg.UniverseBits
	rng := stats.NewSplitMix64(99)
	z := stats.NewZipf(rng, 1<<w, 1.3)
	ref := oracle.New()
	type wp struct{ v, wt uint64 }
	var events []wp
	for i := 0; i < 8_000; i++ {
		e := wp{uint64(z.Rank()), 1 + rng.Uint64n(16)}
		events = append(events, e)
		ref.AddN(e.v, e.wt)
	}
	for name, eng := range diffEngines(t, cfg) {
		name, eng := name, eng
		t.Run(name, func(t *testing.T) {
			for _, e := range events {
				eng.AddN(e.v, e.wt)
			}
			if eng.N() != ref.N() {
				t.Fatalf("N = %d, oracle counted %d", eng.N(), ref.N())
			}
			// AddN credits a whole weight to one node, so a single call
			// can overshoot the pure threshold by its weight; widen the
			// budget by the maximum weight per level to stay assertable.
			n := float64(ref.N())
			slack := cfg.Epsilon*n + 16*float64(cfg.Height())
			for q := 0; q < 60; q++ {
				lo := rng.Uint64n(1 << w)
				hi := lo + rng.Uint64n(1<<w-lo)
				assertBracket(t, eng, ref, lo, hi, 2*slack, "weighted")
			}
		})
	}
}

// TestDifferentialAfterFinalize re-checks the bound after the final
// compaction pass: Finalize merges cold nodes, which moves counts upward
// but must never break the lower-bound bracket.
func TestDifferentialAfterFinalize(t *testing.T) {
	cfg := diffConfig()
	w := cfg.UniverseBits
	rng := stats.NewSplitMix64(1234)
	z := stats.NewZipf(rng, 1<<w, 1.1)
	ref := oracle.New()
	points := make([]uint64, 40_000)
	for i := range points {
		points[i] = uint64(z.Rank())
		ref.Add(points[i])
	}
	for name, eng := range diffEngines(t, cfg) {
		name, eng := name, eng
		t.Run(name, func(t *testing.T) {
			for _, p := range points {
				eng.Add(p)
			}
			st := eng.Finalize()
			if st.N != ref.N() {
				t.Fatalf("Finalize N = %d, oracle counted %d", st.N, ref.N())
			}
			checkAgainstOracle(t, eng, ref, cfg, rng)
		})
	}
}
