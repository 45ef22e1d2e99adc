package shard

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"rap/internal/admit"
	"rap/internal/core"
	"rap/internal/stats"
	"rap/internal/trace"
	"rap/internal/workload"
)

// referenceUnion merges every shard's clone, empty shards included, into
// a fresh tree: the plain construction the clone-first union must answer
// exactly like.
func referenceUnion(t *testing.T, e *Engine) *core.Tree {
	t.Helper()
	ref := core.MustNew(e.Config())
	for i := 0; i < e.Shards(); i++ {
		var c *core.Tree
		e.WithShard(i, func(tr *core.Tree) { c = tr.Clone() })
		if err := ref.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// gzipEvents is n gzip load values; every seventh carries a weight of 2
// to 6, so merged counters sum more than unit increments.
func gzipEvents(t *testing.T, n uint64) []trace.Event {
	t.Helper()
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	src := trace.Limit(gzip.Values(3, n), n)
	out := make([]trace.Event, 0, n)
	for i := 0; ; i++ {
		e, ok := src.Next()
		if !ok {
			return out
		}
		if i%7 == 0 {
			e.Weight = 2 + uint64(i%5)
		}
		out = append(out, e)
	}
}

// zipfEvents is n Zipf ranks over 2^20 values; every fifth carries a
// weight of 2 to 4.
func zipfEvents(n int) []trace.Event {
	z := stats.NewZipf(stats.NewSplitMix64(11), 1<<20, 1.2)
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{Value: uint64(z.Rank()), Weight: 1}
		if i%5 == 0 {
			out[i].Weight = 2 + uint64(i%3)
		}
	}
	return out
}

// badicRanges returns the b-adic range holding each of 16 points spread
// over evs at every third tree depth: the ranges the tree's nodes cover.
func badicRanges(cfg core.Config, evs []trace.Event) [][2]uint64 {
	stride := bits.TrailingZeros(uint(cfg.Branch))
	var out [][2]uint64
	for k := 0; k < 16; k++ {
		p := evs[k*len(evs)/16].Value
		for d := 0; d <= cfg.Height(); d += 3 {
			free := max(cfg.UniverseBits-d*stride, 0)
			span := uint64(1)<<free - 1 // a shift by 64 is 0, so the root spans everything
			lo := p &^ span
			out = append(out, [2]uint64{lo, lo | span})
		}
	}
	return out
}

// TestUnionMatchesReference checks that the clone-first union — behind
// the published epoch, MergedTree and MergedTreeCut — answers exactly like
// a union built by merging every shard into a fresh tree. Four-shard
// engines are fed through one handle (one populated shard) or three (one
// empty shard left), with gzip values and a Zipf stream carrying weights
// above 1, with and without admission gates.
func TestUnionMatchesReference(t *testing.T) {
	streams := map[string][]trace.Event{
		"gzip": gzipEvents(t, 300_000),
		"zipf": zipfEvents(300_000),
	}
	cfg := core.DefaultConfig()
	for _, name := range []string{"gzip", "zipf"} {
		evs := streams[name]
		ranges := badicRanges(cfg, evs)
		if len(ranges) < 64 {
			t.Fatalf("%d ranges, want at least 64", len(ranges))
		}
		for _, populated := range []int{1, 3} {
			for _, gated := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/populated=%d/admit=%v", name, populated, gated), func(t *testing.T) {
					e, err := New(cfg, 4)
					if err != nil {
						t.Fatal(err)
					}
					if gated {
						gates := admit.New(admit.Options{Seed: 1}).Gates(cfg.UniverseBits, e.Shards())
						e.SetShardAdmitters(func(i int) core.Admitter { return gates[i] })
					}
					hs := make([]*Handle, populated)
					for i := range hs {
						hs[i] = e.Handle()
					}
					samples := make([]core.Sample, 0, 256)
					for lo := 0; lo < len(evs); lo += 256 {
						samples = samples[:0]
						for _, ev := range evs[lo:min(lo+256, len(evs))] {
							samples = append(samples, core.Sample{Value: ev.Value, Weight: ev.Weight})
						}
						hs[(lo/256)%populated].AddSamples(samples)
					}
					e.PublishNow()
					if gated && e.UnadmittedN() == 0 {
						t.Fatal("admission gates refused nothing")
					}

					ref := referenceUnion(t, e)
					ep := e.Reader()
					defer ep.Release()
					views := map[string]*core.Tree{
						"epoch":         ep.Tree(),
						"MergedTree":    e.MergedTree(),
						"MergedTreeCut": e.MergedTreeCut(nil),
					}
					for vname, v := range views {
						if v.N() != ref.N() || v.UnadmittedN() != ref.UnadmittedN() {
							t.Fatalf("%s: N %d unadmitted %d, reference %d and %d",
								vname, v.N(), v.UnadmittedN(), ref.N(), ref.UnadmittedN())
						}
						for _, r := range ranges {
							if got, want := v.Estimate(r[0], r[1]), ref.Estimate(r[0], r[1]); got != want {
								t.Fatalf("%s: Estimate[%#x,%#x] = %d, reference %d", vname, r[0], r[1], got, want)
							}
							gl, gh := v.EstimateBounds(r[0], r[1])
							wl, wh := ref.EstimateBounds(r[0], r[1])
							if gl != wl || gh != wh {
								t.Fatalf("%s: EstimateBounds[%#x,%#x] = (%d,%d), reference (%d,%d)",
									vname, r[0], r[1], gl, gh, wl, wh)
							}
						}
						for _, theta := range []float64{0.001, 0.01, 0.1} {
							got, want := v.HotRanges(theta), ref.HotRanges(theta)
							if len(want) == 0 {
								t.Fatalf("reference has no hot ranges at θ=%v", theta)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: HotRanges(%v) = %+v, reference %+v", vname, theta, got, want)
							}
						}
					}
					if got := ep.N(); got != ref.N() {
						t.Fatalf("epoch cut N = %d, reference %d", got, ref.N())
					}
				})
			}
		}
	}
}

// TestPublishWork is the deterministic gate on one publish's cost: with
// 3M gzip values on one shard of a 4-shard engine, a PublishNow makes at
// most 2 allocations of at most 256 B in all once retired epochs have
// donated trees the size of the cut. The publish copies the one populated
// shard into that spare tree and merges nothing into it, so only the
// Epoch is new (1 allocation, 64 B). The first two cuts after the feed
// are warm-up: the initial epoch's empty tree and the first cut's fresh
// clone become the spares that later cuts alternate between. Each
// measured cut follows a pin and release of the current epoch, as the
// rap_epoch_* gauges read it, which must not keep that epoch's tree from
// the next cut. A fresh clone per publish read 3 allocations and 41,536
// B; merging every shard's clone into a fresh tree read about 3.4 arenas
// in 52 allocations.
func TestPublishWork(t *testing.T) {
	const n, chunk, reps = 3_000_000, 256, 20
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	h := e.Handle()
	src := trace.Limit(gzip.Values(1, n), n)
	buf := make([]trace.Event, chunk)
	samples := make([]core.Sample, chunk)
	for {
		k := trace.NextBatch(src, buf)
		if k == 0 {
			break
		}
		for i, ev := range buf[:k] {
			samples[i] = core.Sample{Value: ev.Value, Weight: ev.Weight}
		}
		h.AddSamples(samples[:k])
	}
	if got := e.N(); got != n {
		t.Fatalf("N = %d, want %d", got, n)
	}
	arena := e.Stats().ArenaBytes
	e.PublishNow()
	e.PublishNow()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		e.Publisher().Acquire().Release() // a gauge read between cuts
		e.PublishNow()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / reps
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / reps
	t.Logf("one publish: %.1f allocations, %.0f B; engine ArenaBytes %d", allocs, bytes, arena)
	if bytes > 256 {
		t.Errorf("one publish allocated %.0f B, want at most 256", bytes)
	}
	if allocs > 2 {
		t.Errorf("one publish made %.1f allocations, want at most 2", allocs)
	}
}
