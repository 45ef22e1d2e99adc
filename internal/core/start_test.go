package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"rap/internal/stats"
	"rap/internal/trace"
	"rap/internal/workload"
)

// rootDescend is the reference the start table is held to: a descent from
// the root that derives each child slot from the tree geometry rather than
// from the cached cshift/cmask.
func (t *Tree) rootDescend(p uint64) uint32 {
	vi := uint32(0)
	for {
		v := &t.arena[vi]
		if v.childBase == nilIdx {
			return vi
		}
		ci := v.childBase + uint32(t.childIndex(v.plen, p))
		if t.arena[ci].dead {
			return vi
		}
		vi = ci
	}
}

// descentCheck is a Tap that, before every update of tr, requires the
// start-table descent to land on the node a root descent reaches. Its
// descend refreshes only the slot the update's own descent refreshes the
// same way, and descent work is not tree state, so the check leaves the
// snapshot bytes alone.
type descentCheck struct {
	tb testing.TB
	tr *Tree
}

func (c descentCheck) Tap(p, _ uint64) {
	if got, want := c.tr.descend(p), c.tr.rootDescend(p); got != want {
		c.tb.Fatalf("point %#x: start-table descent reached slot %d (plen %d), root descent slot %d (plen %d)",
			p, got, c.tr.arena[got].plen, want, c.tr.arena[want].plen)
	}
}

func (descentCheck) TreeReplaced() {}

// checkDescents checks every point in sweep right away, then installs a
// descentCheck on tr. UnmarshalBinary and Clone drop taps, so call it
// again on the restored tree or the clone.
func checkDescents(tb testing.TB, tr *Tree, sweep []uint64) {
	tb.Helper()
	c := descentCheck{tb: tb, tr: tr}
	for _, p := range sweep {
		c.Tap(p&tr.mask, 1)
	}
	tr.SetTap(c)
}

// fuzzPoint draws a point whose leading-zero count is spread over the
// whole word, with half the draws from a few hot values so the tree grows
// the deep zero-spine paths the table keys on, and a quarter from a narrow
// band (17 bits under 0x1_2000_0000, like gzip's hot values) whose walks
// below its key run long enough to turn that row's deep tier on.
func fuzzPoint(rng *rand.Rand) uint64 {
	hot := [...]uint64{0, 1, 0x2a, 0x1000, 0x7fff_ffff, 1<<40 | 3, ^uint64(0) >> 1}
	switch rng.Intn(4) {
	case 0, 1:
		return hot[rng.Intn(len(hot))]
	case 2:
		return 0x1_2000_0000 | uint64(rng.Intn(1<<17))
	}
	return rng.Uint64() >> rng.Intn(65)
}

func fuzzSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Value: fuzzPoint(rng), Weight: uint64(rng.Intn(4))}
	}
	return out
}

// FuzzDescentStartTable holds the descent start table to a root descent
// before every update, at the universe width and branching factor the
// corpus picks, through every rewrite a writer tree sees: merge batches,
// Merge, a snapshot restore, and a Clone with both sides writing after it.
// The corpus is (w, b, an 8-byte event seed) and then one byte per
// operation; the high bit of a Clone makes the clone the tree that
// carries on. Inputs stay short so the fuzzer's minimizer stays cheap.
func FuzzDescentStartTable(f *testing.F) {
	widths := []int{64, 63, 32, 20, 7}
	branches := []int{2, 4, 8, 256}
	ops := []byte{0, 1, 2, 1, 3, 0, 1, 4, 1, 5, 0, 1, 2, 0x85, 1, 3, 1}
	for wi := range widths {
		for bi := range branches {
			seed := binary.LittleEndian.AppendUint64([]byte{byte(wi), byte(bi)}, uint64(wi*len(branches)+bi))
			f.Add(append(seed, ops...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		cfg := testConfig(widths[int(data[0])%len(widths)], branches[int(data[1])%len(branches)], 0.05)
		cfg.FirstMerge = 16 // merge batches, and so table clears, come often
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[2:10]))))
		tr := MustNew(cfg)
		checkDescents(t, tr, nil)
		for i, op := range data[10:min(len(data), 10+32)] {
			switch (op & 0x7f) % 6 {
			case 0:
				for range 64 {
					tr.AddN(fuzzPoint(rng), 1+uint64(rng.Intn(16)))
				}
			case 1:
				tr.AddSamples(fuzzSamples(rng, 256))
			case 2:
				tr.MergeNow()
			case 3:
				other := MustNew(cfg)
				other.AddSamples(fuzzSamples(rng, 512))
				if err := tr.Merge(other); err != nil {
					t.Fatal(err)
				}
			case 4:
				if err := tr.UnmarshalBinary(mustMarshal(t, tr)); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				checkDescents(t, tr, nil)
			case 5:
				clone := tr.Clone()
				checkDescents(t, clone, nil)
				clone.AddSamples(fuzzSamples(rng, 256))
				tr.AddSamples(fuzzSamples(rng, 256))
				if op&0x80 != 0 {
					tr = clone
				}
			}
		}
		if tr.Total() != tr.N() {
			t.Fatalf("Total %d != N %d", tr.Total(), tr.N())
		}
	})
}

// microZipf is the skewed stream the root BenchmarkTreeAddZipf times: a
// 64Ki-point Zipf(2^20, 1.2) table from seed 1, cycled by the caller. The
// levels, allocation and density gates read their counts on it, so a count
// and a benchmark row describe the same updates.
func microZipf() []uint64 {
	zipf := stats.NewZipf(stats.NewSplitMix64(1), 1<<20, 1.2)
	points := make([]uint64, 1<<16)
	for i := range points {
		points[i] = uint64(zipf.Rank())
	}
	return points
}

// replayStream is one of the replayed shapes the descent gates read: its
// events come from a fresh source per call, so a finite one (micro Zipf)
// can be cycled.
type replayStream struct {
	name string
	src  func() trace.Source
}

// replayStreams returns gzip load values, mcf load addresses, gcc code and
// the micro Zipf stream, each at seed 1.
func replayStreams(tb testing.TB, n int) []replayStream {
	bench := func(name string) workload.Benchmark {
		b, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	zipf := microZipf()
	return []replayStream{
		{"gzip-values", func() trace.Source { return bench("gzip").Values(1, uint64(n)) }},
		{"mcf-load-addresses", func() trace.Source {
			loads := bench("mcf").Loads(1, uint64(n))
			return trace.FuncSource(func() (uint64, bool) { return loads.Next().Addr, true })
		}},
		{"gcc-code", func() trace.Source { return bench("gcc").Code(1, uint64(n)) }},
		{"micro-zipf", func() trace.Source { return trace.NewSliceSource(zipf) }},
	}
}

// feedStream applies n events of s to tr through AddSamples in 256-event
// chunks, the shape a queue drain hands the tree.
func feedStream(tr *Tree, s replayStream, n int) {
	src := s.src()
	events := make([]trace.Event, 256)
	chunk := make([]Sample, 0, len(events))
	for fed := 0; fed < n; {
		k := trace.NextBatch(src, events[:min(len(events), n-fed)])
		if k == 0 { // a finite source (micro Zipf) cycles
			src = s.src()
			continue
		}
		chunk = chunk[:0]
		for _, e := range events[:k] {
			chunk = append(chunk, Sample{Value: e.Value, Weight: e.Weight})
		}
		tr.AddSamples(chunk)
		fed += k
	}
}

// TestDescentLevelsPerEvent is the deterministic gate on descent work. A
// root descent walks ~26 levels per gzip load value and ~31 per micro
// Zipf point at DefaultConfig; from the start table, an update walks only
// the few levels below its anchor. The flat rows skip the zero spine and
// the key's bits past it; the deep tier skips the long walks below that,
// which gzip's 0x12000xxxx band, mcf's addresses and gcc's code each take
// from one row. The counts repeat exactly on any machine, so unlike a
// nanosecond baseline this catches a descent that silently went back to
// the root, a key that got narrower or a tier that stayed off. Every
// stream also bounds the table's own footprint: rows only for the spine
// lengths a stream uses, and the 16 KiB tier only once a row turns it on,
// which the micro Zipf stream, whose walks are short, never does.
func TestDescentLevelsPerEvent(t *testing.T) {
	const n = 1_000_000
	bounds := map[string]struct {
		maxLevels float64
		maxBytes  int
		tier      bool // whether a row turns its tier on
	}{
		"gzip-values":        {0.7, 88 << 10, true},
		"mcf-load-addresses": {4.1, 22 << 10, true},
		"gcc-code":           {1.0, 22 << 10, true},
		"micro-zipf":         {1, 28 << 10, false},
	}
	for _, s := range replayStreams(t, n) {
		t.Run(s.name, func(t *testing.T) {
			tc := bounds[s.name]
			tr := MustNew(DefaultConfig())
			feedStream(tr, s, n)
			st := tr.Stats()
			levels := float64(st.DescentLevels) / n
			t.Logf("%s: %.2f levels/event, start table %d B", s.name, levels, st.StartTableBytes)
			if levels > tc.maxLevels {
				t.Errorf("%s walked %.2f levels/event, want <= %g", s.name, levels, tc.maxLevels)
			}
			if st.StartTableBytes > tc.maxBytes {
				t.Errorf("%s start table holds %d B, want <= %d", s.name, st.StartTableBytes, tc.maxBytes)
			}
			if on := tr.start.tier != nil; on != tc.tier {
				t.Errorf("%s deep tier allocated: %v, want %v", s.name, on, tc.tier)
			}
		})
	}
}

// TestSnapshotBytesPinned pins the snapshot bytes of 1M events of each
// replayed shape. The start table only picks where a descent begins, never
// where it ends, so no change to it may move a byte; the sums were taken
// from the tree before the table had a deep tier.
func TestSnapshotBytesPinned(t *testing.T) {
	const n = 1_000_000
	want := map[string]string{
		"gzip-values":        "f9e6bb3d475da2c1bfdfcb8eb681326704208774d510f4150675d0b2d3ea18f7",
		"mcf-load-addresses": "cefb197926756cd1df56aeff6aad4b0f5ed64e1b5afff93487b20f4dffce739a",
		"gcc-code":           "4637a13a56e42032c7d9d86f53ccce5316af17f3f8a7990264d475e71a0fc54d",
	}
	for _, s := range replayStreams(t, n) {
		sum, ok := want[s.name]
		if !ok {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			tr := MustNew(DefaultConfig())
			feedStream(tr, s, n)
			got := sha256.Sum256(mustMarshal(t, tr))
			if hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s snapshot sha256 %x, want %s", s.name, got, sum)
			}
		})
	}
}

// TestAddAllocations is the deterministic gate on per-event allocation. A
// fresh tree fed 2M events of the micro Zipf stream allocates only as its
// slab and start table grow (~110 times), and a warmed tree's Add
// allocates nothing. One allocation per event anywhere on the update path
// fails both, on any machine.
func TestAddAllocations(t *testing.T) {
	const n = 2_000_000
	points := microZipf()
	mask := len(points) - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := MustNew(DefaultConfig())
	for i := 0; i < n; i++ {
		tr.Add(points[i&mask])
	}
	runtime.ReadMemStats(&after)
	grow := after.Mallocs - before.Mallocs
	t.Logf("fresh tree: %d allocations in %d events", grow, n)
	if grow > 600 {
		t.Errorf("a fresh tree allocated %d times in %d events, want <= 600", grow, n)
	}
	i := 0
	if allocs := testing.AllocsPerRun(10_000, func() {
		tr.Add(points[i&mask])
		i++
	}); allocs != 0 {
		t.Fatalf("a warmed tree's Add allocated %v times per call", allocs)
	}
}
