package core

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// noStructure returns a config whose thresholds keep the tree a single
// root node: counter behavior can then be observed without splits or
// merges moving counts around.
func noStructure() Config {
	cfg := testConfig(32, 4, 0.05)
	cfg.MinSplitCount = 1 << 62
	cfg.FirstMerge = 1 << 62
	return cfg
}

// checkSpills requires every live counter of tr to be spilled exactly
// when the layout says it must be: always on a wide tree, and on an
// inline tree exactly when its value has reached 2^31 (values never
// shrink short of a wrap, which these streams stay far from). Each
// spilled counter must name its own in-range slot.
func checkSpills(tb testing.TB, tr *Tree) {
	tb.Helper()
	owner := make(map[uint32]uint32)
	var visit func(vi uint32)
	visit = func(vi uint32) {
		v := &tr.arena[vi]
		spilled := v.count&spillBit != 0
		if want := tr.wideCounters || tr.count(vi) >= spillBit; spilled != want {
			tb.Fatalf("slot %d: count %d spilled=%v, want %v", vi, tr.count(vi), spilled, want)
		}
		if spilled {
			s := v.count &^ spillBit
			if int(s) >= len(tr.spill) {
				tb.Fatalf("slot %d names spill slot %d of %d", vi, s, len(tr.spill))
			}
			if o, dup := owner[s]; dup {
				tb.Fatalf("slots %d and %d share spill slot %d", o, vi, s)
			}
			owner[s] = vi
		}
		if v.childBase == nilIdx {
			return
		}
		for i := 0; i < tr.fanout(v.plen); i++ {
			if ci := v.childBase + uint32(i); !tr.arena[ci].dead {
				visit(ci)
			}
		}
	}
	visit(0)
}

// TestNodeIs12Bytes pins the node layout: the count word, the children
// base and four bytes of geometry and flags.
func TestNodeIs12Bytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 12 {
		t.Fatalf("node is %d bytes, want 12", got)
	}
}

// TestCounterPromotionLadder walks one counter through its single
// promotion, the spill at 2^31, and on past 2^32, checking the value
// stays exact and the counter leaves its node exactly at the boundary.
func TestCounterPromotionLadder(t *testing.T) {
	tr := MustNew(noStructure())
	max := ^uint64(0) >> (64 - 32)

	step := func(add, wantTotal uint64, wantSpilled bool) {
		t.Helper()
		tr.AddN(0, add)
		if got := tr.Estimate(0, max); got != wantTotal {
			t.Fatalf("after +%d: total %d, want %d", add, got, wantTotal)
		}
		wantSlots := 0
		if wantSpilled {
			wantSlots = 1
		}
		if spilled := tr.arena[0].count&spillBit != 0; spilled != wantSpilled || len(tr.spill) != wantSlots {
			t.Fatalf("after +%d: spilled=%v with %d slots, want %v with %d",
				add, spilled, len(tr.spill), wantSpilled, wantSlots)
		}
	}

	step(math.MaxUint32>>1, math.MaxUint32>>1, false) // 2^31-1 fits inline
	step(1, 1<<31, true)                              // reaching 2^31 spills
	step(1<<31-1, math.MaxUint32, true)               // 2^32-1 in the same slot
	step(1, 1<<32, true)                              // past 32 bits, same slot

	// One weighted add can carry a fresh counter past 2^32 at once.
	jump := MustNew(noStructure())
	jump.AddN(0, 1<<40)
	if got := jump.count(0); got != 1<<40 || len(jump.spill) != 1 {
		t.Fatalf("jump add: count %d with %d spill slots", got, len(jump.spill))
	}
}

// TestNewWidePinsCounters: the reference layout spills every counter from
// birth, so after a merge batch its spill slab holds one 8-byte cell per
// live node.
func TestNewWidePinsCounters(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	tr, err := NewWide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		tr.Add(uint64(i % 997))
	}
	checkSpills(t, tr)
	tr.MergeNow()
	checkSpills(t, tr)
	if len(tr.spill) != tr.nodes || cap(tr.spill) != tr.nodes {
		t.Fatalf("wide tree spill len %d cap %d, nodes %d", len(tr.spill), cap(tr.spill), tr.nodes)
	}
	if st := tr.Stats(); st.ArenaBytes < 20*st.Nodes {
		t.Fatalf("wide arena %d B below 20 B/node over %d nodes", st.ArenaBytes, st.Nodes)
	}
}

// TestPackedDensityBeatsWide: on a skewed stream the inline layout must
// use strictly less backing store than the wide reference for the same
// logical tree.
func TestPackedDensityBeatsWide(t *testing.T) {
	cfg := testConfig(32, 4, 0.05)
	cfg.FirstMerge = 256
	inline := MustNew(cfg)
	wide, _ := NewWide(cfg)
	zipfLike := func(i int) uint64 { return uint64(i*i) % (1 << 20) }
	for i := 0; i < 100_000; i++ {
		p := zipfLike(i)
		inline.Add(p)
		wide.Add(p)
	}
	ps, ws := inline.Stats(), wide.Stats()
	if ps.Nodes != ws.Nodes {
		t.Fatalf("structures diverged: %d vs %d nodes", ps.Nodes, ws.Nodes)
	}
	if ps.ArenaBytes >= ws.ArenaBytes {
		t.Fatalf("inline arena %d B not denser than wide arena %d B",
			ps.ArenaBytes, ws.ArenaBytes)
	}
}

// TestMicroZipfDensity is the deterministic gate on counter storage. On
// 2M events of the micro Zipf stream at DefaultConfig, the inline layout
// must hold at most 13.73 B per live node (10% over the 12.48 it reads)
// and its arena must be at least 1.5× smaller than the 64-bit reference
// layout's (1.89× measured), while the two answer every probe and
// serialize byte for byte alike.
func TestMicroZipfDensity(t *testing.T) {
	const n = 2_000_000
	points := microZipf()
	inline := MustNew(DefaultConfig())
	wide, err := NewWide(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := points[i&(len(points)-1)]
		inline.Add(p)
		wide.Add(p)
	}
	ps, ws := inline.Stats(), wide.Stats()
	perNode := float64(ps.ArenaBytes) / float64(ps.Nodes)
	gain := float64(ws.ArenaBytes) / float64(ps.ArenaBytes)
	t.Logf("inline %d B / %d nodes = %.2f B/node; wide %d B; gain %.2fx",
		ps.ArenaBytes, ps.Nodes, perNode, ws.ArenaBytes, gain)
	if perNode > 13.73 {
		t.Errorf("inline arena %.2f B/node, want <= 13.73", perNode)
	}
	if gain < 1.5 {
		t.Errorf("wide/inline arena %.2fx, want >= 1.5", gain)
	}
	for _, q := range [][2]uint64{
		{0, 1<<20 - 1}, {0, 255}, {1 << 10, 1 << 14}, {1 << 19, 1<<20 - 1}, {7, 7},
	} {
		pl, ph := inline.EstimateBounds(q[0], q[1])
		wl, wh := wide.EstimateBounds(q[0], q[1])
		if pl != wl || ph != wh {
			t.Errorf("[%d,%d]: inline bounds [%d,%d], wide [%d,%d]", q[0], q[1], pl, ph, wl, wh)
		}
	}
	a, err := inline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("inline and wide snapshots differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestCloneDeepCopiesPool: a clone's counters, inline and spilled, are
// independent storage; the donor's later adds to a spilled counter and
// its later spills must not show through. This is the invariant epoch
// publication relies on.
func TestCloneDeepCopiesPool(t *testing.T) {
	tr := MustNew(noStructure())
	tr.AddN(7, 1<<31+250)
	cl := tr.Clone()
	tr.AddN(7, 1000) // an in-place add to the donor's spilled counter
	if got := cl.Estimate(0, ^uint64(0)>>32); got != 1<<31+250 {
		t.Fatalf("clone sees donor mutation: %d, want %d", got, uint64(1<<31+250))
	}
	if got := tr.Estimate(0, ^uint64(0)>>32); got != 1<<31+1250 {
		t.Fatalf("donor count %d, want %d", got, uint64(1<<31+1250))
	}

	// A donor spill after the clone appends to the donor's slab only.
	small := MustNew(noStructure())
	small.AddN(7, 5)
	cl = small.Clone()
	small.AddN(7, 1<<32)
	if got := cl.count(0); got != 5 || len(cl.spill) != 0 {
		t.Fatalf("clone count %d with %d spill slots, want 5 and none", got, len(cl.spill))
	}
	cl.AddN(7, 1<<33) // and the clone's own spill leaves the donor alone
	if got := small.count(0); got != 1<<32+5 {
		t.Fatalf("donor count %d after clone spilled, want %d", got, uint64(1<<32+5))
	}
}

// TestSetCountReallocatesOnClassChange: the decode path's setCount keeps
// a value below 2^31 inline, gives one at or above it a spill slot, and
// rewrites a spilled counter in its own slot.
func TestSetCountReallocatesOnClassChange(t *testing.T) {
	tr := MustNew(noStructure())
	tr.setCount(0, 100)
	if tr.arena[0].count != 100 || len(tr.spill) != 0 {
		t.Fatalf("narrow set: word %#x, %d spill slots", tr.arena[0].count, len(tr.spill))
	}
	tr.setCount(0, 1<<40)
	tr.setCount(0, 1<<31)
	if len(tr.spill) != 1 || tr.count(0) != 1<<31 {
		t.Fatalf("spilled sets: count %d, %d spill slots", tr.count(0), len(tr.spill))
	}
	tr.setCount(0, 9)
	if tr.arena[0].count != 9 {
		t.Fatalf("set back below 2^31: word %#x", tr.arena[0].count)
	}
}

// TestDecodeSpilledCount: a snapshot counter at or above 2^31 decodes
// into a spill slot of an inline tree and answers and re-encodes exactly.
func TestDecodeSpilledCount(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	src, _ := NewWide(cfg)
	for i, w := range []uint64{1<<31 - 1, 1 << 31, 1<<32 + 3, 7} {
		src.AddN(uint64(i)<<12, w)
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tr := MustNew(cfg)
	if err := tr.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	checkSpills(t, tr)
	if len(tr.spill) == 0 {
		t.Fatal("no counter spilled on decode")
	}
	if tr.Total() != src.Total() || tr.Estimate(1<<12, 2<<12) != src.Estimate(1<<12, 2<<12) {
		t.Fatalf("decoded answers differ: total %d vs %d", tr.Total(), src.Total())
	}
	back, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("re-encoded snapshot differs")
	}
}

// TestCompactRebuildsPoolsDensely: after spill and fold churn plus a
// merge batch, the spill slab holds exactly the live spilled counters, in
// the node slab's DFS order.
func TestCompactRebuildsPoolsDensely(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	tr := MustNew(cfg)
	for i := 0; i < 50_000; i++ {
		w := uint64(1)
		if i%97 == 0 {
			w = 1<<30 + uint64(i)
		}
		tr.AddN(uint64(i*31)&0xffff, w)
	}
	tr.MergeNow()
	checkSpills(t, tr)
	live := 0
	for i := range tr.arena {
		if c := tr.arena[i].count; !tr.arena[i].dead && c&spillBit != 0 {
			if int(c&^spillBit) != live {
				t.Fatalf("slot %d names spill slot %d, want %d in slab order", i, c&^spillBit, live)
			}
			live++
		}
	}
	if live == 0 {
		t.Fatal("workload spilled no counters; test is vacuous")
	}
	if len(tr.spill) != live || cap(tr.spill) != live {
		t.Fatalf("spill slab len %d cap %d after compaction, %d live spilled counters",
			len(tr.spill), cap(tr.spill), live)
	}
}

// TestMergeBatchFoldsSpilledChild: a merge batch folds a child whose
// counter spilled into its parent exactly, and compaction drops the
// child's slot, leaving the inline tree equal to the wide reference.
func TestMergeBatchFoldsSpilledChild(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 1 << 62 // merge batches only when forced
	inline := MustNew(cfg)
	wide, _ := NewWide(cfg)
	var folded []uint64
	inline.SetHooks(&Hooks{Merge: func(e MergeEvent) {
		if e.Count >= spillBit {
			folded = append(folded, e.Count)
		}
	}})
	for _, a := range []struct{ p, w uint64 }{
		{0x1234, 1 << 33}, {0x8000, 1 << 31}, {0x8001, 1<<32 + 1}, {0x0042, 3},
		{0xc000, 1 << 50}, // lifts the merge threshold over every other counter
	} {
		inline.AddN(a.p, a.w)
		wide.AddN(a.p, a.w)
	}
	before := len(inline.spill)
	inline.MergeNow()
	wide.MergeNow()
	if len(folded) == 0 {
		t.Fatal("no spilled child was folded")
	}
	checkSpills(t, inline)
	if inline.Total() != inline.N() {
		t.Fatalf("fold lost mass: total %d, n %d", inline.Total(), inline.N())
	}
	ps, _ := inline.MarshalBinary()
	ws, _ := wide.MarshalBinary()
	if !bytes.Equal(ps, ws) {
		t.Fatal("inline and wide snapshots differ after folding spilled children")
	}
	if cap(inline.spill) >= before {
		t.Fatalf("compaction kept %d of %d spill slots after folding %d spilled children",
			cap(inline.spill), before, len(folded))
	}
}

// TestGraftOntoSpilledCounter: Merge adds a source counter onto a spilled
// destination counter in place, and spills an inline destination the sum
// carries past 2^31, in step with the wide reference.
func TestGraftOntoSpilledCounter(t *testing.T) {
	cfg := noStructure()
	dst, src := MustNew(cfg), MustNew(cfg)
	wdst, _ := NewWide(cfg)
	wsrc, _ := NewWide(cfg)
	for _, tr := range []*Tree{dst, wdst} {
		tr.AddN(9, 1<<31+1)
	}
	for _, tr := range []*Tree{src, wsrc} {
		tr.AddN(9, 1<<32)
	}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if err := wdst.Merge(wsrc); err != nil {
		t.Fatal(err)
	}
	if got := dst.count(0); got != 1<<32+1<<31+1 || len(dst.spill) != 1 {
		t.Fatalf("graft onto spilled counter: %d with %d slots", got, len(dst.spill))
	}

	// Two inline counters whose sum reaches 2^31.
	a, b := MustNew(cfg), MustNew(cfg)
	a.AddN(9, 1<<30)
	b.AddN(9, 1<<30)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	checkSpills(t, a)
	if got := a.count(0); got != 1<<31 {
		t.Fatalf("graft across 2^31: %d", got)
	}
	if got, want := dst.Total(), wdst.Total(); got != want {
		t.Fatalf("inline total %d, wide %d", got, want)
	}
}

// refuseThird is a test admitter refusing every third cold event.
type refuseThird struct{ calls int }

func (r *refuseThird) Admit(p uint64, weight uint64, plen int) bool {
	r.calls++
	return r.calls%3 != 0
}
func (r *refuseThird) Pulse(Stats)   {}
func (r *refuseThird) TreeReplaced() {}

// TestMassConservationWithAdmission: counted mass plus the unadmitted
// ledger reconstructs the offered weight exactly, across spills,
// merge-batch compaction, Clone, and snapshot restore. Refused weight
// never touches a counter but must never be forgotten either.
func TestMassConservationWithAdmission(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	tr := MustNew(cfg)
	tr.SetAdmitter(&refuseThird{})

	var offered uint64
	for i := 0; i < 30_000; i++ {
		w := uint64(i%900) + 1
		if i%1000 == 0 {
			w <<= 24 // drives counters across 2^31 and 2^32
		}
		tr.AddN(uint64(i*131)&0xffff, w)
		offered += w
	}
	conserve := func(stage string, x *Tree) {
		t.Helper()
		if x.N()+x.UnadmittedN() != offered {
			t.Fatalf("%s: N %d + unadmitted %d != offered %d",
				stage, x.N(), x.UnadmittedN(), offered)
		}
		if x.Total() != x.N() {
			t.Fatalf("%s: Total %d != N %d", stage, x.Total(), x.N())
		}
	}
	conserve("after ingest", tr)
	if len(tr.spill) == 0 {
		t.Fatal("workload spilled no counters; test is vacuous")
	}
	tr.MergeNow()
	conserve("after merge batch", tr)
	cl := tr.Clone()
	conserve("clone", cl)
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	conserve("restored", &back)
}

// TestPackedWideSnapshotIdentity: fed the same stream, the inline and
// wide layouts serialize to identical bytes — spilling changes
// representation, never values.
func TestPackedWideSnapshotIdentity(t *testing.T) {
	cfg := testConfig(32, 8, 0.02)
	cfg.FirstMerge = 128
	inline := MustNew(cfg)
	wide, _ := NewWide(cfg)
	for i := 0; i < 200_000; i++ {
		p := uint64(i*2654435761) >> 12
		w := uint64(i%300) + 1
		if i%5000 == 0 {
			w <<= 26 // some counters cross 2^31 and 2^32
		}
		inline.AddN(p, w)
		wide.AddN(p, w)
	}
	a, err := inline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("inline and wide snapshots differ: %d vs %d bytes", len(a), len(b))
	}
	// A restore of the wide snapshot into an inline tree spills only the
	// counters that need 64 bits.
	var back Tree
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	checkSpills(t, &back)
	if len(back.spill) == 0 || len(back.spill) >= back.nodes {
		t.Fatalf("restored tree spilled %d of %d counters", len(back.spill), back.nodes)
	}
	c, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restored snapshot differs from original")
	}
}

// TestMassSaturates is the backstop against wrapped mass: weight past
// 2^64-1 saturates the stream length, every counter, the unadmitted
// ledger and every sum a query takes, so no upper bound falls below the
// mass a tree holds. Before, AddN(1, 2^63), AddN(2, 2^63), AddN(3, 5) left
// N = 5 and bounds [0, 5] on [0, 10]. Both counter layouts run it: the
// inline tree spills the first big weight, the wide tree starts spilled.
func TestMassSaturates(t *testing.T) {
	const top = math.MaxUint64
	for _, wide := range []bool{false, true} {
		tr, err := newTree(DefaultConfig(), wide)
		if err != nil {
			t.Fatal(err)
		}
		tr.AddN(1, 1<<63)
		tr.AddN(2, 1<<63)
		tr.AddN(3, 5)
		check := func(when string, tr *Tree) {
			t.Helper()
			if tr.N() != top || tr.Total() != top {
				t.Errorf("wide=%v %s: N %d, Total %d, want both 2^64-1", wide, when, tr.N(), tr.Total())
			}
			for _, q := range [][2]uint64{{0, top}, {0, 10}} {
				low, high := tr.EstimateBounds(q[0], q[1])
				if est := tr.Estimate(q[0], q[1]); high != top || low > high || est > high {
					t.Errorf("wide=%v %s: [%d, %#x] reads Estimate %d, bounds [%d, %d], want the upper bound 2^64-1 and no more below it",
						wide, when, q[0], q[1], est, low, high)
				}
			}
		}
		check("after the three adds", tr)

		// A saturated tree has no further merge point: updates after it
		// do not each run a merge batch.
		batches := tr.Stats().MergeBatches
		for p := range uint64(100) {
			tr.AddN(p, 1)
		}
		if got := tr.Stats().MergeBatches; got != batches {
			t.Errorf("wide=%v: 100 updates past saturation ran %d merge batches", wide, got-batches)
		}

		other := MustNew(DefaultConfig())
		other.AddN(2, top)
		if err := tr.Merge(other); err != nil {
			t.Fatal(err)
		}
		check("after a Merge", tr)
		if err := tr.UnmarshalBinary(mustMarshal(t, tr)); err != nil {
			t.Fatal(err)
		}
		check("after a snapshot round trip", tr)
	}

	// Refused weight saturates the ledger, alone and through Merge.
	refused := MustNew(DefaultConfig())
	refused.SetAdmitter(&denyAll{})
	refused.AddN(1, 1<<63)
	refused.AddN(2, 1<<63)
	if got := refused.UnadmittedN(); got != top {
		t.Errorf("unadmitted %d, want 2^64-1", got)
	}
	if _, high := refused.EstimateBounds(0, 10); high != top {
		t.Errorf("upper bound %d with a saturated ledger, want 2^64-1", high)
	}
	sum := MustNew(DefaultConfig())
	sum.AddN(1, 7)
	if err := sum.Merge(refused); err != nil {
		t.Fatal(err)
	}
	if err := sum.Merge(refused); err != nil {
		t.Fatal(err)
	}
	if got := sum.UnadmittedN(); got != top {
		t.Errorf("merged unadmitted %d, want 2^64-1", got)
	}
}
