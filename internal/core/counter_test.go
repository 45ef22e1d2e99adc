package core

import (
	"bytes"
	"math"
	"testing"
)

// noStructure returns a config whose thresholds keep the tree a single
// root node: counter behavior can then be observed without splits or
// merges moving counts around.
func noStructure() Config {
	cfg := testConfig(32, 4, 0.05)
	cfg.MinSplitCount = 1 << 40
	cfg.FirstMerge = 1 << 40
	return cfg
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint32
	}{
		{0, 0}, {1, 0}, {255, 0},
		{256, 1}, {65535, 1},
		{65536, 2}, {math.MaxUint32, 2},
		{math.MaxUint32 + 1, 3}, {math.MaxUint64, 3},
	}
	for _, tc := range cases {
		if got := classFor(tc.v); got != tc.want {
			t.Errorf("classFor(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestCounterPromotionLadder walks one counter up the full ladder through
// the exact overflow boundaries, checking the value stays exact and the
// occupancy/promotion stats track each step.
func TestCounterPromotionLadder(t *testing.T) {
	tr := MustNew(noStructure())
	max := ^uint64(0) >> (64 - 32)

	step := func(add, wantTotal uint64, wantPromotions uint64, want8, want16, want32, want64 int) {
		t.Helper()
		tr.AddN(0, add)
		if got := tr.Estimate(0, max); got != wantTotal {
			t.Fatalf("after +%d: total %d, want %d", add, got, wantTotal)
		}
		st := tr.Stats()
		if st.CounterPromotions != wantPromotions {
			t.Fatalf("after +%d: promotions %d, want %d", add, st.CounterPromotions, wantPromotions)
		}
		if st.CounterSlots8 != want8 || st.CounterSlots16 != want16 ||
			st.CounterSlots32 != want32 || st.CounterSlots64 != want64 {
			t.Fatalf("after +%d: slots (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				add, st.CounterSlots8, st.CounterSlots16, st.CounterSlots32, st.CounterSlots64,
				want8, want16, want32, want64)
		}
	}

	step(255, 255, 0, 1, 0, 0, 0)                             // fills the 8-bit slot exactly
	step(1, 256, 1, 0, 1, 0, 0)                               // 255 -> 256 crosses into 16 bits
	step(65535-256, 65535, 1, 0, 1, 0, 0)                     // fills 16 bits exactly
	step(1, 65536, 2, 0, 0, 1, 0)                             // crosses into 32 bits
	step(math.MaxUint32-65536, math.MaxUint32, 2, 0, 0, 1, 0) // fills 32 bits
	step(1, math.MaxUint32+1, 3, 0, 0, 0, 1)                  // crosses into 64 bits
}

// TestCounterPromotionSkipsClasses: a weighted update can overflow several
// classes at once; the target class is derived from the value, not
// ladder-adjacent.
func TestCounterPromotionSkipsClasses(t *testing.T) {
	tr := MustNew(noStructure())
	tr.AddN(0, 1<<20)
	st := tr.Stats()
	if st.CounterPromotions != 1 || st.CounterSlots32 != 1 || st.CounterSlots16 != 0 {
		t.Fatalf("stats after jump add: %+v", st)
	}

	tr2 := MustNew(noStructure())
	tr2.AddN(0, 1<<40)
	if st := tr2.Stats(); st.CounterPromotions != 1 || st.CounterSlots64 != 1 {
		t.Fatalf("stats after 64-bit jump add: %+v", st)
	}
}

// TestCounterPoolFreelistReuse: released slots are recycled before the
// slab grows, so promote/fold churn does not leak pool memory.
func TestCounterPoolFreelistReuse(t *testing.T) {
	var p counterPool
	a := p.alloc(0, 5)
	b := p.alloc(0, 9)
	if len(p.w8) != 2 {
		t.Fatalf("w8 len = %d, want 2", len(p.w8))
	}
	p.release(a)
	c := p.alloc(0, 7)
	if c != a {
		t.Fatalf("alloc after release returned %#x, want recycled %#x", c, a)
	}
	if p.value(c) != 7 || p.value(b) != 9 {
		t.Fatalf("values after reuse: %d, %d", p.value(c), p.value(b))
	}
	if len(p.w8) != 2 {
		t.Fatalf("w8 grew to %d despite free slot", len(p.w8))
	}
	if p.live(0) != 2 {
		t.Fatalf("live(0) = %d, want 2", p.live(0))
	}
}

// TestNewWidePinsCounters: the reference layout allocates every counter in
// the 64-bit class and never promotes — it is the pre-pool storage model.
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
	st := tr.Stats()
	if st.CounterSlots8 != 0 || st.CounterSlots16 != 0 || st.CounterSlots32 != 0 {
		t.Fatalf("wide tree has narrow counters: %+v", st)
	}
	if st.CounterSlots64 != st.Nodes {
		t.Fatalf("wide tree slots64 %d != nodes %d", st.CounterSlots64, st.Nodes)
	}
	if st.CounterPromotions != 0 {
		t.Fatalf("wide tree promoted %d times", st.CounterPromotions)
	}
	if st.CounterPoolBytes < 8*st.Nodes {
		t.Fatalf("wide pool bytes %d below 8 B/node", st.CounterPoolBytes)
	}
}

// TestPackedDensityBeatsWide: on a skewed stream the packed layout must
// use strictly less backing store than the wide reference for the same
// logical tree — the point of the whole exercise.
func TestPackedDensityBeatsWide(t *testing.T) {
	cfg := testConfig(32, 4, 0.05)
	cfg.FirstMerge = 256
	packed := MustNew(cfg)
	wide, _ := NewWide(cfg)
	zipfLike := func(i int) uint64 { return uint64(i*i) % (1 << 20) }
	for i := 0; i < 100_000; i++ {
		p := zipfLike(i)
		packed.Add(p)
		wide.Add(p)
	}
	ps, ws := packed.Stats(), wide.Stats()
	if ps.Nodes != ws.Nodes {
		t.Fatalf("structures diverged: %d vs %d nodes", ps.Nodes, ws.Nodes)
	}
	if ps.CounterPoolBytes >= ws.CounterPoolBytes {
		t.Fatalf("packed pool %d B not denser than wide pool %d B",
			ps.CounterPoolBytes, ws.CounterPoolBytes)
	}
}

// TestMicroZipfDensity is the deterministic gate on counter storage. On
// 2M events of the micro Zipf stream at DefaultConfig, the packed layout
// must hold at most 16.29 B per live node (10% over the 14.81 it reads)
// and its arena must be at least 1.5× smaller than the 64-bit reference
// layout's (1.59× measured), while the two answer every probe and
// serialize byte for byte alike.
func TestMicroZipfDensity(t *testing.T) {
	const n = 2_000_000
	points := microZipf()
	packed := MustNew(DefaultConfig())
	wide, err := NewWide(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := points[i&(len(points)-1)]
		packed.Add(p)
		wide.Add(p)
	}
	ps, ws := packed.Stats(), wide.Stats()
	perNode := float64(ps.ArenaBytes) / float64(ps.Nodes)
	gain := float64(ws.ArenaBytes) / float64(ps.ArenaBytes)
	t.Logf("packed %d B / %d nodes = %.2f B/node; wide %d B; gain %.2fx; pools %d < %d B; %d promotions",
		ps.ArenaBytes, ps.Nodes, perNode, ws.ArenaBytes, gain,
		ps.CounterPoolBytes, ws.CounterPoolBytes, ps.CounterPromotions)
	if perNode > 16.29 {
		t.Errorf("packed arena %.2f B/node, want <= 16.29", perNode)
	}
	if gain < 1.5 {
		t.Errorf("wide/packed arena %.2fx, want >= 1.5", gain)
	}
	if ps.CounterPoolBytes >= ws.CounterPoolBytes {
		t.Errorf("packed pool %d B not smaller than wide pool %d B", ps.CounterPoolBytes, ws.CounterPoolBytes)
	}
	if ps.CounterPromotions == 0 {
		t.Error("the stream promoted no counters")
	}
	if live := ps.CounterSlots8 + ps.CounterSlots16 + ps.CounterSlots32 + ps.CounterSlots64; live != ps.Nodes {
		t.Errorf("%d live counters for %d nodes", live, ps.Nodes)
	}
	for _, q := range [][2]uint64{
		{0, 1<<20 - 1}, {0, 255}, {1 << 10, 1 << 14}, {1 << 19, 1<<20 - 1}, {7, 7},
	} {
		pl, ph := packed.EstimateBounds(q[0], q[1])
		wl, wh := wide.EstimateBounds(q[0], q[1])
		if pl != wl || ph != wh {
			t.Errorf("[%d,%d]: packed bounds [%d,%d], wide [%d,%d]", q[0], q[1], pl, ph, wl, wh)
		}
	}
	a, err := packed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("packed and wide snapshots differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestCloneDeepCopiesPool: a clone's counters are independent storage; the
// donor's later increments and promotions must not show through. This is
// the invariant epoch publication relies on.
func TestCloneDeepCopiesPool(t *testing.T) {
	tr := MustNew(noStructure())
	tr.AddN(7, 250)
	cl := tr.Clone()
	tr.AddN(7, 1000) // promotes the donor's counter out of the 8-bit class
	if got := cl.Estimate(0, ^uint64(0)>>32); got != 250 {
		t.Fatalf("clone sees donor mutation: %d, want 250", got)
	}
	if st := cl.Stats(); st.CounterPromotions != 0 || st.CounterSlots8 != 1 {
		t.Fatalf("clone stats mutated: %+v", st)
	}
	if got := tr.Estimate(0, ^uint64(0)>>32); got != 1250 {
		t.Fatalf("donor count %d, want 1250", got)
	}
}

// TestSetCountReallocatesOnClassChange: the decode path's setCount reuses
// the slot when the class matches and reallocates when it does not.
func TestSetCountReallocatesOnClassChange(t *testing.T) {
	tr := MustNew(noStructure())
	tr.setCount(0, 100)
	if st := tr.Stats(); st.CounterSlots8 != 1 {
		t.Fatalf("stats after narrow set: %+v", st)
	}
	tr.setCount(0, 1<<20)
	if st := tr.Stats(); st.CounterSlots8 != 0 || st.CounterSlots32 != 1 {
		t.Fatalf("stats after wide set: %+v", st)
	}
	if tr.count(0) != 1<<20 {
		t.Fatalf("count = %d", tr.count(0))
	}
}

// TestCompactRebuildsPoolsDensely: after promote/fold churn plus a merge
// batch, the pools hold exactly the live counters with no freed slack.
func TestCompactRebuildsPoolsDensely(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	tr := MustNew(cfg)
	for i := 0; i < 50_000; i++ {
		tr.Add(uint64(i*31) & 0xffff)
	}
	tr.MergeNow()
	st := tr.Stats()
	liveBytes := st.CounterSlots8 + 2*st.CounterSlots16 + 4*st.CounterSlots32 + 8*st.CounterSlots64
	if st.CounterPoolBytes != liveBytes {
		t.Fatalf("pool bytes %d after compaction, live counters need %d",
			st.CounterPoolBytes, liveBytes)
	}
	if got := st.CounterSlots8 + st.CounterSlots16 + st.CounterSlots32 + st.CounterSlots64; got != st.Nodes {
		t.Fatalf("live counters %d != nodes %d", got, st.Nodes)
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
// ledger reconstructs the offered weight exactly, across promotions,
// merge-batch compaction, Clone, and snapshot restore. The ledger is the
// other half of the conservation story the pooled counters must not
// disturb: refused weight never touches a pool slot but must never be
// forgotten either.
func TestMassConservationWithAdmission(t *testing.T) {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	tr := MustNew(cfg)
	tr.SetAdmitter(&refuseThird{})

	var offered uint64
	for i := 0; i < 30_000; i++ {
		w := uint64(i%900) + 1 // drives counters across 255 and 65535
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
	if tr.Stats().CounterPromotions == 0 {
		t.Fatal("workload drove no promotions; test is vacuous")
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

// TestPackedWideSnapshotIdentity: fed the same stream, the packed and wide
// layouts serialize to identical bytes — promotion changes representation,
// never values, and the wire format materializes counters at full width.
func TestPackedWideSnapshotIdentity(t *testing.T) {
	cfg := testConfig(32, 8, 0.02)
	cfg.FirstMerge = 128
	packed := MustNew(cfg)
	wide, _ := NewWide(cfg)
	for i := 0; i < 200_000; i++ {
		p := uint64(i*2654435761) >> 12
		w := uint64(i%300) + 1 // weights drive counters across 255 and 65535
		packed.AddN(p, w)
		wide.AddN(p, w)
	}
	a, err := packed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("packed and wide snapshots differ: %d vs %d bytes", len(a), len(b))
	}
	// And a restore of the wide snapshot into a packed tree re-packs it.
	var back Tree
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	// Restore allocates every counter at its final narrowest class
	// directly (no promotion history) and is denser than 8 B/counter.
	if st := back.Stats(); st.CounterPromotions != 0 || st.CounterPoolBytes >= 8*st.Nodes {
		t.Fatalf("restored tree not packed at final classes: %+v", st)
	}
	c, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restored snapshot differs from original")
	}
}
