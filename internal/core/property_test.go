package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests on the core invariants, driven by testing/quick.

func TestPropTotalConservation(t *testing.T) {
	f := func(points []uint64, seed int64) bool {
		cfg := testConfig(32, 4, 0.05)
		cfg.FirstMerge = 16
		tr := MustNew(cfg)
		var n uint64
		for _, p := range points {
			w := p%3 + 1 // mixed weights
			tr.AddN(p, w)
			n += w
		}
		return tr.N() == n && tr.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropLowerBound(t *testing.T) {
	f := func(points []uint16, a, b uint16) bool {
		cfg := testConfig(16, 4, 0.05)
		cfg.FirstMerge = 16
		tr := MustNew(cfg)
		ex := exact{}
		for _, p := range points {
			tr.Add(uint64(p))
			ex.add(uint64(p))
		}
		if a > b {
			a, b = b, a
		}
		truth := ex.rangeCount(uint64(a), uint64(b))
		low, high := tr.EstimateBounds(uint64(a), uint64(b))
		return low <= truth && truth <= high
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropNodeRangesNested(t *testing.T) {
	// Structural invariant: every child range is strictly inside its
	// parent range, siblings are disjoint, and all node counts sum to N.
	f := func(points []uint32) bool {
		cfg := testConfig(32, 4, 0.03)
		cfg.FirstMerge = 32
		tr := MustNew(cfg)
		for _, p := range points {
			tr.Add(uint64(p))
		}
		ok := true
		var check func(vi uint32, lo uint64)
		check = func(vi uint32, lo uint64) {
			v := &tr.arena[vi]
			vhi := rangeHi(lo, v.plen, 32)
			if v.childBase == nilIdx {
				return
			}
			fan := tr.fanout(v.plen)
			var prevHi uint64
			first := true
			for i := 0; i < fan; i++ {
				ci := v.childBase + uint32(i)
				c := &tr.arena[ci]
				if c.dead {
					continue
				}
				clo, cplen := tr.childBounds(lo, v.plen, i)
				if cplen != c.plen {
					ok = false // stored plen disagrees with derived geometry
				}
				chi := rangeHi(clo, c.plen, 32)
				if clo < lo || chi > vhi || (clo == lo && chi == vhi) {
					ok = false
				}
				if !first && clo <= prevHi {
					ok = false // overlap with previous sibling
				}
				prevHi, first = chi, false
				check(ci, clo)
			}
		}
		check(0, 0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropHotRangesDisjointWeights(t *testing.T) {
	// Hot weights partition a subset of the stream: they are individually
	// true lower bounds and never sum past N.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig(16, 4, 0.05)
		tr := MustNew(cfg)
		zipf := rand.NewZipf(rng, 1.1+rng.Float64(), 4, 1<<16-1)
		n := 5_000 + rng.Intn(20_000)
		for i := 0; i < n; i++ {
			tr.Add(zipf.Uint64())
		}
		theta := 0.02 + rng.Float64()*0.2
		var sum uint64
		for _, h := range tr.HotRanges(theta) {
			if float64(h.Weight) < theta*float64(tr.N()) {
				return false // reported below the cut
			}
			sum += h.Weight
		}
		return sum <= tr.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMarshalRoundTrip(t *testing.T) {
	f := func(points []uint32) bool {
		cfg := testConfig(32, 4, 0.05)
		cfg.FirstMerge = 32
		tr := MustNew(cfg)
		for _, p := range points {
			tr.Add(uint64(p))
		}
		data, err := tr.MarshalBinary()
		if err != nil {
			return false
		}
		var back Tree
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		// ArenaBytes is physical slab capacity, not logical state: a
		// restored tree allocates exactly what it needs while the live
		// tree carries growth slack. DescentLevels is ingest history,
		// which snapshots do not carry, and a restored tree has no start
		// table until it descends. All three are excluded from round-trip
		// equality.
		want, got := tr.Stats(), back.Stats()
		want.ArenaBytes, got.ArenaBytes = 0, 0
		want.DescentLevels, got.DescentLevels = 0, 0
		want.StartTableBytes, got.StartTableBytes = 0, 0
		return got == want && back.Total() == tr.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropChildGeometry(t *testing.T) {
	// childIndex / childBounds agree: for any point inside a node, the
	// child slot chosen by childIndex covers the point.
	f := func(p uint64, plenSeed uint8, bSeed uint8) bool {
		branches := []int{2, 4, 8, 16}
		b := branches[int(bSeed)%len(branches)]
		cfg := testConfig(64, b, 0.05)
		tr := MustNew(cfg)
		stride := tr.shift
		plen := (int(plenSeed) % cfg.Height()) * stride
		if plen >= 64 {
			plen = 64 - stride
		}
		vlo := p &^ suffixMask(64-plen)
		vhi := vlo | suffixMask(64-plen)
		idx := tr.childIndex(uint8(plen), p)
		lo, cplen := tr.childBounds(vlo, uint8(plen), idx)
		chi := lo | suffixMask(64-int(cplen))
		return lo <= p && p <= chi && lo >= vlo && chi <= vhi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixMask(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {4, 0xF}, {16, 0xFFFF}, {63, ^uint64(0) >> 1}, {64, ^uint64(0)}, {65, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := suffixMask(tc.k); got != tc.want {
			t.Errorf("suffixMask(%d) = %x, want %x", tc.k, got, tc.want)
		}
	}
}

func TestPropArenaAccounting(t *testing.T) {
	// Arena bookkeeping invariant: every slot of the slab except the root
	// belongs to exactly one children block, and every block is either
	// attached to exactly one live node or sits (all slots dead) on the
	// freelist for its size. The live-node count reached by traversal must
	// match the nodes counter, and no live node may carry the dead mark.
	f := func(points []uint16, extra []uint16) bool {
		cfg := testConfig(16, 4, 0.05)
		cfg.FirstMerge = 16
		tr := MustNew(cfg)
		for _, p := range points {
			tr.Add(uint64(p))
		}
		// A merge plus continued ingest exercises block free and reuse.
		tr.MergeNow()
		for _, p := range extra {
			tr.Add(uint64(p))
		}

		live := 0
		claimed := make(map[uint32]int) // block base -> fan
		ok := true
		var visit func(vi uint32)
		visit = func(vi uint32) {
			v := &tr.arena[vi]
			if v.dead {
				ok = false
				return
			}
			live++
			if v.childBase == nilIdx {
				return
			}
			fan := tr.fanout(v.plen)
			if _, dup := claimed[v.childBase]; dup {
				ok = false // two nodes share a children block
				return
			}
			claimed[v.childBase] = fan
			for i := 0; i < fan; i++ {
				if !tr.arena[v.childBase+uint32(i)].dead {
					visit(v.childBase + uint32(i))
				}
			}
		}
		visit(0)
		if !ok || live != tr.nodes {
			return false
		}
		checkSpills(t, tr)
		for k, fl := range tr.free {
			for _, base := range fl {
				if _, dup := claimed[base]; dup {
					return false // freelist block still attached to a node
				}
				claimed[base] = 1 << k
				for i := 0; i < 1<<k; i++ {
					if !tr.arena[base+uint32(i)].dead {
						return false // freed block holds a live slot
					}
				}
			}
		}
		slots := 1 // root
		for _, fan := range claimed {
			slots += fan
		}
		return slots == len(tr.arena)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
