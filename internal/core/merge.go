package core

import "errors"

// Merge: structural union of two RAP trees, the aggregation primitive the
// sharded engine (internal/shard) is built on. Per-shard trees are each a
// valid RAP summary of the slice of the stream they saw; Merge folds one
// into another so queries can run over a single combined view.
//
// Why the paper's guarantee survives: in each input tree, the events of
// any range R that are *missing* from R's subtree were credited to
// ancestors that straddle R, and the paper bounds that loss by ε·n_i
// (Section 2.2). Merge only ever adds counts at the same (lo, plen)
// position they occupied in the source tree — no count moves relative to
// the range hierarchy — so the merged tree's estimate for R misses at
// most ε·n_1 + ε·n_2 = ε·(n_1+n_2) events. The summed lower bounds are a
// lower bound for the summed stream, with the error budget of the
// combined stream length.

// ErrConfigMismatch is returned by Merge when the two trees were built
// with different configurations; their thresholds and geometry would not
// agree, so their union has no single guarantee.
var ErrConfigMismatch = errors.New("core: merge requires trees with identical configurations")

// ErrSelfMerge is returned by Merge when a tree is merged into itself.
var ErrSelfMerge = errors.New("core: cannot merge a tree into itself")

// Merge folds other into t: counts of coincident ranges add, ranges that
// exist in only one tree are united in (nodes missing from t are created),
// and the stream lengths sum; like every mass sum in the tree, these
// saturate at 2^64-1 instead of wrapping. other is read but never
// modified, so a caller may merge a live shard tree while holding only
// that shard's lock.
//
// After the union, every node is re-checked against the split threshold at
// the combined n — ranges that were hot in neither half but are hot in the
// union sprout children so subsequent updates keep refining them — and the
// merge schedule is advanced to the larger of the two intervals. Merge
// does not run a merge batch; call MergeNow (or Finalize) to compact the
// result.
func (t *Tree) Merge(other *Tree) error {
	if other == nil {
		return nil
	}
	if t == other {
		return ErrSelfMerge
	}
	if t.cfg != other.cfg {
		return ErrConfigMismatch
	}
	t.graft(0, other, 0)
	t.clearStart()
	t.n = addSat(t.n, other.n) // n never falls, so splitAt stays a bound
	t.unadmitted = addSat(t.unadmitted, other.unadmitted)
	t.splits += other.splits
	t.merges += other.merges
	t.mergeBatches += other.mergeBatches
	t.descentLevels += other.descentLevels
	if t.nodes > t.maxNodes {
		t.maxNodes = t.nodes
	}
	// Keep the later merge schedule of the two so a freshly merged view
	// does not immediately re-enter the geometric ramp-up phase.
	if other.mergeInterval > t.mergeInterval {
		t.mergeInterval = other.mergeInterval
	}
	if next := addSat(t.n, t.mergeInterval); next > t.nextMerge {
		t.nextMerge = next
	}
	t.resplit(0, 0)
	return nil
}

// graft adds src's subtree rooted at slot si into t's subtree rooted at
// slot di. The two slots cover the same (lo, plen) range by construction:
// both trees share a Config, so child slot i of a node at plen covers the
// same subrange in either tree. Nodes present only in src are recreated in
// t's own arena, never aliased, so the source tree stays independent.
// graft allocates into t's arena (which may move it) but only reads src's,
// so t's nodes are addressed by slot and re-derived per access while src's
// header can be held.
func (t *Tree) graft(di uint32, src *Tree, si uint32) {
	s := &src.arena[si]
	if c := src.count(si); c != 0 {
		t.addCount(di, c)
	}
	if s.childBase == nilIdx {
		return
	}
	fan := t.fanout(s.plen)
	if t.arena[di].childBase == nilIdx {
		base := t.allocBlock(fan)
		t.arena[di].childBase = base
		t.setChildGeometry(di)
	}
	cplen := s.plen + uint8(t.childStride(s.plen))
	for i := 0; i < fan; i++ {
		if src.arena[s.childBase+uint32(i)].dead {
			continue
		}
		dci := t.arena[di].childBase + uint32(i)
		if t.arena[dci].dead {
			t.arena[dci] = node{count: t.newCount(0), childBase: nilIdx, plen: cplen}
			t.nodes++
		}
		t.graft(dci, src, s.childBase+uint32(i))
	}
}

// resplit applies the post-merge split re-check: any node whose counter
// now exceeds the split threshold at the combined n, and which could still
// sprout children (a leaf, or a node with merge holes), splits exactly as
// it would have on the update path.
func (t *Tree) resplit(vi uint32, lo uint64) {
	v := &t.arena[vi]
	if float64(t.count(vi)) > t.SplitThreshold() && int(v.plen) < t.cfg.UniverseBits {
		if v.childBase == nilIdx || t.hasHole(vi) {
			t.split(vi, lo) // may move the arena; v is dead after
		}
	}
	cb := t.arena[vi].childBase
	if cb == nilIdx {
		return
	}
	plen := t.arena[vi].plen
	fan := t.fanout(plen)
	for i := 0; i < fan; i++ {
		if !t.arena[cb+uint32(i)].dead {
			clo, _ := t.childBounds(lo, plen, i)
			t.resplit(cb+uint32(i), clo)
		}
	}
}

// Clone returns a deep copy of the tree sharing no storage with t: one
// slab copy of the arena, copies of the freelists, and a copy of the
// spill slab, preserving the donor's layout (slots and spill references
// mean the same thing in both trees) and its slab capacities, so the copy
// reports the donor's ArenaBytes. The spill copy is load-bearing for
// epoch publication: an aliased slab would let the writer's adds to
// spilled counters race readers of the published snapshot. Hooks and the
// event tap are not carried over: a clone is a passive snapshot.
func (t *Tree) Clone() *Tree { return t.CloneInto(nil) }

// CloneInto makes dst the Clone of t, copying into dst's slabs wherever
// they hold t's capacity, and returns it; a nil dst allocates a new tree.
// The result equals t.Clone() in everything but storage, and shares none
// with t. Epoch publication copies each cut into the tree of a retired
// epoch this way, so a cut allocates nothing once the slabs fit. dst must
// not be t, and nothing else may read or write dst during or after the
// call: its old contents are gone.
func (t *Tree) CloneInto(dst *Tree) *Tree {
	if dst == nil {
		dst = new(Tree)
	}
	arena, spill, free := dst.arena, dst.spill, dst.free
	*dst = *t
	dst.hooks = nil
	dst.tap = nil
	dst.adm = nil // the clone is a passive snapshot; it keeps the unadmitted ledger
	// A shared table would let a clone that writes plant its slot indices
	// in the donor's; a clone that descends builds its own.
	dst.start = nil
	dst.arena = copySlab(arena, t.arena)
	dst.spill = copySlab(spill, t.spill)
	for k, fl := range t.free {
		dst.free[k] = append(free[k][:0], fl...)
	}
	return dst
}

// copySlab copies src into dst's storage when it can hold cap(src), and
// into a new slab otherwise. The copy has src's length and capacity; an
// empty src lets dst's storage go.
func copySlab[T any](dst, src []T) []T {
	if cap(dst) < cap(src) || cap(src) == 0 {
		dst = make([]T, len(src), cap(src))
	}
	dst = dst[:len(src):cap(src)]
	copy(dst, src)
	return dst
}
