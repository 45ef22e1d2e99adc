package core

import "sort"

// Query paths are read-only: the arena cannot move under them, so holding
// a *node across recursion is safe here (unlike the mutation paths, which
// must re-derive pointers after any allocation). Nodes do not store their
// range start; every walk derives child bounds from the parent's exactly
// as splits do, starting from the root's (0, 0).

// NodeInfo describes one live node of the tree to external observers.
type NodeInfo struct {
	Lo, Hi uint64 // inclusive range covered
	Count  uint64 // events credited to this node while it was smallest
	Depth  int    // split steps below the root
	Leaf   bool   // no live children
}

// Walk visits every live node in preorder (parent before children,
// children in range order), calling fn for each. Walk stops early if fn
// returns false.
func (t *Tree) Walk(fn func(NodeInfo) bool) {
	t.walk(0, 0, 0, fn)
}

func (t *Tree) walk(vi uint32, lo uint64, depth int, fn func(NodeInfo) bool) bool {
	if !fn(t.info(vi, lo, depth)) {
		return false
	}
	v := &t.arena[vi]
	if v.childBase == nilIdx {
		return true
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		ci := v.childBase + uint32(i)
		if t.arena[ci].dead {
			continue
		}
		clo, _ := t.childBounds(lo, v.plen, i)
		if !t.walk(ci, clo, depth+1, fn) {
			return false
		}
	}
	return true
}

func (t *Tree) info(vi uint32, lo uint64, depth int) NodeInfo {
	v := &t.arena[vi]
	return NodeInfo{
		Lo:    lo,
		Hi:    rangeHi(lo, v.plen, t.cfg.UniverseBits),
		Count: t.count(vi),
		Depth: depth,
		Leaf:  v.isLeaf(),
	}
}

// subtreeSum returns the total count stored in the subtree at slot vi: the
// tree's estimate for the number of events that fell in its range.
func (t *Tree) subtreeSum(vi uint32) uint64 {
	v := &t.arena[vi]
	s := t.count(vi)
	if v.childBase == nilIdx {
		return s
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		ci := v.childBase + uint32(i)
		if !t.arena[ci].dead {
			s = addSat(s, t.subtreeSum(ci))
		}
	}
	return s
}

// Estimate returns the tree's estimate for the number of events in
// [lo, hi] (inclusive): the summed counts of all nodes whose range lies
// entirely inside the query. By construction this is a lower bound on the
// true count (Section 4.3: "the counts for a range in the tree is always a
// lower bound on the actual count").
func (t *Tree) Estimate(lo, hi uint64) uint64 {
	if lo > hi {
		return 0
	}
	low, _ := t.estimate(0, 0, lo&t.mask, hi&t.mask)
	return low
}

// EstimateBounds returns both the lower-bound estimate for [lo, hi] and an
// upper bound obtained by additionally charging the counts of every node
// that merely overlaps the query (those events may or may not have fallen
// inside). Weight the admission gate refused was never credited anywhere,
// so any of it could have fallen inside the query: the whole unadmitted
// ledger is charged to the upper bound as well. The true count always lies
// in [low, high].
func (t *Tree) EstimateBounds(lo, hi uint64) (low, high uint64) {
	if lo > hi {
		return 0, 0
	}
	low, high = t.estimate(0, 0, lo&t.mask, hi&t.mask)
	return low, addSat(high, t.unadmitted)
}

func (t *Tree) estimate(vi uint32, vlo, lo, hi uint64) (low, high uint64) {
	v := &t.arena[vi]
	vhi := rangeHi(vlo, v.plen, t.cfg.UniverseBits)
	if vlo > hi || vhi < lo {
		return 0, 0
	}
	if lo <= vlo && vhi <= hi {
		s := t.subtreeSum(vi)
		return s, s
	}
	// Partial overlap: v's own count is ambiguous — those events landed
	// somewhere in v's range but we cannot tell which side of the query
	// boundary. Exclude from the lower bound, include in the upper.
	low, high = 0, t.count(vi)
	if v.childBase == nilIdx {
		return low, high
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		ci := v.childBase + uint32(i)
		if t.arena[ci].dead {
			continue
		}
		clo, _ := t.childBounds(vlo, v.plen, i)
		cl, ch := t.estimate(ci, clo, lo, hi)
		low, high = addSat(low, cl), addSat(high, ch)
	}
	return low, high
}

// HotRange is one range reported hot by HotRanges.
type HotRange struct {
	Lo, Hi uint64
	// Weight is the "hot weight" of Section 4.1: the count of the range
	// and all its non-hot sub-ranges, excluding hot descendants (which
	// are reported separately).
	Weight uint64
	// Frac is Weight relative to the total stream length.
	Frac float64
	// Depth is the node's depth in the tree.
	Depth int
}

// HotRanges reports every range whose hot weight is at least theta·n,
// using the recursive definition of Section 4.1: "a range is considered
// hot if and only if the total count for that range and all its non-hot
// sub-ranges is above a certain threshold". The result is sorted by Lo,
// ties broken widest range first. Because estimates are lower bounds, a
// reported range is guaranteed hot ("if RAP identifies a node as hot, then
// that node is guaranteed to be hot", Section 4.3).
func (t *Tree) HotRanges(theta float64) []HotRange {
	if t.n == 0 {
		return nil
	}
	cut := theta * float64(t.n)
	var out []HotRange
	t.hot(0, 0, 0, cut, &out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi > out[j].Hi
	})
	return out
}

// hot returns the residual (non-hot) weight of the subtree at slot vi
// (range start lo), appending hot ranges found within to out.
func (t *Tree) hot(vi uint32, lo uint64, depth int, cut float64, out *[]HotRange) uint64 {
	v := &t.arena[vi]
	w := t.count(vi)
	if v.childBase != nilIdx {
		fan := t.fanout(v.plen)
		for i := 0; i < fan; i++ {
			ci := v.childBase + uint32(i)
			if !t.arena[ci].dead {
				clo, _ := t.childBounds(lo, v.plen, i)
				w = addSat(w, t.hot(ci, clo, depth+1, cut, out))
			}
		}
	}
	if float64(w) >= cut {
		*out = append(*out, HotRange{
			Lo:     lo,
			Hi:     rangeHi(lo, v.plen, t.cfg.UniverseBits),
			Weight: w,
			Frac:   float64(w) / float64(t.n),
			Depth:  depth,
		})
		return 0
	}
	return w
}

// Total returns the summed counts over the whole tree, which always equals
// N: RAP merges data rather than sampling it, so no event is ever lost.
func (t *Tree) Total() uint64 { return t.subtreeSum(0) }
