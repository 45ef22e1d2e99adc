package core

// Batched ingest fast path. The paper's workloads (gzip, gcc value and
// address streams, Section 4) are strongly local: consecutive events tend
// to land in the same leaf range. The batch entry points exploit that with
// a one-entry last-leaf cache — when the next event is covered by the leaf
// the previous event landed in, the root-to-leaf descent is skipped
// entirely. Queue drains (internal/ingest) and the sharded engine hand
// the tree chunks through these entry points instead of one event at a
// time.

// Sample is one weighted event of a batch: the shape queue drains hand the
// tree (a trace.Event without the package dependency).
type Sample struct {
	Value  uint64
	Weight uint64
}

// AddBatch records every point in order. It is equivalent — estimate for
// estimate and snapshot byte for byte — to calling Add on each point
// sequentially; the only difference is speed: points covered by the leaf
// the previous point landed in skip the descent via the last-leaf cache.
func (t *Tree) AddBatch(points []uint64) {
	for _, p := range points {
		t.addCached(p, 1)
	}
}

// AddSamples records a chunk of weighted events in order, one AddN-style
// update per sample. It is equivalent to calling AddN(s.Value, s.Weight)
// for each sample sequentially, sharing AddBatch's last-leaf cache.
func (t *Tree) AddSamples(samples []Sample) {
	for _, s := range samples {
		if s.Weight == 0 {
			continue
		}
		t.addCached(s.Value, s.Weight)
	}
}

// AddSorted records an ascending pre-sorted chunk of points, coalescing
// each run of equal values into one weighted update. It is equivalent to
// calling AddN(value, runLength) per distinct value in order — the
// coalesced-update semantics of the hardware stage-0 buffer — not to
// per-point Add: a run's whole weight is credited to the range that was
// smallest when the run began. Sorting a chunk before ingest trades that
// (bounded, AddN-style) reordering for maximal last-leaf cache locality.
func (t *Tree) AddSorted(points []uint64) {
	for i := 0; i < len(points); {
		j := i + 1
		for j < len(points) && points[j] == points[i] {
			j++
		}
		t.addCached(points[i], uint64(j-i))
		i = j
	}
}

// addCached is AddN with the last-leaf cache consulted before the descent.
// The cache is revalidated on every use: the slot must still be live (a
// freed slot carries the dead mark, see node.go), still a leaf, and still
// cover p. Nodes no longer store their range start, so the covering check
// runs against the bounds the cache recorded when it was filled
// (lastLo/lastHi); those stay truthful because nothing short of a
// structural rewrite can change which node a live slot holds, and every
// such rewrite drops the cache. Any live leaf covering p is the unique
// smallest live node covering p — its ancestors are live too, so the root
// descent would reach exactly it — which makes a validated hit always
// safe to credit. Structural rewrites that detach nodes wholesale (merge
// batches, Merge, Restore, Clone) drop the cache — see
// invalidateLeafCache.
func (t *Tree) addCached(p uint64, weight uint64) {
	p &= t.mask
	if t.tap != nil {
		t.tap.Tap(p, weight)
	}
	vi := t.lastLeaf
	if arena := t.arena; vi >= uint32(len(arena)) || arena[vi].dead ||
		arena[vi].childBase != nilIdx || p < t.lastLo || p > t.lastHi {
		vi = t.descend(p)
		if v := &t.arena[vi]; v.childBase == nilIdx {
			t.lastLeaf = vi
			t.lastLo = prefixOf(p, v.plen, t.cfg.UniverseBits)
			t.lastHi = rangeHi(t.lastLo, v.plen, t.cfg.UniverseBits)
		}
	}
	if t.adm != nil && !t.adm.Admit(p, weight, int(t.arena[vi].plen)) {
		t.unadmitted += weight
		return
	}
	t.n += weight
	t.credit(vi, p, weight)
}

// invalidateLeafCache drops the last-leaf cache. Every operation that can
// fold the cached leaf away or swap the node store wholesale calls it:
// merge batches (the leaf may be merged into its parent), Merge (the
// grafted union re-splits), and snapshot restore (a fresh tree replaces
// the store). The dead-slot marking already makes a stale index fail
// validation; dropping the cache keeps those sites from even consulting
// an entry known to be suspect.
func (t *Tree) invalidateLeafCache() { t.lastLeaf = nilIdx }
