package core

import (
	"math"
	"math/bits"
	"time"
	"unsafe"
)

// Tree is a Range Adaptive Profiling tree: a one-pass, bounded-memory
// summary of a stream of uint64 events. Tree is not safe for concurrent
// use; profile from several goroutines through the sharded engine
// (internal/shard), which at one shard is a tree behind one lock.
type Tree struct {
	cfg    Config
	shift  int // log2(Branch)
	height int // H = max split steps root -> singleton
	mask   uint64

	// arena is the node slab: slot 0 is the root, children occupy
	// contiguous blocks (see node.go). free holds recycled children
	// blocks keyed by log2 of their size. spill holds the counters that
	// outgrew their node's 32-bit count word (see counter.go).
	arena []node
	free  [maxFreeLists][]uint32
	spill []uint64
	n     uint64 // events (total weight) processed

	// wideCounters spills every counter from birth, reproducing a 64-bit
	// counter layout exactly. NewWide sets it; the inline/wide
	// equivalence and density tests compare the two layouts on identical
	// streams.
	wideCounters bool

	nodes    int
	maxNodes int

	nextMerge     uint64
	mergeInterval uint64

	// operation statistics
	splits       uint64
	merges       uint64 // nodes folded away
	mergeBatches uint64

	// hooks, when non-nil, receives structural notifications (see
	// hooks.go). Checked only on cold paths; nil is the fast default.
	hooks *Hooks

	// tap, when non-nil, observes every event applied to the tree (see
	// tap.go). One nil check per update when absent.
	tap Tap

	// adm, when non-nil, gates events before they are credited (see
	// admitter.go). Refused weight accumulates in unadmitted instead of n.
	adm        Admitter
	unadmitted uint64

	// start is the descent start table (start.go), nil until the first
	// descent. descentLevels counts the child steps descents walked.
	start         *startTable
	descentLevels uint64

	// splitAt is a whole count no greater than SplitThreshold(), so a
	// count at or below it cannot split and only one above it needs the
	// float test. Each step of the threshold's float expression is
	// monotone in n, so a bound taken at one n holds at every larger n,
	// and n never falls: it saturates at 2^64-1 instead of wrapping.
	splitAt uint64
}

// Stats is a snapshot of the tree's bookkeeping counters.
type Stats struct {
	N            uint64 // total event weight credited to the tree
	UnadmittedN  uint64 // event weight refused by the admission gate
	Nodes        int    // live nodes (including the root)
	MaxNodes     int    // high-water mark of live nodes
	MemoryBytes  int    // Nodes * NodeBytes (the paper's 16 B/node model)
	ArenaBytes   int    // actual node-slab + spill-slab footprint (see Tree.ArenaBytes)
	Splits       uint64 // split operations performed
	Merges       uint64 // nodes folded into their parents
	MergeBatches uint64 // batched merge passes run
	Height       int    // maximum tree height H

	// StartTableBytes is the descent start table's footprint (start.go):
	// its rows, and its deep tier once a row turns it on. It is kept out
	// of ArenaBytes so that stays node storage; 0 until the first update.
	StartTableBytes int
	// DescentLevels counts the tree levels update descents walked below
	// their start anchor, a row slot or a deep-tier entry: a work counter,
	// which snapshots do not carry.
	DescentLevels uint64
}

// Add sums o's counters into s, for a view over several trees (the
// sharded engine's shards). Height is left alone: it is a property of the
// configuration, not a count. A new Stats field is summed here, or
// TestStatsSumsEveryShard (internal/shard) fails.
func (s *Stats) Add(o Stats) {
	s.N += o.N
	s.UnadmittedN += o.UnadmittedN
	s.Nodes += o.Nodes
	s.MaxNodes += o.MaxNodes
	s.MemoryBytes += o.MemoryBytes
	s.ArenaBytes += o.ArenaBytes
	s.Splits += o.Splits
	s.Merges += o.Merges
	s.MergeBatches += o.MergeBatches
	s.StartTableBytes += o.StartTableBytes
	s.DescentLevels += o.DescentLevels
}

// New builds an empty RAP tree (the rap_init of Section 3.2). The tree
// starts as a single counter covering the whole universe, the "one counter
// which counts all instructions" starting point of Section 2.
func New(cfg Config) (*Tree, error) { return newTree(cfg, false) }

// NewWide builds a RAP tree whose counters all live in the 64-bit spill
// slab from birth, the storage cost of a tree with 64-bit counters. It
// exists as the reference layout: fed the same stream, an inline tree and
// a wide tree must produce identical estimates and identical snapshot
// bytes (spilling changes representation, never values). Only tests build
// it: the equivalence fuzzer, the snapshot-identity and legacy decoding
// tests, and TestMicroZipfDensity, which requires the inline arena to be
// at least 1.5× smaller.
func NewWide(cfg Config) (*Tree, error) { return newTree(cfg, true) }

func newTree(cfg Config, wide bool) (*Tree, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:          cfg,
		shift:        bits.TrailingZeros(uint(cfg.Branch)),
		height:       cfg.Height(),
		mask:         suffixMask(cfg.UniverseBits),
		arena:        []node{{childBase: nilIdx}},
		wideCounters: wide,
		nodes:        1,
	}
	t.arena[0].count = t.newCount(0)
	t.maxNodes = 1
	if cfg.MergeEvery != 0 {
		t.mergeInterval = cfg.MergeEvery
	} else {
		t.mergeInterval = cfg.FirstMerge
	}
	t.nextMerge = t.mergeInterval
	return t, nil
}

// MustNew is New for configurations known to be valid; it panics on error.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the (normalized) configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// N returns the total event weight processed so far.
func (t *Tree) N() uint64 { return t.n }

// NodeCount returns the number of live nodes in the tree.
func (t *Tree) NodeCount() int { return t.nodes }

// MaxNodeCount returns the high-water mark of live nodes, the paper's
// "maximum memory" metric (Figure 7).
func (t *Tree) MaxNodeCount() int { return t.maxNodes }

// MemoryBytes returns the current memory footprint charged at the paper's
// 128 bits per node.
func (t *Tree) MemoryBytes() int { return t.nodes * NodeBytes }

// ArenaBytes returns the actual backing-store footprint of the profile:
// the node slab plus the spill slab, including slab slack and freed
// blocks awaiting reuse. It differs from MemoryBytes, which charges live
// nodes at the paper's accounting rate; ArenaBytes/Nodes is the real
// bytes-per-node density of the inline-counter layout.
func (t *Tree) ArenaBytes() int {
	return cap(t.arena)*int(unsafe.Sizeof(node{})) + cap(t.spill)*8
}

// Stats returns a snapshot of the tree's counters.
func (t *Tree) Stats() Stats {
	return Stats{
		N:            t.n,
		UnadmittedN:  t.unadmitted,
		Nodes:        t.nodes,
		MaxNodes:     t.maxNodes,
		MemoryBytes:  t.nodes * NodeBytes,
		ArenaBytes:   t.ArenaBytes(),
		Splits:       t.splits,
		Merges:       t.merges,
		MergeBatches: t.mergeBatches,
		Height:       t.height,

		StartTableBytes: t.startTableBytes(),
		DescentLevels:   t.descentLevels,
	}
}

// SplitThreshold returns the current split threshold ε·n/H (Section 2.2),
// floored at the cold-start guard MinSplitCount. Any node whose counter
// exceeds this value sprouts children on its next update.
func (t *Tree) SplitThreshold() float64 {
	thr := t.cfg.Epsilon * float64(t.n) / float64(t.height)
	if guard := float64(t.cfg.MinSplitCount); thr < guard {
		return guard
	}
	return thr
}

// mergeThreshold is the cutoff below which a childless node is folded into
// its parent during a batch merge. By default it equals the split
// threshold ("the split and merge thresholds can be the same", Section 3).
func (t *Tree) mergeThreshold() float64 {
	return t.SplitThreshold() * t.cfg.MergeThresholdScale
}

// Add records one occurrence of event p (the rap_add_points of Section
// 3.2). Points outside the universe are masked into it, mirroring how a
// hardware event bus truncates identifiers to the profiled width.
func (t *Tree) Add(p uint64) { t.AddN(p, 1) }

// AddN records weight occurrences of event p in one step. It is the
// coalesced-update entry point used by the Stage-0 event buffer of the
// hardware design, which merges duplicate events before they reach the
// profiling engine. AddN(p, w) leaves the tree in the same state as w
// calls of Add(p) except that the whole weight is credited to the range
// that was smallest when the call began.
func (t *Tree) AddN(p uint64, weight uint64) {
	if weight == 0 {
		return
	}
	p &= t.mask
	// The tap observes the offered stream — including weight the admission
	// gate will refuse — so audit truth brackets everything the caller sent.
	if t.tap != nil {
		t.tap.Tap(p, weight)
	}

	// Find the smallest live range covering p: descend from p's start-table
	// slot while a covering child exists. Holes left by merges credit the
	// parent (Section 3.3).
	vi := t.descend(p)
	if t.adm != nil && !t.adm.Admit(p, weight, int(t.arena[vi].plen)) {
		t.unadmitted = addSat(t.unadmitted, weight)
		return
	}
	t.n += weight
	if t.n < weight {
		t.n = math.MaxUint64 // saturate, so n and the threshold never fall
	}
	// Credit the node, spilling its counter at 2^31.
	nv := t.addCount(vi, weight)

	// Stage 4 of the pipeline: compare against the split threshold. The
	// float test runs only for a count above splitAt; when it does not
	// split, its floor becomes the new bound, which holds from then on
	// because the threshold never falls as n grows. split may grow the
	// arena, so node pointers are dead after this point. The split's
	// range start is derived from p — nodes do not store lo.
	if plen := t.arena[vi].plen; nv > t.splitAt && int(plen) < t.cfg.UniverseBits {
		if thr := t.SplitThreshold(); float64(nv) > thr {
			t.split(vi, prefixOf(p, plen, t.cfg.UniverseBits))
		} else {
			t.splitAt = uint64(min(thr, 1<<63)) // ⌊thr⌋, capped in uint64 range
		}
	}

	// A saturated schedule (nextMerge 2^64-1) has no further merge point:
	// n stops there.
	if t.n >= t.nextMerge && t.nextMerge != math.MaxUint64 {
		t.runMergeBatch()
	}
}

// split sprouts children under slot vi (whose range starts at lo) covering
// its entire range. The original node keeps its counter; children start at
// zero (Section 2.2). For a node with merge holes, only the missing
// children are created (the "extra operation" split case of Section 3.3).
func (t *Tree) split(vi uint32, lo uint64) {
	fan := t.fanout(t.arena[vi].plen)
	if t.arena[vi].childBase == nilIdx {
		base := t.allocBlock(fan) // may move the arena
		t.arena[vi].childBase = base
		t.setChildGeometry(vi)
	}
	v := &t.arena[vi] // stable: split allocates no arena past this point
	cplen := v.plen + uint8(t.childStride(v.plen))
	created := 0
	for i := 0; i < fan; i++ {
		c := &t.arena[v.childBase+uint32(i)]
		if !c.dead {
			continue
		}
		*c = node{count: t.newCount(0), childBase: nilIdx, plen: cplen}
		t.nodes++
		created++
	}
	t.splits++
	if t.nodes > t.maxNodes {
		t.maxNodes = t.nodes
	}
	if t.hooks != nil && t.hooks.Split != nil {
		t.hooks.Split(SplitEvent{
			Lo:          lo,
			Hi:          rangeHi(lo, v.plen, t.cfg.UniverseBits),
			Depth:       t.depthOf(v.plen),
			Count:       t.count(vi),
			Threshold:   t.SplitThreshold(),
			N:           t.n,
			NewChildren: created,
		})
	}
	if t.adm != nil {
		t.adm.Pulse(t.Stats())
	}
}

// runMergeBatch walks the whole tree once and folds every cold childless
// node into its parent, then advances the merge schedule. Batching merges
// this way (rather than hunting for merge candidates on every update) is
// the engineering contribution of Section 3.1/Figure 3: the worst-case
// bounds still hold while the merge work is amortized across a
// geometrically growing interval.
func (t *Tree) runMergeBatch() {
	var start time.Time
	timed := t.hooks != nil && t.hooks.MergeBatch != nil
	if timed {
		start = time.Now()
	}
	t.mergeBatches++
	before := t.merges
	thr := t.mergeThreshold()
	t.mergeNode(0, 0, thr)
	t.compact()
	t.clearStart() // compaction renumbered every slot
	t.tuneStart()
	t.advanceMergeSchedule()
	if timed {
		t.hooks.MergeBatch(MergeBatchEvent{
			N:        t.n,
			Merged:   int(t.merges - before),
			Nodes:    t.nodes,
			Duration: time.Since(start),
		})
	}
	if t.adm != nil {
		t.adm.Pulse(t.Stats())
	}
}

// compact rebuilds the arena in depth-first order, dropping freed blocks
// and the holes between them, then rebuilds the spill slab densely in the
// same order. Running it at the tail of every merge batch keeps two
// promises cheap: the slabs' footprint tracks the live tree (a merge
// batch genuinely releases node and spilled-counter memory instead of
// parking it on freelists), and a root-to-leaf descent path lands on
// consecutive blocks of the slab, which is what makes the index-linked
// layout faster than pointer chasing on skewed streams — the hot chain
// occupies a handful of cache lines laid out in walk order. Cost is one
// O(slots) copy per merge batch, amortized by the geometric merge
// schedule exactly like the merge walk itself.
func (t *Tree) compact() {
	// The new slab needs 1 + sum(attached block sizes) slots, which the old
	// length bounds (it additionally counts freed blocks), so the appends
	// below never reallocate. na is distinct storage from t.arena, so
	// pointers into the old slab remain valid throughout.
	na := make([]node, 1, len(t.arena))
	na[0] = t.arena[0]
	t.compactInto(&na, 0, 0)
	// Re-home every live spilled counter, in the new slab's DFS order, into
	// a slab sized exactly: the slots of folded counters are dropped here.
	spilled := 0
	for i := range na {
		if !na[i].dead && na[i].count&spillBit != 0 {
			spilled++
		}
	}
	spill := make([]uint64, 0, spilled)
	for i := range na {
		if c := na[i].count; !na[i].dead && c&spillBit != 0 {
			na[i].count = spillBit | uint32(len(spill))
			spill = append(spill, t.spill[c&^spillBit])
		}
	}
	t.spill = spill
	t.arena = na
	t.free = [maxFreeLists][]uint32{}
}

// compactInto copies the children block of old slot ovi (already copied to
// new slot nvi) into the new slab and recurses. Dead holes are copied
// verbatim: they stay revivable split targets at the same offset.
func (t *Tree) compactInto(na *[]node, ovi, nvi uint32) {
	ov := &t.arena[ovi]
	if ov.childBase == nilIdx {
		return
	}
	fan := uint32(t.fanout(ov.plen))
	base := uint32(len(*na))
	*na = append(*na, t.arena[ov.childBase:ov.childBase+fan]...)
	(*na)[nvi].childBase = base
	for i := uint32(0); i < fan; i++ {
		if !t.arena[ov.childBase+i].dead {
			t.compactInto(na, ov.childBase+i, base+i)
		}
	}
}

// MergeNow forces an immediate batch merge pass outside the schedule.
// Finalize uses it so that reported trees are compacted; tests and the
// hardware pipeline model use it to align merge points.
func (t *Tree) MergeNow() { t.runMergeBatch() }

func (t *Tree) advanceMergeSchedule() {
	if t.cfg.MergeEvery != 0 {
		t.nextMerge = addSat(t.n, t.cfg.MergeEvery)
		return
	}
	next := uint64(math.Ceil(float64(t.mergeInterval) * t.cfg.MergeRatio))
	if next <= t.mergeInterval {
		next = t.mergeInterval + 1
	}
	t.mergeInterval = next
	t.nextMerge = addSat(t.n, t.mergeInterval)
}

// mergeNode post-order folds cold childless descendants of the node at
// slot vi (range start lo) into their parents. A child is folded when,
// after its own subtree has been compacted, it has no children left and
// its counter is at or below the merge threshold. Counts only ever move
// upward, preserving the lower-bound property of every estimate; since at
// most one threshold of count can move up per level, the ε·n error bound
// is preserved (Section 2.2). A folded child's spill slot, if any, is
// left for the compaction that ends every merge batch.
// The merge path never grows the arena (freeBlock only pushes to a
// freelist), so node pointers may be held across recursion; the spill
// slab may grow (a fold can spill the parent's counter), which never
// invalidates arena pointers.
func (t *Tree) mergeNode(vi uint32, lo uint64, thr float64) {
	v := &t.arena[vi]
	if v.childBase == nilIdx {
		return
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		ci := v.childBase + uint32(i)
		c := &t.arena[ci]
		if c.dead {
			continue
		}
		clo, _ := t.childBounds(lo, v.plen, i)
		t.mergeNode(ci, clo, thr)
		if c.childBase != nilIdx {
			continue
		}
		cnt := t.count(ci)
		if float64(cnt) <= thr {
			if t.hooks != nil && t.hooks.Merge != nil {
				t.hooks.Merge(MergeEvent{
					Lo:        clo,
					Hi:        rangeHi(clo, c.plen, t.cfg.UniverseBits),
					Depth:     t.depthOf(c.plen),
					Count:     cnt,
					Threshold: thr,
					N:         t.n,
				})
			}
			t.addCount(vi, cnt)
			c.count = 0
			c.dead = true
			t.nodes--
			t.merges++
		}
	}
	t.normalize(vi)
}

// Finalize compacts the tree with one last merge batch and returns its
// statistics (the rap_finalize of Section 3.2). The tree remains usable;
// Finalize is idempotent apart from the extra merge batch counted.
func (t *Tree) Finalize() Stats {
	t.runMergeBatch()
	return t.Stats()
}
