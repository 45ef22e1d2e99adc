package core

import "math/bits"

// Node storage. Nodes live in a single arena slab ([]node on the Tree) and
// refer to each other by uint32 index instead of pointer: index 0 is the
// root, and a split allocates one contiguous block of `fanout` slots whose
// base index the parent records in childBase. Child i of a node is always
// slot childBase+i, so the per-node children slice of the old layout — a
// 24-byte header plus a pointer-chasing indirection per descent step — is
// replaced by one add. Indices stay valid when the slab grows (append may
// move the backing array, which would invalidate pointers but not
// offsets), which is what lets the descent start table of start.go hold
// slots across splits; only compaction, which renumbers them, clears it.
//
// The node is 12 bytes, half the original arena layout, which roughly
// doubles how much of the hot descent chain fits per cache line:
//
//   - The counter is a 32-bit count word that spills to a 64-bit slab
//     cell only at 2^31 (counter.go).
//   - lo is no longer stored at all. A node's range start is derivable
//     wherever the node is reached: the descent for a point p knows
//     lo = p &^ suffixMask(w-plen), and every whole-tree walk descends
//     from the root deriving child bounds with childBounds exactly as
//     splits do. Dropping the redundant copy is free because the
//     structure already encodes it.
//
// Merged-away children (the "children do not cover the entire range of the
// parent" case of Section 3.3) keep their slot but are marked dead; a
// block whose slots are all dead is returned to a size-keyed freelist and
// recycled by later splits, so a workload that repeatedly splits and
// merges churns no memory at all.
type node struct {
	count     uint32 // the counter, or spillBit|slot once spilled (counter.go); 0 while dead
	childBase uint32 // base slot of the children block; nilIdx = leaf
	plen      uint8
	dead      bool // slot is a merge hole or sits in a freed block
	// cshift/cmask cache the child-slot arithmetic for this node's block:
	// slot = (p >> cshift) & cmask. They turn the per-level stride/mask
	// recomputation of the descent loop into two byte loads. Maintained
	// by setChildGeometry wherever childBase is assigned; meaningless
	// (and unread) while the node is a leaf.
	cshift uint8
	cmask  uint8
}

// nilIdx is the "no children" sentinel for childBase. It is never a valid
// slot: the arena would have to hold 2^32-1 nodes first.
const nilIdx = ^uint32(0)

// maxFreeLists bounds log2(fanout): Branch is validated to at most 256, so
// a children block holds at most 2^8 slots.
const maxFreeLists = 9

// isLeaf reports whether the node currently has no children block.
func (v *node) isLeaf() bool { return v.childBase == nilIdx }

// rangeHi returns the inclusive upper end of the range starting at lo
// with prefix length plen in a w-bit universe.
func rangeHi(lo uint64, plen uint8, w int) uint64 {
	return lo | suffixMask(w-int(plen))
}

// prefixOf returns the range start (lo) of the plen-bit prefix range
// containing point p in a w-bit universe — the derivation that replaced
// the stored lo field.
func prefixOf(p uint64, plen uint8, w int) uint64 {
	return p &^ suffixMask(w-int(plen))
}

// suffixMask returns a mask with the k low bits set; k in [0, 64].
func suffixMask(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << k) - 1
}

// allocBlock returns the base slot of a fan-slot children block, reusing a
// freed block of the same size when one exists and growing the arena
// otherwise. Every slot of the returned block is dead: a fresh block is
// all holes until split or decode revives the slots it wants, which is
// exactly the refill-missing-children semantics of Section 3.3.
//
// allocBlock may grow (and therefore move) the arena backing array: any
// *node held across a call is invalid afterwards, so mutation paths hold
// slot indices and re-derive pointers.
func (t *Tree) allocBlock(fan int) uint32 {
	k := bits.TrailingZeros(uint(fan))
	if fl := t.free[k]; len(fl) > 0 {
		base := fl[len(fl)-1]
		t.free[k] = fl[:len(fl)-1]
		return base
	}
	base := len(t.arena)
	if base+fan > cap(t.arena) {
		grown := make([]node, base, 2*cap(t.arena)+fan)
		copy(grown, t.arena)
		t.arena = grown
	}
	t.arena = t.arena[:base+fan]
	for i := base; i < base+fan; i++ {
		t.arena[i] = node{childBase: nilIdx, dead: true}
	}
	return uint32(base)
}

// freeBlock returns an all-dead children block to the freelist for its
// size. The slots keep their dead marking, so stale indices into the block
// fail liveness checks until a split revives them as new nodes.
func (t *Tree) freeBlock(base uint32, fan int) {
	k := bits.TrailingZeros(uint(fan))
	t.free[k] = append(t.free[k], base)
}

// normalize frees v's children block when every slot is dead, restoring
// the leaf encoding so isLeaf stays meaningful.
func (t *Tree) normalize(vi uint32) {
	v := &t.arena[vi]
	if v.childBase == nilIdx {
		return
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		if !t.arena[v.childBase+uint32(i)].dead {
			return
		}
	}
	t.freeBlock(v.childBase, fan)
	v.childBase = nilIdx
}

// hasHole reports whether v's children block has a merged-away slot.
func (t *Tree) hasHole(vi uint32) bool {
	v := &t.arena[vi]
	if v.childBase == nilIdx {
		return false
	}
	fan := t.fanout(v.plen)
	for i := 0; i < fan; i++ {
		if t.arena[v.childBase+uint32(i)].dead {
			return true
		}
	}
	return false
}

// fanout returns the number of children a split of a node at plen creates:
// the full branching factor, except at the bottom of an unevenly dividing
// universe where only the remaining bits are available.
func (t *Tree) fanout(plen uint8) int {
	rem := t.cfg.UniverseBits - int(plen)
	if rem >= t.shift {
		return 1 << t.shift
	}
	return 1 << rem
}

// childStride returns the number of prefix bits a child of a node at plen
// adds.
func (t *Tree) childStride(plen uint8) int {
	rem := t.cfg.UniverseBits - int(plen)
	if rem >= t.shift {
		return t.shift
	}
	return rem
}

// childIndex returns which child slot of a node at plen the point p falls
// in. The caller guarantees p is inside the node's range and the node is
// not a singleton.
func (t *Tree) childIndex(plen uint8, p uint64) int {
	s := t.childStride(plen)
	shift := t.cfg.UniverseBits - int(plen) - s
	return int((p >> shift) & suffixMask(s))
}

// childBounds returns the lo and plen of child slot i of a node at
// (lo, plen).
func (t *Tree) childBounds(lo uint64, plen uint8, i int) (uint64, uint8) {
	s := t.childStride(plen)
	shift := t.cfg.UniverseBits - int(plen) - s
	return lo | uint64(i)<<shift, plen + uint8(s)
}

// setChildGeometry fills slot vi's cached child-slot arithmetic (cshift,
// cmask). Called wherever a children block is attached to a node. The
// stride is at most log2(Branch) <= 8 bits, so the mask fits a byte.
func (t *Tree) setChildGeometry(vi uint32) {
	v := &t.arena[vi]
	s := t.childStride(v.plen)
	v.cshift = uint8(t.cfg.UniverseBits - int(v.plen) - s)
	v.cmask = uint8(1<<s - 1)
}
