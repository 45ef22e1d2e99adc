package core

import (
	"math"
	"math/bits"
)

// Counters. A node's counter lives in the node itself: the 32-bit count
// word holds the value while it is below 2^31, so on a stream of fewer
// than 2^31 events no counter ever leaves its node. A counter that
// reaches 2^31 spills: its word becomes spillBit|slot, naming a 64-bit
// cell of the tree's spill slab, and it stays there. This is the
// start-small, widen-on-overflow rule of SALSA and Counter Pools
// (PAPERS.md) with one step instead of a ladder, since the inline word
// costs no more than a reference to a pooled counter would.
//
// Counters saturate at 2^64-1 instead of wrapping, as the stream length
// does: the weight past it is not counted, but no sum falls below a part
// of it, so every lower and upper bound keeps its side. The check sits
// only on the spill path; an inline add that would pass 2^31 spills first.
//
// Spilling changes representation, never values: estimates, snapshot
// bytes and the unadmitted ledger are bit-identical to a tree that keeps
// every counter at 64 bits. NewWide builds exactly that reference layout
// by spilling every counter from birth, and the equivalence fuzzer holds
// the two to identical snapshots across 2^31 and 2^32.
//
// Spill slots are never freed one by one. A spilled counter only goes
// away when a merge batch folds its node into the parent, and every merge
// batch ends in compact, which rebuilds the slab densely in DFS order
// beside the node slab.

// spillBit marks a count word that names a spill slot rather than holding
// the counter; the low 31 bits are the slot.
const spillBit = 1 << 31

// newCount returns the count word for a new counter holding v: v itself
// while it fits inline, else a fresh spill slot (always, on a wide tree).
func (t *Tree) newCount(v uint64) uint32 {
	if v < spillBit && !t.wideCounters {
		return uint32(v)
	}
	if len(t.spill) >= spillBit {
		// 2^31 spilled counters is 16 GiB of slab behind a 24 GiB arena.
		panic("core: counter spill slab exhausted")
	}
	t.spill = append(t.spill, v)
	return spillBit | uint32(len(t.spill)-1)
}

// count reads slot vi's counter. The slot must be live.
func (t *Tree) count(vi uint32) uint64 {
	c := t.arena[vi].count
	if c&spillBit == 0 {
		return uint64(c)
	}
	return t.spill[c&^spillBit]
}

// addCount adds weight to slot vi's counter, spilling it when the sum
// reaches 2^31 and saturating it at 2^64-1, and returns the new value. It
// may grow the spill slab but never the arena, so node pointers held by
// the caller stay valid.
func (t *Tree) addCount(vi uint32, weight uint64) uint64 {
	v := &t.arena[vi]
	if v.count&spillBit != 0 {
		s := &t.spill[v.count&^spillBit]
		*s = addSat(*s, weight)
		return *s
	}
	c := uint64(v.count)
	if weight < spillBit-c { // c+weight stays inline and cannot wrap
		v.count = uint32(c + weight)
		return c + weight
	}
	nv := addSat(c, weight)
	v.count = t.newCount(nv)
	return nv
}

// addSat returns a+b, or 2^64-1 when the sum does not fit.
func addSat(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

// setCount overwrites slot vi's counter with val: in place when the
// counter is spilled and val still needs the slot, otherwise as a new
// count word. The decode path uses it on fresh slots, where the only
// spilled counter is a wide tree's root.
func (t *Tree) setCount(vi uint32, val uint64) {
	v := &t.arena[vi]
	if v.count&spillBit != 0 && (val >= spillBit || t.wideCounters) {
		t.spill[v.count&^spillBit] = val
		return
	}
	v.count = t.newCount(val)
}
