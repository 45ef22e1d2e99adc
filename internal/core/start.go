package core

import (
	"math/bits"
	"unsafe"
)

// Descent start table. Value streams sit near 0 in a 64-bit universe, so
// almost every root-to-leaf path begins with the same all-zero chain
// [0,2^w) → [0,2^(w-s)) → … (the "zero spine") before it branches, and a
// descent from the root re-walks that chain on every event. The hardware
// engine finds the range in one TCAM search (Section 3.3); the start table
// is the software shortcut: it remembers, per key, a node deep on the
// paths of every point with that key, and descend begins there.
//
// A key is (whole zero levels at the top of p, the next whole levels of p
// that fit in startBits bits). Every point with one key shares its top
// k.plen bits, the key's prefix length, so every node on p's path with
// plen <= k.plen is on the path of every point with that key. A slot holds
// the deepest such node the last descent through it reached; 0 (the root)
// when empty. The slots of one spine length form a row, allocated the
// first time a key lands on it: a stream touches only the few spine
// lengths its values' magnitudes span.
//
// Exactness. Any live ancestor of p's answer is a valid place to start:
// live nodes always have live parents (only childless nodes are folded
// away, and a freed block is all dead), so descending from any live node
// on p's path reaches the same smallest live range as descending from the
// root. A stored slot stays such a node because between merge batches the
// tree only gains nodes: slots die only in runMergeBatch's merge walk,
// freelists are empty outside it (compact drops them), and compact
// renumbers every slot. So the single invalidation rule is: clear the
// table whenever the merge batch has compacted the slab. Merge clears it
// too, so its grafts never lean on the freelists being empty;
// UnmarshalBinary builds a fresh tree, and a Clone starts with none.

// startBits bounds how many bits past the zero spine a key takes. A key
// takes the most whole levels that fit (10 bits at Branch 4, 9 at 8, 8 at
// 256): a partial level would double the slots without a deeper anchor.
// Wider keys anchor deeper but spread a stream over more slots, each of
// which walks down from the root once after every merge batch's clear.
const startBits = 10

// startKey is the precomputed key geometry for one bits.LeadingZeros64(p).
type startKey struct {
	row   uint8 // spine length: the row of slots this key indexes
	width uint8 // log2 of the row's length
	shift uint8 // p >> shift is the slot within the row
	plen  uint8 // deepest prefix length every point with the key shares
}

// startTable is a writer tree's descent start table. It is allocated on a
// tree's first descent, so trees that never descend (epoch clones, merged
// views) carry none.
type startTable struct {
	key  [65]startKey
	rows [][]uint32 // H+1 rows of arena slots, nil until first used; 0 is the root
}

// newStartTable builds an empty table for t's geometry. Tree levels sit at
// plen 0, s, 2s, … and w (s = log2 Branch), so the zero spine of p ends at
// the deepest level whose plen is at most p's leading zeros within the
// universe. The key bits below it need no mask: p's top spine bits are
// zero, so p >> shift < 2^width.
func (t *Tree) newStartTable() *startTable {
	w, s := t.cfg.UniverseBits, t.shift
	keyBits := startBits / s * s
	st := &startTable{rows: make([][]uint32, t.height+1)}
	for lz := range st.key {
		zeros := max(lz-(64-w), 0) // p is masked to w bits, so lz >= 64-w
		z := zeros / s
		if zeros == w {
			z = t.height
		}
		spine := min(z*s, w)
		plen := min(spine+keyBits, w)
		st.key[lz] = startKey{row: uint8(z), width: uint8(plen - spine), shift: uint8(w - plen), plen: uint8(plen)}
	}
	return st
}

// clearStart empties the start table, pointing every slot at the root.
// Rows stay allocated: the spine lengths a stream used stay in use.
func (t *Tree) clearStart() {
	if t.start != nil {
		for _, row := range t.start.rows {
			clear(row)
		}
	}
}

// startTableBytes is the table's footprint, zero before the first descent.
func (t *Tree) startTableBytes() int {
	if t.start == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*t.start)) + len(t.start.rows)*int(unsafe.Sizeof([]uint32(nil)))
	for _, row := range t.start.rows {
		n += len(row) * int(unsafe.Sizeof(uint32(0)))
	}
	return n
}

// descend returns the slot of the smallest live node covering p, starting
// from p's start-table slot and refreshing it with the deepest node the
// walk passed whose plen is within the key's.
func (t *Tree) descend(p uint64) uint32 {
	st := t.start
	if st == nil {
		st = t.newStartTable()
		t.start = st
	}
	k := st.key[bits.LeadingZeros64(p)]
	row := st.rows[k.row]
	if row == nil {
		row = make([]uint32, 1<<k.width)
		st.rows[k.row] = row
	}
	si := p >> k.shift
	arena := t.arena
	vi := row[si]
	anchor := vi
	v := &arena[vi]
	var levels uint64
	for {
		cb := v.childBase
		if cb == nilIdx {
			break
		}
		ci := cb + uint32((p>>v.cshift)&uint64(v.cmask))
		c := &arena[ci]
		// The liveness flag shares an 8-byte word with childBase/cshift/
		// cmask, so carrying c into the next iteration means one load per
		// level instead of a re-index on every field.
		if c.dead {
			break
		}
		vi, v = ci, c
		levels++
		if c.plen <= k.plen {
			anchor = ci
		}
	}
	row[si] = anchor
	t.descentLevels += levels
	return vi
}
