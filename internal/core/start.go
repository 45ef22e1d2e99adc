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
// Deep tier. A flat row cannot anchor much deeper than startBits past the
// spine, yet a long walk's levels come from a few hot rows: gzip values
// walk 8 levels below their 40-bit key to leaves at plen 56, where a flat
// key would need 2^26 slots. So a row whose descents ended on average at
// least deepMinLevels below its key gets a deep prefix length, and its
// points first try one shared, direct-mapped tier of tierLen entries,
// each an anchor tagged with the whole prefix of p at that length. The
// tag is p with the bits below the deep plen cleared, so it keeps p's top
// set bit, which fixes the row, and entries of different rows never
// match each other. Each merge batch sets every row's deep plen from the
// depths its own descents ended at since the last batch, so dense value
// rows, whose walks stay short, keep the flat path alone.
//
// Exactness. Any live ancestor of p's answer is a valid place to start:
// live nodes always have live parents (only childless nodes are folded
// away, and a freed block is all dead), so descending from any live node
// on p's path reaches the same smallest live range as descending from the
// root. A stored slot stays such a node because between merge batches the
// tree only gains nodes: slots die only in runMergeBatch's merge walk,
// freelists are empty outside it (compact drops them), and compact
// renumbers every slot. A tier entry is the same kind of anchor: every
// point with its tag shares the top deep-plen bits, so the node it holds
// is on p's path. So the single invalidation rule is: clear the rows and
// the tier whenever the merge batch has compacted the slab, and set the
// deep plens only there. Merge clears both too, so its grafts never lean
// on the freelists being empty; UnmarshalBinary builds a fresh tree, and
// a Clone starts with none.

// startBits bounds how many bits past the zero spine a key takes. A key
// takes the most whole levels that fit (10 bits at Branch 4, 9 at 8, 8 at
// 256): a partial level would double the slots without a deeper anchor.
// Wider flat keys lost (12 and 14 bits on the gzip replay): a row is
// 2^width slots, so each extra level doubles the slots a stream spreads
// over, each walks down from the root once after every merge batch's
// clear, and rows past 4 KiB leave the cache. The deep tier sidesteps
// that limit: its size does not grow with depth, and its entries hold
// only the prefixes a stream touched.
const startBits = 10

// tierBits sizes the deep tier: 2^tierBits entries of 16 bytes, 16 KiB,
// allocated the first time a row turns its tier on.
const (
	tierBits = 10
	tierLen  = 1 << tierBits
)

// deepMinLevels is the average number of levels below its key a row's
// descents must have ended at, over the last merge interval, for the row
// to use the tier in the next one.
const deepMinLevels = 2

// startKey is the precomputed key geometry for one bits.LeadingZeros64(p).
// It keeps to four fields, so descend holds a copy in registers.
type startKey struct {
	row   uint8 // spine length: the row of slots this key indexes
	shift uint8 // p >> shift is the slot within the row
	plen  uint8 // deepest prefix length every point with the key shares
	deep  uint8 // the row's deep prefix length; plen while its tier is off
}

// tierSlot returns the tier index and tag of p under key k: the low
// tierBits of p's prefix at the deep plen, and p with the bits below that
// plen cleared. shift is w - plen, so w - deep is shift - (deep - plen).
func (k startKey) tierSlot(p uint64) (int, uint64) {
	dshift := k.shift - (k.deep - k.plen)
	prefix := p >> dshift
	return int(prefix & (tierLen - 1)), prefix << dshift
}

// startRow is one spine length's slots and its descents since the last
// merge batch: how many, and how many prefix bits below the key's plen
// they ended at in all.
type startRow struct {
	slots  []uint32 // nil until first used; 0 is the root
	events uint64
	below  uint64
}

// tierEntry is one deep-tier anchor: the slot of a node on the path of
// every point whose prefix at its row's deep plen is tag.
type tierEntry struct {
	tag  uint64
	slot uint32
}

// startTable is a writer tree's descent start table. It is allocated on a
// tree's first descent, so trees that never descend (epoch clones, merged
// views) carry none.
type startTable struct {
	key  [65]startKey
	rows []startRow  // H+1 rows, one per spine length
	tier []tierEntry // tierLen entries, nil until a row turns its tier on
}

// newStartTable builds an empty table for t's geometry, every tier off.
// Tree levels sit at plen 0, s, 2s, … and w (s = log2 Branch), so the
// zero spine of p ends at the deepest level whose plen is at most p's
// leading zeros within the universe. The key bits below it need no mask:
// p's top spine bits are zero, so p >> shift < 2^(plen-spine), the row's
// length (newStartRow).
func (t *Tree) newStartTable() *startTable {
	w, s := t.cfg.UniverseBits, t.shift
	keyBits := startBits / s * s
	st := &startTable{rows: make([]startRow, t.height+1)}
	for lz := range st.key {
		zeros := max(lz-(64-w), 0) // p is masked to w bits, so lz >= 64-w
		z := zeros / s
		if zeros == w {
			z = t.height
		}
		spine := min(z*s, w)
		plen := min(spine+keyBits, w)
		st.key[lz] = startKey{row: uint8(z), shift: uint8(w - plen), plen: uint8(plen), deep: uint8(plen)}
	}
	return st
}

// newStartRow allocates k's row: one slot per value of the key bits past
// the spine, which end at plen and begin where the row's spine does.
func (t *Tree) newStartRow(k startKey) []uint32 {
	spine := min(int(k.row)*t.shift, t.cfg.UniverseBits)
	return make([]uint32, 1<<(int(k.plen)-spine))
}

// clearStart empties the start table, pointing every slot and tier entry
// at the root. Rows and the tier stay allocated: the spine lengths a
// stream used stay in use.
func (t *Tree) clearStart() {
	if t.start != nil {
		for i := range t.start.rows {
			clear(t.start.rows[i].slots)
		}
		clear(t.start.tier)
	}
}

// tuneStart sets every row's deep plen for the next merge interval from
// its descents in the last one, then restarts their counts. A row whose
// descents ended on average at least deepMinLevels levels below its key
// gets deep = plen + that average rounded up to whole levels (at most w),
// so a typical answer sits at or above its tag's plen and a tier hit
// walks no level; any other row turns its tier off. The merge batch calls
// it right after clearStart, so no entry outlives the deep plen it was
// tagged at.
func (t *Tree) tuneStart() {
	st := t.start
	if st == nil {
		return
	}
	w, s := t.cfg.UniverseBits, uint64(t.shift)
	on := false
	for lz := range st.key {
		k := &st.key[lz]
		r := &st.rows[k.row]
		k.deep = k.plen
		if per := r.events * s; per > 0 && r.below >= deepMinLevels*per {
			levels := (r.below + per - 1) / per
			k.deep = uint8(min(uint64(k.plen)+levels*s, uint64(w)))
		}
		on = on || k.deep > k.plen
	}
	for i := range st.rows {
		st.rows[i].events, st.rows[i].below = 0, 0
	}
	if on && st.tier == nil {
		st.tier = make([]tierEntry, tierLen)
	}
}

// startTableBytes is the table's footprint, zero before the first descent.
func (t *Tree) startTableBytes() int {
	st := t.start
	if st == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*st)) + len(st.rows)*int(unsafe.Sizeof(startRow{})) +
		len(st.tier)*int(unsafe.Sizeof(tierEntry{}))
	for _, r := range st.rows {
		n += len(r.slots) * int(unsafe.Sizeof(uint32(0)))
	}
	return n
}

// descend returns the slot of the smallest live node covering p. It starts
// from p's tier entry when its row's tier is on and the entry's tag is p's
// deep prefix, and from p's row slot otherwise, and refreshes both with
// the deepest node the walk passed within their prefix lengths.
func (t *Tree) descend(p uint64) uint32 {
	st := t.start
	if st == nil {
		st = t.newStartTable()
		t.start = st
	}
	k := st.key[bits.LeadingZeros64(p)]
	r := &st.rows[k.row]
	if r.slots == nil {
		r.slots = t.newStartRow(k)
	}
	si := p >> k.shift
	anchor := r.slots[si]
	vi := anchor
	tier := k.deep > k.plen
	if tier {
		if i, tag := k.tierSlot(p); st.tier[i].tag == tag {
			vi = st.tier[i].slot
		}
	}
	deep := vi
	arena := t.arena
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
		if c.plen <= k.deep {
			deep = ci
			if c.plen <= k.plen {
				anchor = ci
			}
		}
	}
	r.slots[si] = anchor
	if tier {
		i, tag := k.tierSlot(p)
		st.tier[i] = tierEntry{tag: tag, slot: deep}
	}
	// below counts the answer's prefix bits past the key, 0 when it is
	// shallower; the mask keeps the clamp free of a branch that mixed
	// rows would mispredict.
	below := int64(v.plen) - int64(k.plen)
	r.events++
	r.below += uint64(below &^ (below >> 63))
	t.descentLevels += levels
	return vi
}
