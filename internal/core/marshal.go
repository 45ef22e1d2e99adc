package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Snapshot serialization: a compact preorder binary encoding of the tree
// so profiles can be shipped off the profiling host and post-processed,
// the way the hardware engine's SRAM contents would be read out.

// Version history: v1 omitted MinSplitCount, so a round-trip silently
// reset the cold-start split guard to its default (and made restored
// trees un-mergeable with their originals). v2 carries the full Config.
// v3 appends the unadmitted ledger (weight refused by the admission gate)
// after the merge schedule, so a restored tree's upper bounds still charge
// mass that was refused before the snapshot. v1 and v2 snapshots are still
// read, with the missing fields defaulted (guard to its default, ledger
// to zero).
const (
	marshalMagic   = "RAPT"
	marshalVersion = 3
)

// MarshalBinary encodes the tree (configuration, schedule state, and all
// nodes) into a portable byte slice.
func (t *Tree) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	buf.WriteByte(marshalVersion)

	writeUvarint(&buf, uint64(t.cfg.UniverseBits))
	writeUvarint(&buf, uint64(t.cfg.Branch))
	writeFloat(&buf, t.cfg.Epsilon)
	writeFloat(&buf, t.cfg.MergeRatio)
	writeUvarint(&buf, t.cfg.FirstMerge)
	writeUvarint(&buf, t.cfg.MergeEvery)
	writeFloat(&buf, t.cfg.MergeThresholdScale)
	writeUvarint(&buf, t.cfg.MinSplitCount)

	writeUvarint(&buf, t.n)
	writeUvarint(&buf, uint64(t.maxNodes))
	writeUvarint(&buf, t.splits)
	writeUvarint(&buf, t.merges)
	writeUvarint(&buf, t.mergeBatches)
	writeUvarint(&buf, t.nextMerge)
	writeUvarint(&buf, t.mergeInterval)
	writeUvarint(&buf, t.unadmitted)

	t.marshalNode(&buf, 0, 0)
	return buf.Bytes(), nil
}

// marshalNode encodes the subtree at slot vi (range start lo) in logical
// preorder. The encoding walks live slots only and writes each counter's
// value, so it is independent of arena layout and of where a counter is
// stored: two trees that are structurally equal serialize identically
// however their slabs are fragmented and whichever counters have spilled
// — an inline tree and a NewWide tree fed the same stream emit the same
// bytes.
func (t *Tree) marshalNode(buf *bytes.Buffer, vi uint32, lo uint64) {
	v := &t.arena[vi]
	writeUvarint(buf, lo)
	buf.WriteByte(v.plen)
	writeUvarint(buf, t.count(vi))
	if v.childBase == nilIdx {
		writeUvarint(buf, 0)
		return
	}
	fan := t.fanout(v.plen)
	live := 0
	for i := 0; i < fan; i++ {
		if !t.arena[v.childBase+uint32(i)].dead {
			live++
		}
	}
	writeUvarint(buf, uint64(live))
	for i := 0; i < fan; i++ {
		if t.arena[v.childBase+uint32(i)].dead {
			continue
		}
		writeUvarint(buf, uint64(i))
		clo, _ := t.childBounds(lo, v.plen, i)
		t.marshalNode(buf, v.childBase+uint32(i), clo)
	}
}

// UnmarshalBinary decodes a tree previously encoded with MarshalBinary,
// replacing the receiver's contents.
func (t *Tree) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != marshalMagic {
		return fmt.Errorf("core: bad snapshot magic")
	}
	ver, err := r.ReadByte()
	if err != nil || ver < 1 || ver > marshalVersion {
		return fmt.Errorf("core: unsupported snapshot version %d", ver)
	}

	var cfg Config
	cfg.UniverseBits = int(mustUvarint(r, &err))
	cfg.Branch = int(mustUvarint(r, &err))
	cfg.Epsilon = readFloat(r, &err)
	cfg.MergeRatio = readFloat(r, &err)
	cfg.FirstMerge = mustUvarint(r, &err)
	cfg.MergeEvery = mustUvarint(r, &err)
	cfg.MergeThresholdScale = readFloat(r, &err)
	if ver >= 2 {
		cfg.MinSplitCount = mustUvarint(r, &err)
	}
	if err != nil {
		return fmt.Errorf("core: truncated snapshot header: %w", err)
	}
	// Decode into the receiver's own layout mode: restoring a snapshot
	// into a NewWide tree keeps it wide (snapshots carry values, not
	// representation).
	nt, nerr := newTree(cfg, t.wideCounters)
	if nerr != nil {
		return nerr
	}

	nt.n = mustUvarint(r, &err)
	nt.maxNodes = int(mustUvarint(r, &err))
	nt.splits = mustUvarint(r, &err)
	nt.merges = mustUvarint(r, &err)
	nt.mergeBatches = mustUvarint(r, &err)
	nt.nextMerge = mustUvarint(r, &err)
	nt.mergeInterval = mustUvarint(r, &err)
	if ver >= 3 {
		nt.unadmitted = mustUvarint(r, &err)
	}
	if err != nil {
		return fmt.Errorf("core: truncated snapshot state: %w", err)
	}

	if nt.maxNodes < 0 {
		return fmt.Errorf("core: snapshot maxNodes overflows int")
	}

	nt.nodes = 0
	if err := nt.unmarshalNode(r, 0, 0, 0, 0); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: %d trailing bytes after snapshot", r.Len())
	}
	if nt.nodes > nt.maxNodes {
		nt.maxNodes = nt.nodes
	}
	*t = *nt
	return nil
}

// unmarshalNode decodes one node and its subtree. A hostile snapshot must
// not be able to smuggle in a tree that violates the structural invariants
// the update and query paths rely on, so beyond truncation the decoder
// enforces: the node's (lo, plen) must equal the bounds derived from its
// parent and child slot (wantLo, wantPlen) — the encoding is redundant and
// the redundancy must agree; child slot indices must be strictly
// increasing, which rules out duplicates that would leak nodes and
// double-count; and the recursion depth may never exceed the configured
// tree height, which bounds decoding work even when stride reaches zero at
// the bottom of the universe.
// unmarshalNode decodes one node and its subtree into the pre-allocated
// arena slot vi, reviving the slot from its dead (hole) state; slots the
// snapshot does not mention stay dead, preserving merge holes. Recursion
// allocates children blocks (which may move the arena), so slots are
// re-indexed per access rather than held as pointers.
func (t *Tree) unmarshalNode(r *bytes.Reader, vi uint32, wantLo uint64, wantPlen uint8, depth int) error {
	if depth > t.height {
		return fmt.Errorf("core: snapshot nests %d levels, tree height %d", depth, t.height)
	}
	var err error
	lo := mustUvarint(r, &err)
	plen, perr := r.ReadByte()
	if perr != nil {
		err = perr
	}
	count := mustUvarint(r, &err)
	live := mustUvarint(r, &err)
	if err != nil {
		return fmt.Errorf("core: truncated snapshot node: %w", err)
	}
	if int(plen) > t.cfg.UniverseBits {
		return fmt.Errorf("core: snapshot node plen %d exceeds universe", plen)
	}
	if lo != wantLo || plen != wantPlen {
		return fmt.Errorf("core: snapshot node (%#x, %d) does not match derived bounds (%#x, %d)",
			lo, plen, wantLo, wantPlen)
	}
	// Revive the slot, keeping the count word it already holds (a wide
	// root's spill slot, or 0 for a hole) so setCount can reuse it.
	t.arena[vi] = node{count: t.arena[vi].count, plen: plen, childBase: nilIdx}
	t.setCount(vi, count)
	t.nodes++
	if live == 0 {
		return nil
	}
	fan := t.fanout(plen)
	if live > uint64(fan) {
		return fmt.Errorf("core: snapshot node has %d children, fanout %d", live, fan)
	}
	base := t.allocBlock(fan)
	t.arena[vi].childBase = base
	t.setChildGeometry(vi)
	prev := -1
	for k := uint64(0); k < live; k++ {
		idx := mustUvarint(r, &err)
		if err != nil || idx >= uint64(fan) || int(idx) <= prev {
			return fmt.Errorf("core: bad snapshot child index")
		}
		prev = int(idx)
		childLo, childPlen := t.childBounds(lo, plen, int(idx))
		if cerr := t.unmarshalNode(r, base+uint32(idx), childLo, childPlen, depth+1); cerr != nil {
			return cerr
		}
	}
	return nil
}

// Snapshot serializes the tree; it is MarshalBinary under the name every
// engine shares, so the facade's Writer interface can promise
// serialization uniformly.
func (t *Tree) Snapshot() ([]byte, error) { return t.MarshalBinary() }

func writeUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	buf.Write(tmp[:n])
}

func mustUvarint(r *bytes.Reader, err *error) uint64 {
	if *err != nil {
		return 0
	}
	x, e := binary.ReadUvarint(r)
	if e != nil {
		*err = e
	}
	return x
}

func writeFloat(buf *bytes.Buffer, f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	buf.Write(tmp[:])
}

func readFloat(r *bytes.Reader, err *error) float64 {
	if *err != nil {
		return 0
	}
	var tmp [8]byte
	if _, e := io.ReadFull(r, tmp[:]); e != nil {
		*err = e
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
}
