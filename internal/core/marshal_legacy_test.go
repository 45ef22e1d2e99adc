package core

import (
	"bytes"
	"testing"
)

// legacySnapshot hand-assembles a snapshot byte stream exactly as every
// encoder so far has emitted it (the wire format has not changed with the
// counter layout, so this doubles as the format's golden spec): a w=4,
// b=4 tree whose root holds 5 residual events and whose two live children
// hold 300 and 70000.
func legacySnapshot(ver byte, unadmitted uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString("RAPT")
	buf.WriteByte(ver)

	writeUvarint(&buf, 4)   // UniverseBits
	writeUvarint(&buf, 4)   // Branch
	writeFloat(&buf, 0.05)  // Epsilon
	writeFloat(&buf, 2.0)   // MergeRatio
	writeUvarint(&buf, 512) // FirstMerge
	writeUvarint(&buf, 0)   // MergeEvery
	writeFloat(&buf, 1.0)   // MergeThresholdScale (normalized)
	if ver >= 2 {
		writeUvarint(&buf, 12) // MinSplitCount (normalized default)
	}

	writeUvarint(&buf, 70305) // n
	writeUvarint(&buf, 64)    // maxNodes
	writeUvarint(&buf, 2)     // splits
	writeUvarint(&buf, 0)     // merges
	writeUvarint(&buf, 0)     // mergeBatches
	writeUvarint(&buf, 512)   // nextMerge
	writeUvarint(&buf, 512)   // mergeInterval
	if ver >= 3 {
		writeUvarint(&buf, unadmitted)
	}

	// Preorder nodes: uvarint lo, byte plen, uvarint count, uvarint live,
	// then (uvarint child index, child node)...
	writeUvarint(&buf, 0) // root lo
	buf.WriteByte(0)      // root plen
	writeUvarint(&buf, 5)
	writeUvarint(&buf, 2) // two live children

	writeUvarint(&buf, 0) // child index 0 -> [0,3]
	writeUvarint(&buf, 0)
	buf.WriteByte(2)
	writeUvarint(&buf, 300)
	writeUvarint(&buf, 0)

	writeUvarint(&buf, 2) // child index 2 -> [8,11]
	writeUvarint(&buf, 8)
	buf.WriteByte(2)
	writeUvarint(&buf, 70000)
	writeUvarint(&buf, 0)

	return buf.Bytes()
}

// TestLegacySnapshotsDecodeIntoPools proves snapshots of every version
// (RAPT v1/v2/v3) decode into either counter layout, keep counters below
// 2^31 inline, answer queries exactly, and re-encode as current-version
// bytes.
func TestLegacySnapshotsDecodeIntoPools(t *testing.T) {
	for _, ver := range []byte{1, 2, 3} {
		var unadmitted uint64
		if ver >= 3 {
			unadmitted = 7
		}
		data := legacySnapshot(ver, unadmitted)

		tr := MustNew(DefaultConfig())
		if err := tr.UnmarshalBinary(data); err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}

		if tr.Total() != 70305 || tr.N() != 70305 {
			t.Fatalf("v%d: Total %d N %d, want 70305", ver, tr.Total(), tr.N())
		}
		for _, q := range []struct{ lo, hi, want uint64 }{
			{0, 15, 70305}, {0, 3, 300}, {8, 11, 70000}, {4, 7, 0},
		} {
			if got := tr.Estimate(q.lo, q.hi); got != q.want {
				t.Fatalf("v%d: Estimate(%d,%d) = %d, want %d", ver, q.lo, q.hi, got, q.want)
			}
		}
		if got := tr.UnadmittedN(); got != unadmitted {
			t.Fatalf("v%d: UnadmittedN %d, want %d", ver, got, unadmitted)
		}

		st := tr.Stats()
		if st.Nodes != 3 {
			t.Fatalf("v%d: %d nodes, want 3", ver, st.Nodes)
		}
		// 5, 300 and 70000 all stay in their nodes.
		if len(tr.spill) != 0 {
			t.Fatalf("v%d: %d counters spilled on restore, want 0", ver, len(tr.spill))
		}

		// The same bytes decode into the wide reference layout with
		// identical answers, and both layouts re-encode identically: one
		// v3 stream with the legacy stream's values (v1/v2 gaps filled
		// with the normalized defaults the old decoder also applied).
		wide, err := NewWide(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := wide.UnmarshalBinary(data); err != nil {
			t.Fatalf("v%d wide: %v", ver, err)
		}
		if len(wide.spill) != 3 {
			t.Fatalf("v%d: wide restore has %d spill slots, want 3", ver, len(wide.spill))
		}
		re, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		reWide, err := wide.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want := legacySnapshot(3, unadmitted)
		if !bytes.Equal(re, want) {
			t.Fatalf("v%d: re-marshal is not the canonical v3 stream", ver)
		}
		if !bytes.Equal(reWide, want) {
			t.Fatalf("v%d: wide re-marshal diverges from inline", ver)
		}
	}
}
