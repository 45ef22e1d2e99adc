package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// FuzzCounterPromotion: the inline counter layout, whose one promotion
// is the spill of a counter into the 64-bit slab at 2^31, must be
// observationally identical to the reference layout (NewWide, every
// counter spilled from birth) on any interleaving of AddN/AddBatch/Merge:
// same estimates, same bounds, same snapshot bytes. If a spill ever lost
// or altered a count, the inline tree's structure or serialization would
// diverge from the wide tree's. The corpus bytes encode an op stream
// whose weights are scaled exponentially so mutations cross 2^31 and
// 2^32, and merge ops carry spilled counters through graft's addCount.
func FuzzCounterPromotion(f *testing.F) {
	// rec encodes one op: weight (m+1)<<e, so m=0 is a power of two.
	rec := func(op byte, v uint16, m, e byte) []byte {
		return []byte{op, byte(v), byte(v >> 8), m, e}
	}
	// Point 0 climbs to exactly 2^31-1 by powers of two, then takes one
	// more: the sum crosses 2^31 a unit at a time.
	var seed1 []byte
	for e := 30; e >= 0; e-- {
		seed1 = append(seed1, rec(0, 0, 0, byte(e))...)
	}
	f.Add(append(seed1, rec(0, 0, 0, 0)...))
	// The same climb to 2^32-1, then one more.
	var seed2 []byte
	for e := 31; e >= 0; e-- {
		seed2 = append(seed2, rec(0, 0, 0, byte(e))...)
	}
	f.Add(append(seed2, rec(0, 0, 0, 0)...))
	// Single adds landing exactly on 2^31 (128<<24) and jumping past 2^32
	// (256<<33).
	f.Add(slices.Concat(rec(0, 0, 127, 24), rec(0, 7, 255, 33), rec(0, 7, 0, 0)))
	// Spilled side trees merged in, with batches interleaved.
	f.Add(slices.Concat(
		rec(2, 0x10, 127, 24), rec(0, 0x10, 127, 24), rec(1, 0, 0, 0),
		rec(3, 0, 0, 0), rec(2, 0x11, 255, 30), rec(1, 0xff, 0, 0),
		rec(3, 0, 0, 0),
	))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) { counterPromotionEquivalence(t, data) })
}

// TestCounterPromotionEquivalence drives the fuzz property over
// deterministic pseudo-random op streams, so plain `go test` runs cover
// weighted AddN/AddBatch/Merge streams across 2^31 and 2^32 without the
// fuzzing engine.
func TestCounterPromotionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	spilled := 0
	for trial := 0; trial < 6; trial++ {
		data := make([]byte, 5*(500+rng.Intn(1500)))
		rng.Read(data)
		spilled += counterPromotionEquivalence(t, data)
	}
	if spilled == 0 {
		t.Fatal("no stream spilled a counter; the sweep is vacuous")
	}
}

// counterPromotionEquivalence is the property FuzzCounterPromotion and the
// deterministic sweep share: apply the op stream encoded in data to an
// inline tree and a wide reference tree and require identical observable
// state. It returns how many live counters the inline tree had spilled.
func counterPromotionEquivalence(t *testing.T, data []byte) int {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 32
	inline := MustNew(cfg)
	wide, err := NewWide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Side trees accumulated for merge ops, one per layout so the merge
	// source itself spills (or starts spilled).
	sideInline := MustNew(cfg)
	sideWide, _ := NewWide(cfg)

	// Records of 5 bytes: op, two value bytes, weight mantissa, weight
	// exponent. The exponent reaches 2^33 so single updates can cross
	// 2^31 and 2^32.
	type rec struct {
		op byte
		v  uint64
		w  uint64
	}
	var recs []rec
	for len(data) >= 5 {
		recs = append(recs, rec{
			op: data[0] % 4,
			v:  uint64(binary.LittleEndian.Uint16(data[1:3])),
			w:  (uint64(data[3]) + 1) << (data[4] % 34),
		})
		data = data[5:]
	}
	if len(recs) > 2048 {
		recs = recs[:2048]
	}

	var batch []uint64
	flushBatch := func() {
		inline.AddBatch(batch)
		wide.AddBatch(batch)
		batch = batch[:0]
	}
	for _, r := range recs {
		switch r.op {
		case 0: // weighted add to both layouts
			flushBatch()
			inline.AddN(r.v, r.w)
			wide.AddN(r.v, r.w)
		case 1: // batched weight-1 adds, flushed lazily
			batch = append(batch, r.v)
		case 2: // feed the side trees instead
			flushBatch()
			sideInline.AddN(r.v, r.w)
			sideWide.AddN(r.v, r.w)
		default: // merge the side trees in and reset them
			flushBatch()
			if err := inline.Merge(sideInline); err != nil {
				t.Fatal(err)
			}
			if err := wide.Merge(sideWide); err != nil {
				t.Fatal(err)
			}
			sideInline = MustNew(cfg)
			sideWide, _ = NewWide(cfg)
		}
	}
	flushBatch()

	// Estimates and bounds agree on a spread of ranges.
	spans := [][2]uint64{
		{0, 0}, {0, 255}, {0, 1<<16 - 1}, {1 << 8, 1 << 12}, {42, 42},
	}
	for _, s := range spans {
		pl, ph := inline.EstimateBounds(s[0], s[1])
		wl, wh := wide.EstimateBounds(s[0], s[1])
		if pl != wl || ph != wh {
			t.Fatalf("bounds diverged on [%d,%d]: inline (%d,%d), wide (%d,%d)",
				s[0], s[1], pl, ph, wl, wh)
		}
		if inline.Estimate(s[0], s[1]) != wide.Estimate(s[0], s[1]) {
			t.Fatalf("estimate diverged on [%d,%d]", s[0], s[1])
		}
	}
	if inline.Total() != wide.Total() || inline.N() != wide.N() {
		t.Fatalf("totals diverged: inline (%d,%d), wide (%d,%d)",
			inline.Total(), inline.N(), wide.Total(), wide.N())
	}

	// Snapshot bytes are identical: representation never leaks onto the
	// wire.
	ps, err := inline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ps, ws) {
		t.Fatalf("snapshots diverged: %d vs %d bytes", len(ps), len(ws))
	}

	// A forced merge batch (compaction included) preserves equivalence,
	// and after compaction the inline layout, which spills only counters
	// at or past 2^31, can never be looser than the wide layout.
	inline.MergeNow()
	wide.MergeNow()
	ps, err = inline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ws, err = wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ps, ws) {
		t.Fatalf("snapshots diverged after merge batch: %d vs %d bytes", len(ps), len(ws))
	}
	checkSpills(t, inline)
	checkSpills(t, wide)
	if pb, wb := inline.ArenaBytes(), wide.ArenaBytes(); pb > wb {
		t.Fatalf("inline arena %d B exceeds wide arena %d B after compaction", pb, wb)
	}
	return len(inline.spill)
}
