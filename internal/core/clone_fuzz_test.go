package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzCloneInto: a random tree copied into a spare built from another
// random stream, larger or smaller, or of the other counter layout, must
// equal the donor's Clone in snapshot bytes, Stats and estimates, and
// later adds to the donor must not reach it. Epoch publication copies
// every cut into a retired epoch's tree this way.
//
// The corpus is a layout byte (bit 0: wide donor, bit 1: wide spare) and
// a seed and a length for each stream. Inputs stay short so the fuzzer's
// minimizer stays cheap.
func FuzzCloneInto(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(3000), int64(2), uint16(200)) // donor larger than the spare
	f.Add(uint8(0), int64(3), uint16(150), int64(4), uint16(4000)) // spare larger than the donor
	f.Add(uint8(1), int64(5), uint16(2000), int64(6), uint16(2000))
	f.Add(uint8(2), int64(7), uint16(2500), int64(8), uint16(600))
	f.Add(uint8(3), int64(9), uint16(0), int64(10), uint16(1000)) // an empty donor

	f.Fuzz(func(t *testing.T, layouts uint8, donorSeed int64, donorN uint16, spareSeed int64, spareN uint16) {
		cfg := testConfig(32, 4, 0.05)
		cfg.FirstMerge = 16 // merge batches compact the slabs often
		build := func(wide bool, rng *rand.Rand, n uint16) *Tree {
			tr := MustNew(cfg)
			if wide {
				tr, _ = NewWide(cfg)
			}
			tr.AddSamples(cloneSamples(rng, int(n%4096)))
			return tr
		}
		drng := rand.New(rand.NewSource(donorSeed))
		donor := build(layouts&1 != 0, drng, donorN)
		spare := build(layouts&2 != 0, rand.New(rand.NewSource(spareSeed)), spareN)

		want := donor.Clone()
		got := donor.CloneInto(spare)
		if got != spare {
			t.Fatal("CloneInto did not return its destination")
		}
		requireSameTree(t, got, want)
		wantBytes := mustMarshal(t, want)

		donor.AddSamples(cloneSamples(drng, 2048))
		if !bytes.Equal(mustMarshal(t, got), wantBytes) {
			t.Fatal("adds to the donor reached its CloneInto copy")
		}
		requireSameTree(t, got, want)
	})
}

// cloneSamples is n skewed samples (see fuzzPoint) of weight 1 to 4, one
// in 64 of weight 2^31 so counters spill.
func cloneSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		w := 1 + uint64(rng.Intn(4))
		if rng.Intn(64) == 0 {
			w = 1 << 31
		}
		out[i] = Sample{Value: fuzzPoint(rng), Weight: w}
	}
	return out
}

// requireSameTree checks got and want agree in snapshot bytes, Stats,
// hot ranges, and estimates over the aligned 4^k ranges holding each of
// a few hot points.
func requireSameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
		t.Fatal("snapshot bytes differ")
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats differ:\n got %+v\nwant %+v", g, w)
	}
	for _, p := range []uint64{0, 1, 0x2a, 0x1000, 0x7fff_ffff, 0xdead_beef} {
		for k := 0; k <= 32; k += 2 {
			lo := p &^ (1<<k - 1)
			hi := lo | (1<<k - 1)
			gl, gh := got.EstimateBounds(lo, hi)
			wl, wh := want.EstimateBounds(lo, hi)
			if gl != wl || gh != wh || got.Estimate(lo, hi) != want.Estimate(lo, hi) {
				t.Fatalf("[%#x,%#x]: bounds (%d,%d), want (%d,%d)", lo, hi, gl, gh, wl, wh)
			}
		}
	}
	g, w := got.HotRanges(0.01), want.HotRanges(0.01)
	if len(g) != len(w) {
		t.Fatalf("%d hot ranges, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("hot range %d: %+v, want %+v", i, g[i], w[i])
		}
	}
}
