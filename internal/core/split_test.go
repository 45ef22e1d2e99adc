package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzSplitThreshold holds the split bound that lets AddN skip the float
// test to the float test itself. Every update goes to two trees: tr as it
// runs, and ref with splitAt cleared first, so that every one of ref's
// updates takes the float test. After each update tr's bound must not
// exceed SplitThreshold() and both trees must hold the same splits and
// nodes; after each operation their snapshots must match. Weights reach
// 2^20, so n crosses the MinSplitCount guard and many floor steps; with
// the top bit of the width byte set, some weights reach 2^64 and saturate n.
// Clone, Merge and a snapshot round trip run between updates. The corpus
// is (ε, guard and width/huge-weight choices, an 8-byte event seed), then one
// byte per operation.
func FuzzSplitThreshold(f *testing.F) {
	epsilons := []float64{0.5, 0.1, 0.01, 0.001}
	guards := []uint64{1, 12, 1000, 1 << 20}
	widths := []int{64, 32, 9}
	ops := []byte{0, 0, 1, 0, 2, 0, 3, 0, 0x81, 0, 2, 3, 0}
	for ei := range epsilons {
		for gi := range guards {
			for _, huge := range []byte{0, 0x80} {
				seed := binary.LittleEndian.AppendUint64([]byte{byte(ei), byte(gi), byte(ei+gi) | huge}, uint64(ei*len(guards)+gi))
				f.Add(append(seed, ops...))
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		cfg := testConfig(widths[int(data[2]&0x7f)%len(widths)], 4, epsilons[int(data[0])%len(epsilons)])
		cfg.MinSplitCount = guards[int(data[1])%len(guards)]
		cfg.FirstMerge = 64
		huge := data[2]&0x80 != 0
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[3:11]))))
		weight := func() uint64 {
			switch r := rng.Intn(16); {
			case huge && r == 0:
				return rng.Uint64() | 1
			case r < 4:
				return 1 + uint64(rng.Intn(1<<20))
			}
			return 1
		}
		add := func(tr, ref *Tree, k int) {
			for range k {
				p, w := fuzzPoint(rng), weight()
				tr.AddN(p, w)
				ref.splitAt = 0
				ref.AddN(p, w)
				if thr := tr.SplitThreshold(); float64(tr.splitAt) > thr {
					t.Fatalf("n %d: split bound %d above the threshold %v", tr.n, tr.splitAt, thr)
				}
				if tr.splits != ref.splits || tr.nodes != ref.nodes {
					t.Fatalf("n %d: %d splits and %d nodes, the float test on every update gives %d and %d",
						tr.n, tr.splits, tr.nodes, ref.splits, ref.nodes)
				}
			}
		}
		tr, ref := MustNew(cfg), MustNew(cfg)
		for i, op := range data[11:min(len(data), 11+24)] {
			switch (op & 0x7f) % 4 {
			case 0:
				add(tr, ref, 64)
			case 1:
				clone, refClone := tr.Clone(), ref.Clone()
				if clone.splitAt != tr.splitAt {
					t.Fatalf("op %d: clone's split bound %d, donor's %d", i, clone.splitAt, tr.splitAt)
				}
				add(clone, refClone, 16)
				add(tr, ref, 16)
				if op&0x80 != 0 {
					tr, ref = clone, refClone
				}
			case 2:
				other := MustNew(cfg)
				for range 32 {
					other.AddN(fuzzPoint(rng), weight())
				}
				if err := tr.Merge(other.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := ref.Merge(other); err != nil {
					t.Fatal(err)
				}
				add(tr, ref, 1)
			case 3:
				for _, x := range []*Tree{tr, ref} {
					if err := x.UnmarshalBinary(mustMarshal(t, x)); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			if !bytes.Equal(mustMarshal(t, tr), mustMarshal(t, ref)) {
				t.Fatalf("op %d: the tree differs from the one the float test builds", i)
			}
		}
	})
}
