package core

import "testing"

func hookTestConfig() Config {
	cfg := DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	return cfg
}

// TestHooksMatchStats feeds a skewed stream and checks every hook fires
// exactly as often as the tree's own counters say it should.
func TestHooksMatchStats(t *testing.T) {
	t1 := MustNew(hookTestConfig())
	var splits, merges, batches, mergedInBatches int
	t1.SetHooks(&Hooks{
		Split:      func(SplitEvent) { splits++ },
		Merge:      func(MergeEvent) { merges++ },
		MergeBatch: func(e MergeBatchEvent) { batches++; mergedInBatches += e.Merged },
	})
	for i := 0; i < 300_000; i++ {
		t1.Add(uint64(i*2654435761) & 0xffff)
	}
	st := t1.Finalize()
	if uint64(splits) != st.Splits {
		t.Fatalf("split hooks = %d, stats = %d", splits, st.Splits)
	}
	if uint64(merges) != st.Merges {
		t.Fatalf("merge hooks = %d, stats = %d", merges, st.Merges)
	}
	if uint64(batches) != st.MergeBatches {
		t.Fatalf("merge batch hooks = %d, stats = %d", batches, st.MergeBatches)
	}
	if uint64(mergedInBatches) != st.Merges {
		t.Fatalf("batch Merged sums to %d, stats = %d", mergedInBatches, st.Merges)
	}
	if splits == 0 || merges == 0 {
		t.Fatal("stream did not exercise splits and merges")
	}
}

// TestHooksDoNotChangeTreeState runs identical streams through hooked and
// unhooked trees; every estimate and statistic must agree.
func TestHooksDoNotChangeTreeState(t *testing.T) {
	plain := MustNew(hookTestConfig())
	hooked := MustNew(hookTestConfig())
	hooked.SetHooks(&Hooks{
		Split:      func(SplitEvent) {},
		Merge:      func(MergeEvent) {},
		MergeBatch: func(MergeBatchEvent) {},
	})
	for i := 0; i < 100_000; i++ {
		v := uint64(i*40503) & 0xffff
		plain.Add(v)
		hooked.Add(v)
	}
	if plain.Stats() != hooked.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", plain.Stats(), hooked.Stats())
	}
	for lo := uint64(0); lo < 1<<16; lo += 1 << 12 {
		hi := lo + 1<<12 - 1
		if a, b := plain.Estimate(lo, hi), hooked.Estimate(lo, hi); a != b {
			t.Fatalf("estimate [%#x,%#x] diverges: %d vs %d", lo, hi, a, b)
		}
	}
}

// TestSplitEventFields checks the decision state recorded on the very
// first split of a tiny universe.
func TestSplitEventFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UniverseBits = 8
	cfg.Epsilon = 0.1
	cfg.MinSplitCount = 4
	tr := MustNew(cfg)
	var evs []SplitEvent
	tr.SetHooks(&Hooks{Split: func(e SplitEvent) { evs = append(evs, e) }})
	for i := 0; i < 5; i++ {
		tr.Add(7)
	}
	if len(evs) != 1 {
		t.Fatalf("splits = %d, want exactly 1", len(evs))
	}
	e := evs[0]
	if e.Lo != 0 || e.Hi != 0xff || e.Depth != 0 {
		t.Fatalf("root split range [%#x,%#x] depth %d, want [0,0xff] depth 0", e.Lo, e.Hi, e.Depth)
	}
	if e.Count != 5 || e.N != 5 {
		t.Fatalf("count=%d n=%d, want 5/5", e.Count, e.N)
	}
	if float64(e.Count) <= e.Threshold {
		t.Fatalf("recorded count %d not above threshold %v", e.Count, e.Threshold)
	}
	if e.NewChildren != cfg.Branch {
		t.Fatalf("new children = %d, want %d", e.NewChildren, cfg.Branch)
	}
}
