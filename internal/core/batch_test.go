package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// control builds the reference tree for a batch test by running the exact
// same operation sequence through the unbatched entry points.
func batchTestConfig() Config {
	cfg := testConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	return cfg
}

func skewedPoints(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 4, 1<<16-1)
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(5) == 0 {
			out[i] = rng.Uint64() & 0xFFFF
		} else {
			out[i] = zipf.Uint64()
		}
	}
	return out
}

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	cfg := batchTestConfig()
	points := skewedPoints(1, 120_000)
	seq := MustNew(cfg)
	for _, p := range points {
		seq.Add(p)
	}
	bat := MustNew(cfg)
	for off := 0; off < len(points); off += 777 {
		end := off + 777
		if end > len(points) {
			end = len(points)
		}
		bat.AddBatch(points[off:end])
	}
	if !bytes.Equal(mustMarshal(t, seq), mustMarshal(t, bat)) {
		t.Fatal("AddBatch produced a different tree than sequential Add")
	}
}

// TestStartTableSurvivesStructuralRewrites is the stale-slot regression
// suite: each subtest warms the start table with a batched run, fires one
// structural rewrite that detaches, renumbers or replaces nodes (merge
// batch, Merge, Restore), then requires every warm point's start-table
// descent to land where a root descent does, and keeps requiring it
// before every update of a further batched run. A rewrite that left
// stale slots behind would start descents at freed or renumbered nodes.
func TestStartTableSurvivesStructuralRewrites(t *testing.T) {
	cfg := batchTestConfig()
	warm := skewedPoints(4, 50_000)
	cont := skewedPoints(5, 50_000)

	run := func(t *testing.T, rewrite func(tr *Tree)) {
		t.Helper()
		tr := MustNew(cfg)
		tr.AddBatch(warm)
		rewrite(tr)
		checkDescents(t, tr, warm)
		tr.AddBatch(cont)
		if tr.Total() != tr.N() {
			t.Fatalf("stale slot lost events: Total=%d N=%d", tr.Total(), tr.N())
		}
	}

	t.Run("merge-batch", func(t *testing.T) {
		run(t, (*Tree).MergeNow)
	})
	t.Run("merge", func(t *testing.T) {
		other := MustNew(cfg)
		other.AddBatch(skewedPoints(6, 30_000))
		run(t, func(tr *Tree) {
			if err := tr.Merge(other); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("restore", func(t *testing.T) {
		donor := MustNew(cfg)
		donor.AddBatch(skewedPoints(7, 30_000))
		snap := mustMarshal(t, donor)
		run(t, func(tr *Tree) {
			if err := tr.UnmarshalBinary(snap); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestCloneDoesNotShareStartTable: a clone taken from a warm writer must
// not share its start table — slots a writing clone refreshed would point
// the donor's descents at the clone's node indices.
func TestCloneDoesNotShareStartTable(t *testing.T) {
	cfg := batchTestConfig()
	donor := MustNew(cfg)
	donor.AddBatch(skewedPoints(8, 40_000))
	before := mustMarshal(t, donor)

	clone := donor.Clone()
	checkDescents(t, clone, nil)
	clone.AddBatch(skewedPoints(9, 40_000))
	if !bytes.Equal(before, mustMarshal(t, donor)) {
		t.Fatal("mutating a clone changed the donor tree")
	}
	if clone.Total() != clone.N() {
		t.Fatalf("clone lost events: Total=%d N=%d", clone.Total(), clone.N())
	}

	checkDescents(t, donor, skewedPoints(9, 40_000))
	donor.AddBatch(skewedPoints(10, 40_000))
}
