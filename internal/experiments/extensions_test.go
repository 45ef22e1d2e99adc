// The experiments start no goroutine, so the race detector has nothing
// to find here and only slows them tenfold; CI runs them without -race.

//go:build !race

package experiments

import (
	"strings"
	"testing"
)

func TestExtensions(t *testing.T) {
	r, err := Extensions(Options{Events: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Edge profiling: bounded memory, hot edges found, coverage sane.
	if r.EdgeEvents == 0 || r.EdgeNodes == 0 {
		t.Fatal("edge profile empty")
	}
	if len(r.HotEdges) == 0 {
		t.Fatal("no hot edges on a loopy code stream")
	}
	if r.HotEdgeShare <= 0 || r.HotEdgeShare > 1.0001 {
		t.Fatalf("hot edge share %.3f out of range", r.HotEdgeShare)
	}
	for _, c := range r.HotEdges {
		if c.XLo > c.XHi || c.YLo > c.YHi {
			t.Fatalf("inverted hot cell %+v", c)
		}
	}

	// Sampling: smaller tree, agreeing hot sets, small scaled error.
	if r.SampledNodes >= r.PlainNodes {
		t.Errorf("sampled tree (%d) not smaller than plain (%d)", r.SampledNodes, r.PlainNodes)
	}
	if r.SampledHotAgree < 0.7 {
		t.Errorf("sampled hot-set agreement %.2f too low", r.SampledHotAgree)
	}
	if r.SampledRangeErrPct > 25 {
		t.Errorf("scaled range error %.2f%% too high", r.SampledRangeErrPct)
	}

	// Phases: few boundaries, and at least one in the middle half of the
	// run where the workload's activations flip.
	if len(r.PhaseBoundaries) == 0 || len(r.PhaseBoundaries) > 6 {
		t.Errorf("phase boundaries = %v, want a small non-empty set", r.PhaseBoundaries)
	}

	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "edge profiling") {
		t.Fatal("print output malformed")
	}
}
