package ingest

import (
	"strconv"
	"testing"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
)

// TestTreeHooksEndToEnd drives a real tree with treeHooks installed and
// checks that merge batches are timed exactly as often as the tree's own
// Stats count them and that split/merge events carry the decision state
// as named attributes.
func TestTreeHooksEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	tree := core.MustNew(cfg)
	tree.SetHooks(treeHooks(reg, tr, "0"))

	for i := 0; i < 200_000; i++ {
		tree.Add(uint64(i*2654435761) & 0xffff)
	}
	st := tree.Finalize()

	labels := []obs.Label{obs.L("shard", "0")}
	if got := reg.Histogram(MetricTreeMergeBatchDur, "", nil, labels...).Count(); got != st.MergeBatches {
		t.Fatalf("merge batch duration observations = %d, want %d", got, st.MergeBatches)
	}

	splits, merges := 0, 0
	for _, r := range tr.Spans() {
		switch r.Name {
		case "tree.split":
			splits++
		case "tree.merge":
			merges++
		default:
			t.Fatalf("unknown event %q", r.Name)
		}
		a := attrMap(r)
		lo, _ := strconv.ParseUint(a["lo"], 10, 64)
		hi, _ := strconv.ParseUint(a["hi"], 10, 64)
		if r.DurationNs != 0 || hi < lo || a["shard"] != "0" {
			t.Fatalf("malformed event %+v", r)
		}
		for _, k := range []string{"depth", "count", "threshold", "n"} {
			if a[k] == "" {
				t.Fatalf("event %+v missing attribute %q", r, k)
			}
		}
		count, _ := strconv.ParseFloat(a["count"], 64)
		threshold, _ := strconv.ParseFloat(a["threshold"], 64)
		if r.Name == "tree.split" && count <= threshold {
			t.Fatalf("split recorded below threshold: %+v", r)
		}
	}
	if uint64(splits) != st.Splits || uint64(merges) != st.Merges {
		t.Fatalf("events: %d splits, %d merges; tree stats %d/%d", splits, merges, st.Splits, st.Merges)
	}
	if tr.Evicted() != 0 {
		t.Fatalf("ring evicted %d events; enlarge the test capacity", tr.Evicted())
	}
}

func attrMap(r span.Record) map[string]string {
	m := make(map[string]string, len(r.Attrs))
	for _, a := range r.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestEventsNeedMetrics: a tracer without the metrics plane traces
// batches and checkpoints only. No structural events reach it, even with
// the audit and the admission frontend running.
func TestEventsNeedMetrics(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	opts := admitOptions(2)
	opts.Tracer = tr
	opts.Audit = auditOptions()
	runToCompletion(t, opts, []SourceSpec{sliceSpec("a", floodVals(40_000, 3))})
	for _, r := range tr.Spans() {
		switch r.Name {
		case "ingest.batch", "queue_wait", "apply", "merge_batch":
		default:
			t.Fatalf("span %q recorded without Metrics", r.Name)
		}
	}
	if tr.Recorded() == 0 {
		t.Fatal("no batch spans recorded")
	}
}

// TestDroppedTreeEventIsFree: the split hook runs under the shard lock,
// so an event that loses the head coin must not allocate.
func TestDroppedTreeEventIsFree(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1 << 60, SlowThreshold: -1})
	h := treeHooks(obs.NewRegistry(), tr, "0")
	ev := core.SplitEvent{Lo: 1, Hi: 2, Depth: 3, Count: 4, Threshold: 5, N: 6}
	if allocs := testing.AllocsPerRun(1000, func() { h.Split(ev) }); allocs != 0 {
		t.Fatalf("dropped split event allocated %v times", allocs)
	}
	if tr.Recorded() != 0 {
		t.Fatalf("recorded %d events at a rate of 1 in 2^60", tr.Recorded())
	}
}
