package ingest

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rap/internal/obs"
	"rap/internal/span"
	"rap/internal/trace"
	"rap/internal/workload"
)

// TestIngestSpans drives a traced pipeline end to end and checks the span
// shape: every kept ingest.batch trace carries queue_wait and apply
// children linked to its root, checkpoint traces carry cut and write
// children, an epoch publish triggered inside an apply is attributed
// to that batch's trace, and split/merge decisions are childless
// zero-duration events.
func TestIngestSpans(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	reg := obs.NewRegistry()
	opts := testOptions(2)
	opts.Metrics = reg
	opts.Tracer = tr
	opts.ReadSnapshots = true
	opts.SnapshotEvery = 1 << 12
	opts.CheckpointDir = t.TempDir()
	opts.BatchLen = 256

	vals := zipfVals(40_000, 7)
	in, err := Open(opts, []SourceSpec{sliceSpec("traced", vals)})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byParent := map[string][]span.Record{}
	roots := map[string]span.Record{}
	for _, s := range spans {
		if s.ParentID == "" {
			roots[s.SpanID] = s
		} else {
			byParent[s.ParentID] = append(byParent[s.ParentID], s)
		}
	}

	var batches, checkpoints, publishes, events int
	for id, root := range roots {
		kids := map[string]int{}
		var applyID string
		for _, k := range byParent[id] {
			kids[k.Name]++
			if k.Name == "apply" {
				applyID = k.SpanID
			}
			if k.TraceID != root.TraceID {
				t.Fatalf("child %s not in parent trace", k.Name)
			}
		}
		switch root.Name {
		case "ingest.batch":
			batches++
			if kids["queue_wait"] != 1 || kids["apply"] != 1 {
				t.Fatalf("batch trace children = %v", kids)
			}
			for _, g := range byParent[applyID] {
				if g.Name == "epoch_publish" {
					publishes++
				}
			}
		case "checkpoint":
			checkpoints++
			if kids["cut"] != 1 || kids["write"] != 1 {
				t.Fatalf("checkpoint trace children = %v", kids)
			}
		case "tree.split", "tree.merge":
			events++
			if len(kids) != 0 || root.DurationNs != 0 {
				t.Fatalf("%s event has children %v or duration %d", root.Name, kids, root.DurationNs)
			}
		default:
			t.Fatalf("unexpected root span %q", root.Name)
		}
	}
	if batches == 0 {
		t.Fatal("no ingest.batch traces recorded")
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint trace recorded (final checkpoint should produce one)")
	}
	if events == 0 {
		t.Fatal("no split/merge events recorded beside the metrics plane")
	}
	// 40k events at SnapshotEvery=4096 must publish inside applies.
	if publishes == 0 {
		t.Fatal("no epoch_publish span attributed to a batch apply")
	}

	// The adaptive stage profiles saw the same batches the spans did.
	profs := in.Profiles()
	if profs == nil {
		t.Fatal("Profiles() nil with metrics registered")
	}
	wantObs := uint64(batches)
	for _, stage := range []string{"queue_wait", "apply"} {
		h := profs[stage]
		if h == nil {
			t.Fatalf("missing %s profile", stage)
		}
		if h.Count() < wantObs {
			t.Fatalf("%s profile saw %d observations, want >= %d batches", stage, h.Count(), wantObs)
		}
		hot := h.HotRanges(0.2)
		if len(hot) == 0 {
			t.Fatalf("%s profile has no hot ranges after %d observations", stage, h.Count())
		}
		found := false
		for _, hr := range hot {
			if len(hr.Exemplars) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s hot ranges carry no span exemplars: %+v", stage, hot)
		}
	}
}

// TestIngestUnsampledCheap checks the never-sampled configuration records
// nothing while the pipeline still works — the overhead-gate configuration.
func TestIngestUnsampledCheap(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1 << 62, SlowThreshold: -1})
	opts := testOptions(1)
	opts.Tracer = tr
	vals := zipfVals(10_000, 11)
	in, err := Open(opts, []SourceSpec{sliceSpec("quiet", vals)})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if in.N() == 0 {
		t.Fatal("pipeline applied nothing")
	}
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("unsampled run recorded %d spans", got)
	}
	if tr.Started() == 0 {
		t.Fatal("tracer saw no spans at all — not wired")
	}
}

// TestIngestSlowApplyPromoted checks the slow-op path end to end in the
// pipeline: with an absurdly low threshold, stage spans are promoted even
// though head sampling keeps nothing.
func TestIngestSlowApplyPromoted(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1 << 62, SlowThreshold: time.Nanosecond})
	opts := testOptions(1)
	opts.Tracer = tr
	in, err := Open(opts, []SourceSpec{sliceSpec("slow", zipfVals(2_000, 13))})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	slow := tr.SlowOps()
	if len(slow) == 0 {
		t.Fatal("no slow ops with a 1ns threshold")
	}
}

// TestBatchSpansAndAllocs is the deterministic gate on tracing cost: spans
// are per queue entry, never per event. 1M gzip values through a 4-shard
// pipeline with read snapshots on and an unsampled tracer start exactly
// three spans per entry (ingest.batch, queue_wait, apply), and Open+Run
// allocates at most 0.05 times per event with the tracer and 0.01 without
// (0.032 and 0.005 measured). A span or an allocation per event fails it
// on any machine.
func TestBatchSpansAndAllocs(t *testing.T) {
	const n, batchLen = 1_000_000, 256
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	allocsPerEvent := func(tr *span.Tracer) float64 {
		t.Helper()
		opts := Options{
			Shards:        4,
			BatchLen:      batchLen,
			ReadSnapshots: true,
			Tracer:        tr,
			Logger:        quietLogger,
		}
		spec := GeneratorSource("gzip", func() trace.Source { return trace.Limit(gzip.Values(1, n), n) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in, err := Open(opts, []SourceSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := in.N(); got != n {
			t.Fatalf("N = %d, want %d", got, n)
		}
		return float64(after.Mallocs-before.Mallocs) / n
	}

	tr := span.New(span.Options{SampleRate: 1 << 60, SlowThreshold: -1})
	traced := allocsPerEvent(tr)
	untraced := allocsPerEvent(nil)
	entries := uint64((n + batchLen - 1) / batchLen)
	t.Logf("%d spans for %d queue entries; %.4f allocs/event traced, %.4f untraced",
		tr.Started(), entries, traced, untraced)
	if got := tr.Started(); got != 3*entries {
		t.Errorf("%d spans started for %d queue entries, want 3 per entry", got, entries)
	}
	if traced > 0.05 {
		t.Errorf("traced pipeline allocated %.4f times per event, want <= 0.05", traced)
	}
	if untraced > 0.01 {
		t.Errorf("untraced pipeline allocated %.4f times per event, want <= 0.01", untraced)
	}
}
