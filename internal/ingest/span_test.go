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
// children, and split/merge decisions are childless zero-duration events.
func TestIngestSpans(t *testing.T) {
	tr := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	reg := obs.NewRegistry()
	opts := testOptions(2)
	opts.Metrics = reg
	opts.Tracer = tr
	opts.CheckpointDir = t.TempDir()
	opts.BatchLen = 256

	vals := zipfVals(80_000, 7)
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

	var batches, checkpoints, events int
	for id, root := range roots {
		kids := map[string]int{}
		for _, k := range byParent[id] {
			kids[k.Name]++
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

// TestBatchSpansAndAllocs is the deterministic gate on tracing and
// buffer cost: spans are built per kept queue entry, never per event, and
// the read buffers are recycled. 1M gzip values go through a 4-shard
// pipeline. With an unsampled tracer each entry
// takes its head decision and builds no span; with every trace sampled
// each entry builds exactly its three spans (ingest.batch, queue_wait,
// apply). Open+Run allocates at most 0.002 times and 4 bytes per event,
// with the unsampled tracer and without one (0.0006 and 2.3 measured). A
// buffer made per read, or spans built for every entry, fails it on any
// machine.
func TestBatchSpansAndAllocs(t *testing.T) {
	const n, batchLen = 1_000_000, 256
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *span.Tracer) (allocs, bytes float64) {
		t.Helper()
		opts := Options{
			Shards:   4,
			BatchLen: batchLen,
			Tracer:   tr,
			Logger:   quietLogger,
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
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	entries := uint64((n + batchLen - 1) / batchLen)

	tr := span.New(span.Options{SampleRate: 1 << 60, SlowThreshold: -1})
	traced, tracedB := run(tr)
	untraced, untracedB := run(nil)
	t.Logf("%d spans started for %d queue entries; %.4f allocs and %.2f B per event traced, %.4f and %.2f untraced",
		tr.Started(), entries, traced, tracedB, untraced, untracedB)
	// Started counts each entry's head decision as its root; an entry
	// that builds its spans adds its two children.
	if got := tr.Started(); got != entries {
		t.Errorf("%d spans started for %d unsampled queue entries, want only their %d head decisions", got, entries, entries)
	}
	if got := len(tr.Spans()); got != 0 {
		t.Errorf("unsampled pipeline recorded %d spans", got)
	}
	for _, g := range []struct {
		name         string
		allocs, size float64
	}{{"traced", traced, tracedB}, {"untraced", untraced, untracedB}} {
		if g.allocs > 0.002 {
			t.Errorf("%s pipeline allocated %.4f times per event, want <= 0.002", g.name, g.allocs)
		}
		if g.size > 4 {
			t.Errorf("%s pipeline allocated %.2f B per event, want <= 4", g.name, g.size)
		}
	}

	all := span.New(span.Options{SampleRate: 1, Capacity: 1 << 15, SlowThreshold: -1})
	run(all)
	spans := all.Spans()
	if got := all.Started(); got != uint64(len(spans)) {
		t.Fatalf("%d spans started but %d recorded with every trace sampled", got, len(spans))
	}
	built := map[string]uint64{}
	for _, s := range spans {
		built[s.Name]++
	}
	for _, name := range []string{"ingest.batch", "queue_wait", "apply"} {
		if built[name] != entries {
			t.Errorf("%d %s spans for %d sampled queue entries, want one each", built[name], name, entries)
		}
	}
}
