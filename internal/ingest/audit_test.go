package ingest

import (
	"testing"
	"time"

	"rap/internal/audit"
	"rap/internal/obs"
	"rap/internal/span"
)

func auditOptions() *audit.Options {
	return &audit.Options{MaxRanges: 16, SpanBits: 8, SamplePeriod: 16, Seed: 3}
}

// TestAuditThroughPipeline runs a checkpointed, audited pipeline end to
// end: periodic and final audit passes must all come back clean, the
// audit metric families must land on the registry, and the new per-stage
// latency histograms must have observed real traffic.
func TestAuditThroughPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	tr := span.New(span.Options{SampleRate: 1000, SlowThreshold: -1})
	opts := testOptions(2)
	opts.CheckpointDir = t.TempDir()
	opts.Metrics = reg
	opts.Tracer = tr
	opts.Audit = auditOptions()
	opts.AuditEvery = 2 * time.Millisecond // fire mid-run, not only at drain

	in := runToCompletion(t, opts, []SourceSpec{
		sliceSpec("a", zipfVals(40_000, 31)),
		sliceSpec("b", zipfVals(40_000, 32)),
	})

	a := in.Auditor()
	if a == nil {
		t.Fatal("Auditor() nil with Options.Audit set")
	}
	rep, ok := a.Report()
	if !ok {
		t.Fatal("no audit pass completed")
	}
	if rep.Verdict != "ok" || rep.ViolationsTotal != 0 {
		t.Fatalf("audit verdict %q, %d violations: %+v", rep.Verdict, rep.ViolationsTotal, rep)
	}
	if rep.N != in.N() || rep.TapN != rep.N {
		t.Fatalf("audit cut n=%d tap_n=%d, engine n=%d", rep.N, rep.TapN, in.N())
	}
	if len(rep.Ranges) < 2 {
		t.Fatalf("only %d audited ranges; sampling never adopted", len(rep.Ranges))
	}
	if float64(rep.MaxUnderestimate) > rep.Budget {
		t.Fatalf("max underestimate %d exceeds budget %v", rep.MaxUnderestimate, rep.Budget)
	}

	// Metric families: the audit's counters and the stage latencies.
	fams := map[string]float64{}
	counts := map[string]uint64{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			fams[f.Name] += s.Value
			counts[f.Name] += s.Count
		}
	}
	if fams[audit.MetricAuditPasses] < 1 {
		t.Fatalf("%s = %v, want >= 1", audit.MetricAuditPasses, fams[audit.MetricAuditPasses])
	}
	if fams[audit.MetricAuditViolations] != 0 {
		t.Fatalf("%s = %v, want 0", audit.MetricAuditViolations, fams[audit.MetricAuditViolations])
	}
	if fams[audit.MetricAuditChecks] == 0 {
		t.Fatalf("%s never incremented", audit.MetricAuditChecks)
	}
	if fams["rap_tree_arena_bytes"] <= 0 {
		t.Fatalf("rap_tree_arena_bytes = %v, want > 0", fams["rap_tree_arena_bytes"])
	}
	for _, name := range []string{
		"rap_ingest_queue_wait_seconds",
		"rap_ingest_apply_seconds",
		"rap_checkpoint_cut_seconds",
		"rap_checkpoint_write_seconds",
	} {
		if counts[name] == 0 {
			t.Fatalf("latency histogram %s observed nothing", name)
		}
	}
	if st := in.Stats(); st.ArenaBytes == 0 {
		t.Fatal("Stats.ArenaBytes = 0 after ingest")
	}
}

// TestAuditSurvivesPipelineRestore reopens a checkpointed pipeline with
// auditing enabled: the new auditor attaches after recovery, so restored
// mass is pre-audit baseN (never double-counted as tapped truth) and the
// post-restore epoch audits clean without a single rebase.
func TestAuditSurvivesPipelineRestore(t *testing.T) {
	dir := t.TempDir()
	first := zipfVals(30_000, 41)
	opts := testOptions(2)
	opts.CheckpointDir = dir
	opts.Audit = auditOptions()
	in1 := runToCompletion(t, opts, []SourceSpec{sliceSpec("a", first)})
	restored := in1.N()
	if restored != uint64(len(first)) {
		t.Fatalf("first run applied %d, want %d", restored, len(first))
	}

	second := zipfVals(25_000, 42)
	reg := obs.NewRegistry()
	opts2 := testOptions(2)
	opts2.CheckpointDir = dir
	opts2.Metrics = reg
	opts2.Audit = auditOptions()
	in2 := runToCompletion(t, opts2, []SourceSpec{
		sliceSpec("a", first), // replays from checkpoint position: no new events
		sliceSpec("b", second),
	})

	if got, want := in2.N(), restored+uint64(len(second)); got != want {
		t.Fatalf("restored pipeline n=%d, want %d", got, want)
	}
	rep, ok := in2.Auditor().Report()
	if !ok {
		t.Fatal("no audit pass after restore")
	}
	if rep.Verdict != "ok" || rep.ViolationsTotal != 0 {
		t.Fatalf("post-restore audit verdict %q, %d violations", rep.Verdict, rep.ViolationsTotal)
	}
	if rep.RebasesTotal != 0 {
		t.Fatalf("post-restore attach should not rebase, saw %d", rep.RebasesTotal)
	}
	if rep.BaseN != restored {
		t.Fatalf("audit baseN = %d, want restored mass %d", rep.BaseN, restored)
	}
	if rep.TapN != uint64(len(second)) {
		t.Fatalf("audit tapN = %d, want only the new mass %d (no double count)",
			rep.TapN, len(second))
	}

	// The stage histograms are registered and observing on the restored
	// pipeline too.
	for _, f := range reg.Snapshot() {
		if f.Name == "rap_ingest_apply_seconds" {
			var c uint64
			for _, s := range f.Series {
				c += s.Count
			}
			if c == 0 {
				t.Fatal("apply histogram observed nothing after restore")
			}
			return
		}
	}
	t.Fatal("rap_ingest_apply_seconds missing after restore")
}
