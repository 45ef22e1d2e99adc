package ingest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
	"rap/internal/trace"
)

// TestMetricsRegistration runs a checkpointed pipeline with a registry
// attached and checks the exposition carries the core split/merge,
// queue, and checkpoint metrics with values that reconcile with Stats.
func TestMetricsRegistration(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	tr := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	opts := testOptions(2)
	opts.CheckpointDir = dir
	opts.Metrics = reg
	opts.Tracer = tr

	in := runToCompletion(t, opts, []SourceSpec{
		sliceSpec("a", zipfVals(30_000, 21)),
		sliceSpec("b", zipfVals(30_000, 22)),
	})
	st := in.Stats()

	checkTreeTotals(t, reg, st)
	var events int
	for _, r := range tr.Spans() {
		if strings.HasPrefix(r.Name, "tree.") {
			events++
		}
	}
	if events == 0 {
		t.Fatal("tracer recorded no split/merge events")
	}

	if st.Checkpoint.Written == 0 || st.Checkpoint.LastAt.IsZero() ||
		st.Checkpoint.LastSize == 0 {
		t.Fatalf("checkpoint stats not recorded: %+v", st.Checkpoint)
	}
	if age := st.Checkpoint.Age(time.Now()); age < 0 || age > time.Minute {
		t.Fatalf("implausible checkpoint age %v", age)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rap_tree_splits_total{shard="0"}`,
		`rap_tree_descent_levels_total{shard="0"}`,
		`rap_tree_start_table_bytes{shard="1"}`,
		`rap_tree_error_budget{shard="1"}`,
		`rap_ingest_queue_depth{source="a"}`,
		`rap_ingest_queue_capacity{source="b"}`,
		`rap_ingest_applied_total{source="a"}`,
		"rap_checkpoint_written_total 1",
		"rap_checkpoint_seconds_count 1",
		"rap_checkpoint_staleness_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// A checkpoint just landed, so staleness is near zero — and in
	// particular not the -1 sentinel rap_checkpoint_last_age_seconds uses.
	for _, fam := range reg.Snapshot() {
		if fam.Name != "rap_checkpoint_staleness_seconds" {
			continue
		}
		if v := fam.Series[0].Value; v < 0 || v > 60 {
			t.Fatalf("staleness = %v, want small and non-negative", v)
		}
	}
}

// checkTreeTotals requires the split, merge and merge-batch totals
// exported across shards to equal the engine's Stats, and the stream to
// have split at all.
func checkTreeTotals(t *testing.T, reg *obs.Registry, st Stats) {
	t.Helper()
	sums := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			sums[fam.Name] += s.Value
		}
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{MetricTreeSplits, st.Splits},
		{MetricTreeMerges, st.Merges},
		{MetricTreeMergeBatches, st.MergeBatches},
	} {
		if got := sums[c.name]; uint64(got) != c.want {
			t.Errorf("%s = %v, stats = %d", c.name, got, c.want)
		}
	}
	if st.Splits == 0 {
		t.Fatal("stream produced no splits; test is vacuous")
	}
}

// TestDropNewestAccountingReconciles pins the ε·n + dropped bound's
// bookkeeping: under forced DropNewest overload, every event offered to
// the pipeline is either applied to a shard tree or counted as dropped —
// none vanish. The shard applier is stalled by holding the shard lock,
// so the bounded queue overflows deterministically.
func TestDropNewestAccountingReconciles(t *testing.T) {
	const offered = 50_000
	opts := testOptions(1)
	opts.Drop = DropNewest
	opts.QueueLen = 4
	opts.BatchLen = 16
	in, err := Open(opts, []SourceSpec{
		sliceSpec("x", zipfVals(offered/2, 31)),
		sliceSpec("y", zipfVals(offered/2, 32)),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stall the single shard's applier: it will pop at most one batch and
	// then block on the lock, so the 4-batch queue must overflow.
	held := make(chan struct{})
	release := make(chan struct{})
	go in.Engine().WithShard(0, func(*core.Tree) {
		close(held)
		<-release
	})
	<-held
	done := make(chan error, 1)
	go func() { done <- in.Run(context.Background()) }()
	time.Sleep(100 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := in.Stats()
	var applied uint64
	for _, s := range st.Sources {
		applied += s.Applied
	}
	if applied+st.Dropped != offered {
		t.Fatalf("applied %d + dropped %d = %d, want offered %d (events vanished or double-counted)",
			applied, st.Dropped, applied+st.Dropped, offered)
	}
	if st.N != applied {
		t.Fatalf("tree N = %d, applied = %d (tree and accounting disagree)", st.N, applied)
	}
	if st.Dropped == 0 {
		t.Fatal("overload produced no drops; stall did not bite")
	}
}

// TestStatsReportQueueAndBackoff checks the new SourceStats fields are
// populated: queue geometry always, backoff while a source is retrying.
func TestStatsReportQueueAndBackoff(t *testing.T) {
	opts := testOptions(1)
	opts.QueueLen = 7
	opts.MaxRetries = 3
	opts.BackoffBase = 200 * time.Millisecond
	opts.BackoffMax = 200 * time.Millisecond
	errOpen := errors.New("open refused")
	failing := SourceSpec{
		Name: "flaky",
		Open: func() (trace.Source, error) { return nil, errOpen },
	}
	in, err := Open(opts, []SourceSpec{failing})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- in.Run(context.Background()) }()

	// Poll until the source is inside a backoff window.
	deadline := time.Now().Add(5 * time.Second)
	var saw bool
	for time.Now().Before(deadline) {
		st := in.Stats()
		s := st.Sources[0]
		if s.QueueCap != 7 {
			t.Fatalf("queue capacity = %d, want 7", s.QueueCap)
		}
		if s.Backoff > 0 {
			saw = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !saw {
		t.Fatal("never observed a source in backoff")
	}
	if err := <-done; err == nil {
		t.Fatal("permanently failing source did not surface an error")
	}
	if st := in.Stats(); !st.Sources[0].Failed || st.Sources[0].Backoff != 0 {
		t.Fatalf("terminal source state %+v", st.Sources[0])
	}
}
