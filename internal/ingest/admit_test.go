package ingest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rap/internal/admit"
	"rap/internal/core"
	"rap/internal/trace"
)

// admitOptions is testOptions over the full 64-bit universe (so a key
// flood is actually cold to the warm sketch) with the admission frontend
// wired in.
func admitOptions(shards int) Options {
	return Options{
		Tree:        core.DefaultConfig(),
		Shards:      shards,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Logger:      quietLogger,
		Admission:   &admit.Options{Seed: 7},
	}
}

// floodVals returns n distinct 64-bit keys — a replayable slice-backed
// stand-in for the adversarial flood, so checkpoint recovery can re-read
// the same stream.
func floodVals(n int, seed uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		v := (seed + uint64(i)) * 0x9e3779b97f4a7c15 // odd multiplier: bijective
		v ^= v >> 29
		out[i] = v
	}
	return out
}

// TestIngestAdmissionMassReconciles is the pipeline mass-conservation
// test: with admission gating every shard tree, every unit of offered
// weight must be accounted for as admitted (tree), unadmitted (ledger),
// or dropped (shed before the tree) — per source and in aggregate.
func TestIngestAdmissionMassReconciles(t *testing.T) {
	const perSource = 40_000
	in, err := Open(admitOptions(2), []SourceSpec{
		sliceSpec("flood-a", floodVals(perSource, 1)),
		sliceSpec("flood-b", floodVals(perSource, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Admission() == nil {
		t.Fatal("Admission() = nil with Options.Admission set")
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := in.Stats()
	if st.Unadmitted == 0 {
		t.Fatal("a pure key flood got everything admitted; the gate did nothing")
	}
	if got, want := st.N+st.Unadmitted+st.Dropped, uint64(2*perSource); got != want {
		t.Fatalf("mass leak: admitted %d + unadmitted %d + dropped %d = %d, want offered %d",
			st.N, st.Unadmitted, st.Dropped, got, want)
	}

	var sumAdmitted, sumUnadmitted uint64
	for _, s := range st.Sources {
		if s.Offered != s.Applied+s.Dropped {
			t.Fatalf("source %q: offered %d != applied %d + dropped %d",
				s.Name, s.Offered, s.Applied, s.Dropped)
		}
		// Weight-1 events: the refused weight is a count of applied
		// events, and the rest of them were credited.
		if s.Unadmitted > s.Applied {
			t.Fatalf("source %q: unadmitted %d exceeds applied %d",
				s.Name, s.Unadmitted, s.Applied)
		}
		if s.Offered != perSource {
			t.Fatalf("source %q offered %d, want %d", s.Name, s.Offered, perSource)
		}
		sumAdmitted += s.Applied - s.Unadmitted
		sumUnadmitted += s.Unadmitted
	}
	if sumAdmitted != st.N {
		t.Fatalf("per-source admitted sums to %d but trees credit %d", sumAdmitted, st.N)
	}
	if sumUnadmitted != st.Unadmitted {
		t.Fatalf("per-source unadmitted sums to %d but tree ledgers hold %d", sumUnadmitted, st.Unadmitted)
	}

	// The frontend's own counters are the same mass seen from the gate
	// side of the boundary.
	fs := in.Admission().Stats()
	if fs.Admitted != st.N || fs.Unadmitted != st.Unadmitted {
		t.Fatalf("frontend saw admitted/unadmitted %d/%d, trees report %d/%d",
			fs.Admitted, fs.Unadmitted, st.N, st.Unadmitted)
	}
}

// TestIngestAdmissionWeightedLedger floods the gate with distinct keys at
// weight 1000 through a trace reader, the path a weighted trace file takes
// into rapd. A source's Applied counts events but its Unadmitted counts
// weight, so the ledger reconciles in weight: credited plus refused weight
// is the offered weight, and the per-source refusals sum to the trees'
// ledgers.
func TestIngestAdmissionWeightedLedger(t *testing.T) {
	const events, weight = 40_000, 1000
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, v := range floodVals(events, 1) {
		if err := w.Write(trace.Event{Value: v, Weight: weight}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	in := runToCompletion(t, admitOptions(1), []SourceSpec{
		GeneratorSource("weighted", func() trace.Source { return trace.NewReader(bytes.NewReader(data)) }),
	})

	st := in.Stats()
	if st.Unadmitted == 0 {
		t.Fatal("a weighted key flood got everything admitted; the gate did nothing")
	}
	if got, want := st.N+st.Unadmitted, uint64(events*weight); got != want {
		t.Fatalf("weight leak: credited %d + unadmitted %d = %d, want offered %d",
			st.N, st.Unadmitted, got, want)
	}
	var sumUnadmitted uint64
	for _, s := range st.Sources {
		if s.Applied != events {
			t.Fatalf("source %q applied %d, want %d events", s.Name, s.Applied, events)
		}
		sumUnadmitted += s.Unadmitted
	}
	if sumUnadmitted != st.Unadmitted {
		t.Fatalf("per-source unadmitted sums to %d but tree ledgers hold %d", sumUnadmitted, st.Unadmitted)
	}
	t.Logf("applied %d events, credited %d, unadmitted %d", events, st.N, st.Unadmitted)
}

// TestAdmissionLedgerSurvivesRecovery kills an admission-gated pipeline
// after a checkpoint and restarts it: the per-source unadmitted counters
// (checkpoint v2) and the tree ledgers (snapshot v3) must be restored
// coherently, and mass conservation must hold over the full replayed
// stream.
func TestAdmissionLedgerSurvivesRecovery(t *testing.T) {
	const perSource = 30_000
	dir := t.TempDir()
	valsA := floodVals(perSource, 11)
	valsB := floodVals(perSource, 12)

	opts := admitOptions(2)
	opts.CheckpointDir = dir

	// Epoch 1: ingest a prefix and checkpoint it on shutdown.
	run1 := runToCompletion(t, opts, []SourceSpec{
		sliceSpec("a", valsA[:20_000]),
		sliceSpec("b", valsB[:20_000]),
	})
	st1 := run1.Stats()
	if st1.Unadmitted == 0 {
		t.Fatal("epoch 1 refused nothing; test needs a live ledger to recover")
	}
	if st1.N+st1.Unadmitted != 40_000 {
		t.Fatalf("epoch 1 mass leak: %d + %d != 40000", st1.N, st1.Unadmitted)
	}

	// Epoch 2: restart against the full streams. Recovery must restore
	// both sides of the admission ledger before any new event flows.
	recovered, err := Open(opts, []SourceSpec{
		sliceSpec("a", valsA),
		sliceSpec("b", valsB),
	})
	if err != nil {
		t.Fatal(err)
	}
	rst := recovered.Stats()
	if rst.N != st1.N || rst.Unadmitted != st1.Unadmitted {
		t.Fatalf("restored N/unadmitted %d/%d, want checkpoint's %d/%d",
			rst.N, rst.Unadmitted, st1.N, st1.Unadmitted)
	}
	var restoredUnadmitted uint64
	for _, s := range rst.Sources {
		restoredUnadmitted += s.Unadmitted
	}
	if restoredUnadmitted != st1.Unadmitted {
		t.Fatalf("restored per-source unadmitted sums to %d, want %d", restoredUnadmitted, st1.Unadmitted)
	}

	if err := recovered.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fst := recovered.Stats()
	if got, want := fst.N+fst.Unadmitted+fst.Dropped, uint64(2*perSource); got != want {
		t.Fatalf("post-recovery mass leak: %d + %d + %d = %d, want %d",
			fst.N, fst.Unadmitted, fst.Dropped, got, want)
	}
	for _, s := range fst.Sources {
		if s.Offered != perSource {
			t.Fatalf("source %q offered %d after recovery, want %d (exactly-once replay broken)",
				s.Name, s.Offered, perSource)
		}
	}
}
