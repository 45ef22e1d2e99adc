package core

import (
	"math/rand"
	"strings"
	"testing"
)

func buildSampleTree(t *testing.T) *Tree {
	t.Helper()
	cfg := testConfig(24, 4, 0.02)
	tr := MustNew(cfg)
	rng := rand.New(rand.NewSource(101))
	zipf := rand.NewZipf(rng, 1.3, 8, 1<<24-1)
	for i := 0; i < 80_000; i++ {
		tr.Add(zipf.Uint64())
	}
	return tr
}

func TestMarshalRoundTrip(t *testing.T) {
	tr := buildSampleTree(t)
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.N() != tr.N() || back.NodeCount() != tr.NodeCount() || back.Total() != tr.Total() {
		t.Fatalf("round trip changed totals: N %d->%d nodes %d->%d total %d->%d",
			tr.N(), back.N(), tr.NodeCount(), back.NodeCount(), tr.Total(), back.Total())
	}
	// ArenaBytes tracks physical slab capacity (growth slack included) and
	// is legitimately smaller after a restore; DescentLevels is ingest
	// history snapshots do not carry, and a restored tree has no start
	// table until it descends. All logical state must match.
	got, want := back.Stats(), tr.Stats()
	got.ArenaBytes, want.ArenaBytes = 0, 0
	got.DescentLevels, want.DescentLevels = 0, 0
	got.StartTableBytes, want.StartTableBytes = 0, 0
	if got != want {
		t.Fatalf("round trip changed stats:\n%+v\n%+v", want, got)
	}
	var a, b strings.Builder
	if err := tr.WriteASCII(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("round trip changed tree structure (ASCII dumps differ)")
	}
}

func TestMarshalThenContinueProfiling(t *testing.T) {
	// A restored tree must keep profiling identically to the original.
	tr := buildSampleTree(t)
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(202))
	for i := 0; i < 20_000; i++ {
		p := rng.Uint64() & (1<<24 - 1)
		tr.Add(p)
		back.Add(p)
	}
	var a, b strings.Builder
	tr.WriteASCII(&a)
	back.WriteASCII(&b)
	if a.String() != b.String() {
		t.Fatal("restored tree diverged from original under identical input")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short magic": []byte("RA"),
		"bad magic":   []byte("XXXX\x01"),
		"bad version": []byte("RAPT\x7f"),
		"truncated":   []byte("RAPT\x01\x20"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var tr Tree
			if err := tr.UnmarshalBinary(data); err == nil {
				t.Fatalf("UnmarshalBinary accepted %q", data)
			}
		})
	}
}

func TestUnmarshalRejectsCorruptNode(t *testing.T) {
	tr := buildSampleTree(t)
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-node-stream: must error, not panic.
	for _, cut := range []int{len(data) / 2, len(data) - 1, 60} {
		var back Tree
		if err := back.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted snapshot truncated to %d bytes", cut)
		}
	}
}
