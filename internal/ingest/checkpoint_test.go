package ingest

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rap/internal/obs"
)

// logCapture collects log output for assertions: a text slog.Handler
// over a locked buffer.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (lc *logCapture) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.Write(p)
}

func (lc *logCapture) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(lc, nil))
}

func (lc *logCapture) String() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.String()
}

func (lc *logCapture) contains(substr string) bool {
	return strings.Contains(lc.String(), substr)
}

// runToCompletion ingests vals under the given options and returns the
// final stats.
func runToCompletion(t *testing.T, opts Options, specs []SourceSpec) *Ingestor {
	t.Helper()
	in, err := Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	vals := zipfVals(10_000, 5)
	opts := testOptions(2)
	opts.CheckpointDir = dir

	in := runToCompletion(t, opts, []SourceSpec{sliceSpec("s", vals)})
	wantN := in.N()
	wantEst := in.Estimate(0, 1<<15)

	// A second Open must restore trees and positions from the final
	// checkpoint without replaying anything, and export the restored
	// trees' split and merge totals, not counts restarted at 0.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	in2, err := Open(opts, []SourceSpec{sliceSpec("s", vals)})
	if err != nil {
		t.Fatal(err)
	}
	checkTreeTotals(t, reg, in2.Stats())
	if got := in2.N(); got != wantN {
		t.Fatalf("restored N = %d, want %d", got, wantN)
	}
	if got := in2.Estimate(0, 1<<15); got != wantEst {
		t.Fatalf("restored estimate = %d, want %d", got, wantEst)
	}
	if got := in2.sources[0].consumed; got != uint64(len(vals)) {
		t.Fatalf("restored position = %d, want %d", got, len(vals))
	}
	// Running again replays nothing: every event is behind the position.
	if err := in2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := in2.N(); got != wantN {
		t.Fatalf("N after idempotent re-run = %d, want %d (events double-counted)", got, wantN)
	}
}

func TestCorruptCheckpointQuarantinedAndPrevUsed(t *testing.T) {
	dir := t.TempDir()
	vals := zipfVals(8_000, 6)
	opts := testOptions(2)
	opts.CheckpointDir = dir

	// First run: leaves checkpoint at 4000 events.
	in := runToCompletion(t, opts, []SourceSpec{sliceSpec("s", vals[:4_000])})
	prevN := in.N()
	// Second run over the full stream rotates the first checkpoint to
	// .prev and writes a fresh one at 8000.
	runToCompletion(t, opts, []SourceSpec{sliceSpec("s", vals)})
	if _, err := os.Stat(filepath.Join(dir, ckPrev)); err != nil {
		t.Fatalf("previous checkpoint not rotated: %v", err)
	}

	// Corrupt the current checkpoint on disk: flip one byte in the body
	// so the CRC no longer matches.
	path := filepath.Join(dir, ckName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	lc := &logCapture{}
	opts.Logger = lc.logger()
	in2, err := Open(opts, []SourceSpec{sliceSpec("s", vals)})
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.N(); got != prevN {
		t.Fatalf("fallback restored N = %d, want previous checkpoint's %d", got, prevN)
	}
	if !lc.contains("quarantined") {
		t.Fatalf("corruption not logged: %q", lc)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, ckName+".corrupt-*"))
	if len(quarantined) != 1 {
		t.Fatalf("quarantine files = %v, want exactly one", quarantined)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still in place after quarantine")
	}
}

func TestBothCheckpointsCorruptStartsFresh(t *testing.T) {
	dir := t.TempDir()
	vals := zipfVals(4_000, 7)
	opts := testOptions(1)
	opts.CheckpointDir = dir

	runToCompletion(t, opts, []SourceSpec{sliceSpec("s", vals[:2_000])})
	runToCompletion(t, opts, []SourceSpec{sliceSpec("s", vals)})
	for _, name := range []string{ckName, ckPrev} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff // break the CRC itself
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	lc := &logCapture{}
	opts.Logger = lc.logger()
	in, err := Open(opts, []SourceSpec{sliceSpec("s", vals)})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.N(); got != 0 {
		t.Fatalf("fresh start has N = %d, want 0", got)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt-*"))
	if len(quarantined) != 2 {
		t.Fatalf("quarantine files = %v, want two", quarantined)
	}
	// And the pipeline still works end to end.
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := in.N(); got != 4_000 {
		t.Fatalf("N = %d after fresh re-ingest, want 4000", got)
	}
}

func TestStaleTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-write leaves a torn temp file; it must never be read as
	// a checkpoint, and the next checkpoint must clobber it.
	if err := os.WriteFile(filepath.Join(dir, ckTmp), []byte("torn half-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(1)
	opts.CheckpointDir = dir
	in := runToCompletion(t, opts, []SourceSpec{sliceSpec("s", zipfVals(1_000, 8))})
	if got := in.N(); got != 1_000 {
		t.Fatalf("N = %d, want 1000", got)
	}
	in2, err := Open(opts, []SourceSpec{sliceSpec("s", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.N(); got != 1_000 {
		t.Fatalf("restored N = %d, want 1000", got)
	}
}

func TestShardCountChangeRejected(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(2)
	opts.CheckpointDir = dir
	runToCompletion(t, opts, []SourceSpec{sliceSpec("s", zipfVals(1_000, 9))})

	opts.Shards = 3
	if _, err := Open(opts, []SourceSpec{sliceSpec("s", nil)}); err == nil {
		t.Fatal("Open accepted a checkpoint with a different shard count")
	}
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint decoder:
// it must reject or accept without ever panicking, and anything it accepts
// must re-encode cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	dir := f.TempDir()
	opts := testOptions(2)
	opts.CheckpointDir = dir
	in, err := Open(opts, []SourceSpec{sliceSpec("s", zipfVals(3_000, 10))})
	if err != nil {
		f.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ckName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-4])
	f.Add([]byte("RAPC\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		for _, tr := range st.trees {
			if _, merr := tr.MarshalBinary(); merr != nil {
				t.Fatalf("accepted checkpoint holds unmarshalable tree: %v", merr)
			}
		}
	})
}
