package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rap/internal/ingest"
	"rap/internal/trace"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func writeTrace(t *testing.T, path string, vals []uint64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, v := range vals {
		if err := w.Write(trace.Event{Value: v, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFlags(t *testing.T) {
	c := parseFlags([]string{
		"-stdin", "-shards", "2", "-drop", "newest",
		"-checkpoint-dir", "/tmp/x", "-epsilon", "0.02",
		"a.trace", "b.trace",
	}, os.Stderr)
	if !c.stdin || c.shards != 2 || c.drop != "newest" ||
		c.checkpointDir != "/tmp/x" || c.epsilon != 0.02 {
		t.Fatalf("parsed config %+v", c)
	}
	if len(c.traces) != 2 || c.traces[0] != "a.trace" {
		t.Fatalf("positional traces %v", c.traces)
	}
}

func TestOptionsRejectsBadDropPolicy(t *testing.T) {
	c := cliConfig{drop: "oldest", epsilon: 0.01, universe: 64, branch: 4}
	if _, err := c.options(discardLogger()); err == nil {
		t.Fatal("bad drop policy accepted")
	}
}

// TestOptionsReadFromEpochs: the ingestor a default config opens serves
// /v1 from epochs, so a request pins a cut instead of locking every shard
// to merge one; the engine has cut its initial epoch before any event.
func TestOptionsReadFromEpochs(t *testing.T) {
	c := cliConfig{stdin: true, shards: 2, drop: "block", epsilon: 0.05, universe: 20, branch: 4}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.specs(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Engine().Publisher().Published(); got != 1 {
		t.Fatalf("ingestor's engine published %d epochs before any event, want the initial one", got)
	}
}

func TestSpecsRequireASource(t *testing.T) {
	c := cliConfig{drop: "block"}
	if _, err := c.specs(nil); err == nil {
		t.Fatal("no sources accepted")
	}
	c.bench = "gzip"
	c.kind = "nonsense"
	if _, err := c.specs(nil); err == nil {
		t.Fatal("bad generator kind accepted")
	}
}

func TestRunEndToEndWithRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(77))
	zipf := rand.NewZipf(rng, 1.2, 8, 1<<20-1)
	vals := make([]uint64, 30_000)
	for i := range vals {
		vals[i] = zipf.Uint64()
	}
	path := filepath.Join(dir, "events.trace")
	writeTrace(t, path, vals)

	c := cliConfig{
		traces:          []string{path},
		shards:          2,
		queue:           64,
		batch:           256,
		drop:            "block",
		epsilon:         0.05,
		universe:        20,
		branch:          4,
		checkpointDir:   filepath.Join(dir, "ck"),
		checkpointEvery: time.Hour,
		readTimeout:     5 * time.Second,
		maxRetries:      2,
	}

	var out bytes.Buffer
	if err := run(context.Background(), c, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "n=30000") {
		t.Fatalf("final stats missing from output:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "ck", "checkpoint.rapc")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Restart over the same trace: the daemon must recover the position
	// from the checkpoint and apply nothing twice.
	var out2 bytes.Buffer
	if err := run(context.Background(), c, &out2); err != nil {
		t.Fatalf("restart run: %v\n%s", err, out2.String())
	}
	if !strings.Contains(out2.String(), "recovered events from checkpoint") ||
		!strings.Contains(out2.String(), "events=30000") {
		t.Fatalf("restart did not recover from checkpoint:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "n=30000") {
		t.Fatalf("restart double-counted or lost events:\n%s", out2.String())
	}
}

func TestRunSignalStyleCancel(t *testing.T) {
	// A generator source large enough to outlive the test: cancellation
	// (what SIGINT/SIGTERM feed through signal.NotifyContext) must yield
	// a clean shutdown with a final checkpoint.
	dir := t.TempDir()
	c := cliConfig{
		bench:           "gzip",
		kind:            "value",
		genN:            50_000_000,
		seed:            1,
		shards:          2,
		queue:           64,
		batch:           256,
		drop:            "block",
		epsilon:         0.05,
		universe:        64,
		branch:          4,
		checkpointDir:   dir,
		checkpointEvery: time.Hour,
		readTimeout:     5 * time.Second,
		maxRetries:      2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, c, &out) }()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on cancel")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.rapc")); err != nil {
		t.Fatalf("shutdown did not flush a final checkpoint: %v", err)
	}

	// The flushed checkpoint must be loadable and non-empty.
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() == 0 {
		t.Fatal("final checkpoint holds no events")
	}
}

func TestValidateFlagCombos(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring, "" for valid
	}{
		{"bare", []string{"-stdin"}, ""},
		{"audit with tuning", []string{"-audit", "-audit-ranges", "8"}, ""},
		{"audit tuning without audit", []string{"-audit-ranges", "8"}, "requires -audit"},
		{"audit cadence without audit", []string{"-audit-every", "1s"}, "requires -audit"},
		{"admit with tuning", []string{"-admit", "-admit-period", "16"}, ""},
		{"admit period without admit", []string{"-admit-period", "16"}, "requires -admit"},
		{"admit arena without admit", []string{"-admit-arena-hard", "1048576"}, "requires -admit"},
		{"admit period zero", []string{"-admit", "-admit-period", "0"}, "period must be >= 1"},
		{"arena thresholds inverted", []string{"-admit", "-admit-arena-soft", "64", "-admit-arena-hard", "32"}, "exceeds"},
		{"arena thresholds ordered", []string{"-admit", "-admit-arena-soft", "32", "-admit-arena-hard", "64"}, ""},
		// Past these the gate's 64-bit coin periods and the watchdog's
		// int64 arena thresholds wrap.
		{"admit period at cap", []string{"-admit", "-admit-period", "144115188075855872"}, ""},
		{"admit period past cap", []string{"-admit", "-admit-period", "144115188075855873"}, "period must be <= 144115188075855872"},
		{"arena soft zero", []string{"-admit", "-admit-arena-soft", "0"}, "threshold must be >= 1"},
		{"arena hard past int64", []string{"-admit", "-admit-arena-hard", "9223372036854775808"}, "threshold must be <= 9223372036854775807"},
		{"arena hard at int64", []string{"-admit", "-admit-arena-hard", "9223372036854775807"}, ""},
		{"flood with knobs", []string{"-bench", "gzip", "-kind", "flood", "-flood-frac", "0.9", "-flood-n", "1000"}, ""},
		{"flood frac without flood kind", []string{"-bench", "gzip", "-flood-frac", "0.9"}, "requires -kind flood"},
		{"flood burst without flood kind", []string{"-bench", "gzip", "-flood-n", "1000"}, "requires -kind flood"},
		{"flood frac out of range", []string{"-bench", "gzip", "-kind", "flood", "-flood-frac", "1.5"}, "must be in [0,1]"},
		{"flood frac negative", []string{"-bench", "gzip", "-kind", "flood", "-flood-frac", "-0.1"}, "must be in [0,1]"},
		{"full hardened stack", []string{"-bench", "gzip", "-kind", "flood", "-admit", "-audit"}, ""},
		{"flight with admin", []string{"-stdin", "-admin", ":0", "-flight-every", "2s", "-flight-depth", "100"}, ""},
		{"flight cadence without admin", []string{"-stdin", "-flight-every", "2s"}, "requires -admin"},
		{"flight depth without admin", []string{"-stdin", "-flight-depth", "100"}, "requires -admin"},
		{"dump bundle without admin", []string{"-stdin", "-dump-bundle", "b.tar.gz"}, "requires -admin"},
		{"flight cadence zero", []string{"-stdin", "-admin", ":0", "-flight-every", "0s"}, "cadence must be positive"},
		{"flight depth zero", []string{"-stdin", "-admin", ":0", "-flight-depth", "0"}, "depth must be >= 1"},
		// Ingest would otherwise run these at its own defaults while the
		// bundle's config, the alert rules and /readyz read what was typed.
		{"shards zero", []string{"-stdin", "-shards", "0"}, "-shards 0: must be >= 1"},
		{"queue zero", []string{"-stdin", "-queue", "0"}, "-queue 0: must be >= 1"},
		{"batch zero", []string{"-stdin", "-batch", "0"}, "-batch 0: must be >= 1"},
		{"batch negative", []string{"-stdin", "-batch", "-5"}, "-batch -5: must be >= 1"},
		{"max retries zero", []string{"-stdin", "-max-retries", "0"}, "-max-retries 0: must be >= 1"},
		{"checkpoint cadence zero", []string{"-stdin", "-checkpoint-dir", "d", "-checkpoint-every", "0s"}, "cadence must be positive"},
		{"checkpoint cadence negative", []string{"-stdin", "-checkpoint-every", "-1s"}, "cadence must be positive"},
		{"audit cadence zero", []string{"-stdin", "-audit", "-audit-every", "0s"}, "cadence must be positive"},
		{"audit cadence negative", []string{"-stdin", "-audit", "-audit-every", "-2s"}, "cadence must be positive"},
		{"sizes at one", []string{"-stdin", "-shards", "1", "-queue", "1", "-batch", "1", "-max-retries", "1"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := parseFlags(tc.args, io.Discard)
			err := c.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combo rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
