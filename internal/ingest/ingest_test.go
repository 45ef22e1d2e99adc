package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rap/internal/core"
	"rap/internal/exact"
	"rap/internal/faults"
	"rap/internal/obs"
	"rap/internal/trace"
)

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func testOptions(shards int) Options {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	return Options{
		Tree:        cfg,
		Shards:      shards,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Logger:      quietLogger,
	}
}

func zipfVals(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 8, 1<<16-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

func sliceSpec(name string, vals []uint64) SourceSpec {
	return GeneratorSource(name, func() trace.Source {
		return trace.NewSliceSource(vals)
	})
}

// checkLowerBound asserts the aggregated estimate is a valid lower bound
// within eps*n (plus dropped events) of the exact baseline over a spread
// of random ranges.
func checkLowerBound(t *testing.T, in *Ingestor, ex *exact.Profiler, dropped uint64, seed int64) {
	t.Helper()
	slack := in.opts.Tree.Epsilon*float64(ex.N()) + float64(dropped)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 60; i++ {
		lo := rng.Uint64() & (1<<16 - 1)
		hi := lo + rng.Uint64()&0xfff
		est := in.Estimate(lo, hi)
		truth := ex.RangeCount(lo, hi)
		if est > truth {
			t.Fatalf("range [%#x,%#x]: estimate %d exceeds exact %d (not a lower bound)",
				lo, hi, est, truth)
		}
		if float64(truth-est) > slack {
			t.Fatalf("range [%#x,%#x]: estimate %d short of exact %d by more than %.0f",
				lo, hi, est, truth, slack)
		}
	}
}

func TestIngestMultiSourceSharded(t *testing.T) {
	const perSource = 20_000
	ex := exact.New()
	var specs []SourceSpec
	for i := 0; i < 5; i++ {
		vals := zipfVals(perSource, int64(100+i))
		for _, v := range vals {
			ex.Add(v)
		}
		specs = append(specs, sliceSpec("src-"+string(rune('a'+i)), vals))
	}

	in, err := Open(testOptions(3), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got, want := in.N(), uint64(5*perSource); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	st := in.Stats()
	if len(st.Sources) != 5 {
		t.Fatalf("stats cover %d sources, want 5", len(st.Sources))
	}
	for _, s := range st.Sources {
		if s.Applied != perSource || s.Dropped != 0 || s.Failed {
			t.Fatalf("source %q: %+v, want %d applied and no loss", s.Name, s, perSource)
		}
	}
	checkLowerBound(t, in, ex, 0, 7)
}

func TestIngestDropAccountingStaysHonest(t *testing.T) {
	const total = 2_000
	vals := zipfVals(total, 42)
	ex := exact.New()
	for _, v := range vals {
		ex.Add(v)
	}

	opts := testOptions(1)
	opts.Drop = DropNewest
	opts.QueueLen = 1
	opts.BatchLen = 1
	in, err := Open(opts, []SourceSpec{sliceSpec("flood", vals)})
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the shard: a goroutine parks inside WithShard holding the
	// shard lock, so the worker blocks inside apply, the queue fills, and
	// the reader must shed load instead of stalling or crashing.
	held := make(chan struct{})
	release := make(chan struct{})
	go in.engine.WithShard(0, func(*core.Tree) {
		close(held)
		<-release
	})
	<-held
	done := make(chan error, 1)
	go func() { done <- in.Run(context.Background()) }()
	deadline := time.After(5 * time.Second)
	for in.sources[0].dropped.Load() == 0 {
		select {
		case <-deadline:
			close(release)
			t.Fatal("no drops observed while shard was wedged")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := in.Stats()
	src := st.Sources[0]
	if src.Dropped == 0 {
		t.Fatal("expected dropped events under overload")
	}
	// Conservation: every event is either applied or accounted as dropped
	// — this is what keeps the eps*n + dropped error bound honest.
	if src.Applied+src.Dropped != total {
		t.Fatalf("applied %d + dropped %d != %d", src.Applied, src.Dropped, total)
	}
	if in.N() != total-src.Dropped {
		t.Fatalf("N %d != total %d - dropped %d", in.N(), uint64(total), src.Dropped)
	}
	checkLowerBound(t, in, ex, src.Dropped, 8)
}

func TestIngestRetriesTransientFailure(t *testing.T) {
	const total = 5_000
	vals := zipfVals(total, 9)
	errFlaky := errors.New("flaky read")
	opens := 0
	spec := SourceSpec{
		Name: "flaky",
		Open: func() (trace.Source, error) {
			opens++
			if opens == 1 {
				return &faults.Source{
					S:         trace.NewSliceSource(vals),
					FailAfter: 700,
					FailErr:   errFlaky,
				}, nil
			}
			return trace.NewSliceSource(vals), nil
		},
	}

	in, err := Open(testOptions(2), []SourceSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Exactly once despite the mid-stream failure: the reopen skips the
	// 700 events already handed off.
	if got := in.N(); got != total {
		t.Fatalf("N = %d after transient failure, want %d", got, total)
	}
	st := in.Stats()
	if st.Sources[0].Retries == 0 {
		t.Fatal("retry not recorded")
	}
	if st.Sources[0].Failed {
		t.Fatal("recovered source marked failed")
	}
}

func TestIngestStallDetectedAndReopened(t *testing.T) {
	const total = 3_000
	vals := zipfVals(total, 11)
	opens := 0
	spec := SourceSpec{
		Name: "stall",
		Open: func() (trace.Source, error) {
			opens++
			if opens == 1 {
				return &faults.Source{
					S:          trace.NewSliceSource(vals),
					StallEvery: 501, // hang on event 501
					StallFor:   time.Second,
				}, nil
			}
			return trace.NewSliceSource(vals), nil
		},
	}

	opts := testOptions(1)
	opts.ReadTimeout = 50 * time.Millisecond
	in, err := Open(opts, []SourceSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("run took %v: stalled source was waited out, not abandoned", d)
	}
	if got := in.N(); got != total {
		t.Fatalf("N = %d after stall recovery, want %d", got, total)
	}
	st := in.Stats()
	if st.Sources[0].Retries == 0 || !strings.Contains(st.Sources[0].LastErr, "stalled") {
		t.Fatalf("stall not recorded in stats: %+v", st.Sources[0])
	}
}

func TestIngestPermanentFailure(t *testing.T) {
	errDead := errors.New("disk on fire")
	spec := SourceSpec{
		Name: "dead",
		Open: func() (trace.Source, error) { return nil, errDead },
	}
	opts := testOptions(1)
	opts.MaxRetries = 2
	in, err := Open(opts, []SourceSpec{spec, sliceSpec("ok", zipfVals(1_000, 3))})
	if err != nil {
		t.Fatal(err)
	}
	err = in.Run(context.Background())
	if err == nil || !errors.Is(err, errDead) {
		t.Fatalf("Run = %v, want wrapped %v", err, errDead)
	}
	// One dead source must not take down the rest of the pipeline.
	if got := in.N(); got != 1_000 {
		t.Fatalf("healthy source applied %d events, want 1000", got)
	}
	st := in.Stats()
	var dead SourceStats
	for _, s := range st.Sources {
		if s.Name == "dead" {
			dead = s
		}
	}
	if !dead.Failed || dead.Retries != 3 || !strings.Contains(dead.LastErr, "disk on fire") {
		t.Fatalf("dead source stats: %+v", dead)
	}
}

func TestIngestGracefulCancel(t *testing.T) {
	// An endless source: cancellation is the only way out, and Run must
	// come back promptly with the queues drained.
	var i uint64
	endless := GeneratorSource("endless", func() trace.Source {
		return trace.FuncSource(func() (uint64, bool) {
			i++
			return i & (1<<16 - 1), true
		})
	})
	opts := testOptions(2)
	ctx, cancel := context.WithCancel(context.Background())
	in, err := Open(opts, []SourceSpec{endless})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- in.Run(ctx) }()
	for in.N() < 10_000 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if in.N() == 0 {
		t.Fatal("nothing ingested before cancel")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(testOptions(1), nil); err == nil {
		t.Fatal("Open accepted zero sources")
	}
	dup := []SourceSpec{sliceSpec("x", nil), sliceSpec("x", nil)}
	if _, err := Open(testOptions(1), dup); err == nil {
		t.Fatal("Open accepted duplicate source names")
	}
	bad := testOptions(1)
	bad.Tree.Epsilon = 2
	if _, err := Open(bad, []SourceSpec{sliceSpec("x", nil)}); err == nil {
		t.Fatal("Open accepted invalid tree config")
	}
}

// TestIngestConcurrentQueries hammers the query surface while ingest is
// running; meaningful mainly under -race.
func TestIngestConcurrentQueries(t *testing.T) {
	in, err := Open(testOptions(4), []SourceSpec{
		sliceSpec("a", zipfVals(30_000, 1)),
		sliceSpec("b", zipfVals(30_000, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				in.Estimate(0, 1<<15)
				in.Stats()
				in.N()
				in.Dropped()
			}
		}
	}()
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := in.N(); got != 60_000 {
		t.Fatalf("N = %d, want 60000", got)
	}
}

// TestIngestBackpressureIsNotAStall wedges the shard long past
// ReadTimeout while the reader holds a read it cannot queue. Waiting for
// queue space under Block is backpressure, not a stalled source: a
// stream that cannot reopen must finish with every event and no retry.
// The pipe's spec keeps the stall timer that ReaderSource leaves off, so
// a timer that ran during enqueue would fire here.
func TestIngestBackpressureIsNotAStall(t *testing.T) {
	const total = 4_000
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, v := range zipfVals(total, 21) {
		if err := w.Write(trace.Event{Value: v, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pr, pw := io.Pipe()

	opts := testOptions(1)
	opts.QueueLen = 1
	opts.BatchLen = 16
	opts.ReadTimeout = 20 * time.Millisecond
	opts.MaxRetries = 1
	spec := ReaderSource("pipe", pr)
	spec.oneShot = false
	in, err := Open(opts, []SourceSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// Feed the stream in six chunks, each written while the shard is
	// wedged for five read timeouts, so the reader fills the queue and
	// then blocks in enqueue holding a read.
	const wedges = 6
	go func() {
		defer pw.Close()
		for i := 0; i < wedges; i++ {
			held := make(chan struct{})
			go in.engine.WithShard(0, func(*core.Tree) {
				close(held)
				time.Sleep(5 * opts.ReadTimeout)
			})
			<-held
			if _, err := pw.Write(data[i*len(data)/wedges : (i+1)*len(data)/wedges]); err != nil {
				return
			}
		}
	}()
	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v: queue backpressure was taken for a stalled source", err)
	}
	st := in.Stats().Sources[0]
	if st.Applied != total || st.Retries != 0 || st.Failed {
		t.Fatalf("source stats %+v, want %d applied and no retries", st, total)
	}
}

// TestOneShotSourceOutlivesAPause pauses a pipe's producer for three read
// timeouts mid-stream. A one-shot stream cannot be reopened, so taking
// the pause for a stall could only lose it: the source must wait, deliver
// every event with no retry, and let Run return nil.
func TestOneShotSourceOutlivesAPause(t *testing.T) {
	const total = 4_000
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, v := range zipfVals(total, 22) {
		if err := w.Write(trace.Event{Value: v, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pr, pw := io.Pipe()

	opts := testOptions(1)
	opts.ReadTimeout = 50 * time.Millisecond
	opts.MaxRetries = 1
	in, err := Open(opts, []SourceSpec{ReaderSource("pipe", pr)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		half := len(data) / 2
		if _, err := pw.Write(data[:half]); err != nil {
			return
		}
		time.Sleep(3 * opts.ReadTimeout)
		if _, err := pw.Write(data[half:]); err != nil {
			return
		}
		pw.Close()
	}()
	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v: an idle one-shot producer was taken for a stalled source", err)
	}
	st := in.Stats().Sources[0]
	if st.Applied != total || st.Retries != 0 || st.Failed {
		t.Fatalf("source stats %+v, want %d applied and no retries", st, total)
	}
}

// countingSource counts the calls the pump makes into a BatchSource.
type countingSource struct {
	src           trace.BatchSource
	next, batches atomic.Int64
}

func (c *countingSource) Next() (trace.Event, bool) {
	c.next.Add(1)
	return c.src.Next()
}

func (c *countingSource) NextBatch(dst []trace.Event) int {
	c.batches.Add(1)
	return c.src.NextBatch(dst)
}

// TestIngestHandoffPerRead pins the handoff granularity with counters: n
// events from a batching source take at most ceil(n/BatchLen)+1 reads
// (the last one reports the end), no per-event Next, and one queue entry
// per read.
func TestIngestHandoffPerRead(t *testing.T) {
	const total, batchLen = 10_000, 64
	src := &countingSource{src: trace.NewSliceSource(zipfVals(total, 5))}
	opts := testOptions(1)
	opts.BatchLen = batchLen
	opts.Metrics = obs.NewRegistry()
	in, err := Open(opts, []SourceSpec{{
		Name: "counted",
		Open: func() (trace.Source, error) { return src, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := in.N(); got != total {
		t.Fatalf("N = %d, want %d", got, total)
	}
	const entries = (total + batchLen - 1) / batchLen
	if got := src.batches.Load(); got > entries+1 {
		t.Fatalf("%d NextBatch calls for %d events at BatchLen %d, want at most %d",
			got, total, batchLen, entries+1)
	}
	if got := src.next.Load(); got != 0 {
		t.Fatalf("pump called Next %d times on a BatchSource", got)
	}
	if got := in.hApply[0].Count(); got != entries {
		t.Fatalf("%d queue entries applied, want one per full read: %d", got, entries)
	}
}
