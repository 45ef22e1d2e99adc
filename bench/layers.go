package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"rap/internal/admit"
	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/ingest"
	"rap/internal/shard"
	"rap/internal/span"
	"rap/internal/trace"
)

// spanLog is the traced run's in-memory span store: one span per call the
// benchmark makes into a layer's public functions. Calls run one at a time
// on one goroutine, so a span's children never overlap and its self time
// is its duration minus theirs.
type spanLog struct {
	spans []benchSpan
}

type benchSpan struct {
	parent int // index of the parent span, -1 for a root
	name   string
	start  time.Time
	dur    time.Duration
	events int // events the call handled, 0 when not per-event work
}

func (l *spanLog) begin(parent int, name string) int {
	l.spans = append(l.spans, benchSpan{parent: parent, name: name, start: time.Now()})
	return len(l.spans) - 1
}

// phase begins a layer's span under the root span (index 0), after
// collecting the previous phase's garbage so it is not charged here.
func (l *spanLog) phase(name string) int {
	runtime.GC()
	return l.begin(0, name)
}

func (l *spanLog) end(i int) { l.spans[i].dur = time.Since(l.spans[i].start) }

// call times fn as one span named after the layer function it calls.
func (l *spanLog) call(parent int, name string, events int, fn func()) {
	i := l.begin(parent, name)
	fn()
	l.end(i)
	l.spans[i].events = events
}

// self returns each span's self time.
func (l *spanLog) self() []time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// byName sums self time and counts calls per span name.
func (l *spanLog) byName() map[string]nameTotal {
	out := map[string]nameTotal{}
	for i, d := range l.self() {
		t := out[l.spans[i].name]
		t.self += d
		t.calls++
		t.durs = append(t.durs, d)
		out[l.spans[i].name] = t
	}
	return out
}

type nameTotal struct {
	self  time.Duration
	calls int
	durs  []time.Duration // self time of each call
}

// records renders the spans in the program's span.Record JSONL schema.
func (l *spanLog) records(traceID string) []span.Record {
	self := l.self()
	out := make([]span.Record, len(l.spans))
	for i, s := range l.spans {
		r := span.Record{
			TraceID:    traceID,
			SpanID:     fmt.Sprintf("%016x", i+1),
			Name:       s.name,
			StartNano:  s.start.UnixNano(),
			DurationNs: s.dur.Nanoseconds(),
			Sampled:    true,
			Attrs:      []span.Attr{{Key: "self_ns", Value: strconv.FormatInt(self[i].Nanoseconds(), 10)}},
		}
		if s.parent >= 0 {
			r.ParentID = fmt.Sprintf("%016x", s.parent+1)
		}
		if s.events > 0 {
			r.Attrs = append(r.Attrs, span.Attr{Key: "events", Value: strconv.Itoa(s.events)})
		}
		out[i] = r
	}
	return out
}

// layerResult is the traced in-process run of one workload.
type layerResult struct {
	metrics    map[string]float64
	spans      []span.Record
	violations []string
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// daemonOptions mirrors the ingest options rapd runs w with, minus the
// admin plane.
func daemonOptions(w workloadSpec, ckDir string) ingest.Options {
	opts := ingest.Options{
		Shards:          rapdShards,
		CheckpointDir:   ckDir,
		CheckpointEvery: w.ckEvery,
		ReadSnapshots:   true,
		Logger:          quietLogger,
	}
	if w.admit {
		opts.Admission = &admit.Options{Seed: 1}
	}
	if w.auditEvery > 0 {
		opts.Audit = &audit.Options{Seed: 1}
		opts.AuditEvery = w.auditEvery
	}
	return opts
}

// runLayers times calls into each layer's public functions over the
// workload's stream, one layer at a time, with every call wrapped in a
// span. Layers from the shard engine up run with the admission and audit
// configuration the daemon runs the workload with, so their costs add up
// toward the daemon's; core and the admission gate also run bare.
func runLayers(ctx context.Context, w workloadSpec, in *input, tmp string) (*layerResult, error) {
	res := &layerResult{metrics: map[string]float64{}}
	m := res.metrics
	var log spanLog
	n := len(in.values)
	mev := float64(n) / 1e6
	cfg := core.DefaultConfig()
	samples := make([]core.Sample, n)
	for i, v := range in.values {
		samples[i] = core.Sample{Value: v, Weight: 1}
	}
	chunks := func(fn func(lo, hi int)) {
		for lo := 0; lo < n; lo += layerChunk {
			fn(lo, min(lo+layerChunk, n))
		}
	}
	root := log.begin(-1, "bench.layers/"+w.name) // index 0

	// internal/trace: decode the exact bytes rapd receives.
	ph := log.phase("layer.trace")
	rd := trace.NewReader(bytes.NewReader(in.data))
	decoded, mismatch := 0, false
	chunks(func(lo, hi int) {
		log.call(ph, "trace.Reader.Next", hi-lo, func() {
			for j := lo; j < hi; j++ {
				e, ok := rd.Next()
				mismatch = mismatch || !ok || e.Value != in.values[j] || e.Weight != 1
				decoded++
			}
		})
	})
	log.end(ph)
	if mismatch || decoded != n {
		res.violations = append(res.violations, "trace.Reader decoded a different stream than was written")
	}

	// internal/core: the single-threaded baseline, no admission.
	ph = log.phase("layer.core")
	tr := core.MustNew(cfg)
	chunks(func(lo, hi int) {
		log.call(ph, "core.Tree.AddSamples", hi-lo, func() { tr.AddSamples(samples[lo:hi]) })
	})
	var levels float64
	log.call(ph, "core.Tree.Walk", 0, func() { levels = meanDescent(tr, in.values) })
	log.end(ph)
	st := tr.Stats()
	m["core.levels_per_event"] = levels
	m["core.nodes"] = float64(st.Nodes)
	m["core.arena_bytes"] = float64(st.ArenaBytes)
	m["core.splits_per_mevent"] = float64(st.Splits) / mev
	m["core.merge_batches"] = float64(st.MergeBatches)
	worst := 0.0
	for r, cr := range in.ranges {
		truth, est := in.truth.count(r, n), tr.Estimate(cr.Lo, cr.Hi)
		if est > truth {
			res.violations = append(res.violations, fmt.Sprintf("core: [%#x,%#x] estimate %d above truth %d", cr.Lo, cr.Hi, est, truth))
			continue
		}
		worst = max(worst, float64(truth-est)/(cfg.Epsilon*float64(n)))
	}
	m["core.error_worst_ratio"] = worst

	// internal/admit: the admission gate in front of a bare tree, with the
	// watchdog fed tree stats about once per million events as ingest
	// does once per second.
	ph = log.phase("layer.admit")
	fe := admit.New(admit.Options{Seed: 1})
	atr := core.MustNew(cfg)
	atr.SetAdmitter(fe.Gates(cfg.UniverseBits, 1)[0])
	var periodMax uint64
	chunks(func(lo, hi int) {
		log.call(ph, "core.Tree.AddSamples+admit.Gate", hi-lo, func() { atr.AddSamples(samples[lo:hi]) })
		periodMax = max(periodMax, fe.Period())
		if hi%(1<<20) < layerChunk {
			log.call(ph, "admit.Frontend.Observe", 0, func() { fe.Observe(atr.Stats()) })
		}
	})
	log.end(ph)
	ast := fe.Stats()
	m["admit.unadmitted_frac"] = float64(ast.Unadmitted) / float64(max(ast.Offered, 1))
	m["admit.coin_period_max"] = float64(periodMax)

	// internal/shard and internal/audit: the engine rapd's ingest drives,
	// once as the daemon runs it and once with the audit taps toggled, so
	// the difference is the taps' cost.
	applyTap, applyNoTap := 0.0, 0.0
	audited := w.auditEvery > 0
	for _, taps := range []bool{audited, !audited} {
		name, phase := "shard.Handle.AddSamples", "layer.shard"
		if taps != audited {
			name, phase = name+"/taps-toggled", phase+"/taps-toggled"
		}
		ph = log.phase(phase)
		eng, err := shard.New(cfg, rapdShards)
		if err != nil {
			return nil, err
		}
		eng.EnableReadSnapshots(0)
		if w.admit {
			gates := admit.New(admit.Options{Seed: 1}).Gates(cfg.UniverseBits, rapdShards)
			eng.SetShardAdmitters(func(i int) core.Admitter { return gates[i] })
		}
		var aud *audit.Auditor
		if taps {
			aud = audit.New(audit.Options{Seed: 1})
			ts, err := aud.Attach(eng.Config(), eng, eng.Shards())
			if err != nil {
				return nil, err
			}
			eng.SetShardTaps(func(i int) core.Tap { return ts[i] })
		}
		h := eng.Handle()
		pub0 := eng.Publisher().Published()
		start := len(log.spans)
		chunks(func(lo, hi int) {
			log.call(ph, name, hi-lo, func() { h.AddSamples(samples[lo:hi]) })
		})
		applied := sumDur(&log, start, name)
		if taps {
			applyTap = applied
		} else {
			applyNoTap = applied
		}
		if taps == audited {
			m["shard.apply_ns_per_event"] = applied / float64(n)
			m["shard.publishes_per_mevent"] = float64(eng.Publisher().Published()-pub0) / mev
			for k := 0; k < 10; k++ {
				log.call(ph, "shard.Engine.PublishNow", 0, eng.PublishNow)
			}
		}
		if aud != nil {
			for k := 0; k < 3; k++ {
				var rep audit.Report
				var aerr error
				log.call(ph, "audit.Auditor.Audit", 0, func() { rep, aerr = aud.Audit() })
				if aerr != nil {
					return nil, aerr
				}
				if rep.PassViolations > 0 {
					res.violations = append(res.violations, fmt.Sprintf("audit pass: %d violations", rep.PassViolations))
				}
			}
		}
		log.end(ph)
	}
	m["audit.tap_ns_per_event"] = (applyTap - applyNoTap) / float64(n)

	// internal/ingest: the whole pipeline over a pre-decoded source, once
	// bare and once with the pipeline's own tracer keeping every span.
	var keep *ingest.Ingestor
	var pipeline [2]float64
	var tracer *span.Tracer
	for pass, traced := range []bool{false, true} {
		opts := daemonOptions(w, filepath.Join(tmp, fmt.Sprintf("layers-ingest%d", pass)))
		if !traced {
			ph = log.phase("layer.ingest")
		} else {
			ph = log.phase("layer.ingest/traced")
			tracer = span.New(span.Options{SampleRate: 1, Capacity: 5*(n/layerChunk+1) + 1024, SlowThreshold: -1})
			opts.Tracer = tracer
		}
		src := ingest.GeneratorSource("stdin", func() trace.Source { return trace.NewSliceSource(in.values) })
		start := len(log.spans)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var ig *ingest.Ingestor
		var err error
		log.call(ph, "ingest.Open", 0, func() { ig, err = ingest.Open(opts, []ingest.SourceSpec{src}) })
		if err != nil {
			return nil, err
		}
		if ig.N() != 0 {
			return nil, fmt.Errorf("ingest: Open recovered %d events from a fresh directory", ig.N())
		}
		log.call(ph, "ingest.Ingestor.Run", n, func() { err = ig.Run(ctx) })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		if got := ig.N() + ig.Engine().UnadmittedN(); got != uint64(n) {
			res.violations = append(res.violations, fmt.Sprintf("ingest: %d events applied, want %d", got, n))
		}
		pipeline[pass] = sumDur(&log, start, "ingest.Open") + sumDur(&log, start, "ingest.Ingestor.Run")
		if !traced {
			keep = ig
			m["ingest.allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
			o := newOracle(in, w.admit)
			eng := ig.Engine()
			for r, cr := range in.ranges {
				low, high := eng.EstimateBounds(cr.Lo, cr.Hi)
				o.checkRange("traced ingest", r, uint64(n), eng.Estimate(cr.Lo, cr.Hi), low, high)
			}
			res.violations = append(res.violations, o.violations...)
		}
		log.end(ph)
	}
	m["ingest.pipeline_ns_per_event"] = pipeline[0] / float64(n)
	m["ingest.handoff_ns_per_event"] = m["ingest.pipeline_ns_per_event"] - m["shard.apply_ns_per_event"]
	m["tracing.overhead_pct"] = 100 * (pipeline[1] - pipeline[0]) / pipeline[0]
	var qwait, apply []time.Duration
	ingestSpans := tracer.Spans()
	for _, r := range ingestSpans {
		switch r.Name {
		case "queue_wait":
			qwait = append(qwait, time.Duration(r.DurationNs))
		case "apply":
			apply = append(apply, time.Duration(r.DurationNs))
		}
	}
	if tracer.Evicted() > 0 {
		res.violations = append(res.violations, fmt.Sprintf("ingest tracer evicted %d spans", tracer.Evicted()))
	}
	m["ingest.queue_wait_p50_us"] = micros(quantileDur(qwait, 0.50))
	m["ingest.queue_wait_p99_us"] = micros(quantileDur(qwait, 0.99))
	m["ingest.apply_p50_us"] = micros(quantileDur(apply, 0.50))

	ph = log.phase("layer.checkpoint")
	for k := 0; k < 5; k++ {
		var err error
		log.call(ph, "ingest.Ingestor.Checkpoint", 0, func() { err = keep.Checkpoint() })
		if err != nil {
			return nil, err
		}
	}
	m["ingest.checkpoint_bytes"] = float64(keep.Stats().Checkpoint.LastSize)
	for k := 0; k < 5; k++ {
		var rec *ingest.Ingestor
		var err error
		opts := daemonOptions(w, filepath.Join(tmp, "layers-ingest0"))
		log.call(ph, "ingest.Open/recover", 0, func() {
			rec, err = ingest.Open(opts, []ingest.SourceSpec{ingest.GeneratorSource("stdin", func() trace.Source { return trace.NewSliceSource(nil) })})
		})
		if err != nil {
			return nil, err
		}
		if rec.N() != keep.N() {
			res.violations = append(res.violations, fmt.Sprintf("recover: n %d, checkpointed %d", rec.N(), keep.N()))
		}
	}
	log.end(ph)

	// core.Epoch: the read path every /v1 request takes.
	ph = log.phase("layer.query")
	eng := keep.Engine()
	const acquires = 10000
	log.call(ph, "core.Epoch.Reader+Release", 0, func() {
		for k := 0; k < acquires; k++ {
			eng.Reader().Release()
		}
	})
	e := eng.Reader()
	for k := 0; k < 10; k++ {
		for _, cr := range in.ranges {
			log.call(ph, "core.Epoch.EstimateBounds+Estimate", 0, func() {
				e.EstimateBounds(cr.Lo, cr.Hi)
				e.Estimate(cr.Lo, cr.Hi)
			})
		}
	}
	for k := 0; k < 20; k++ {
		log.call(ph, "core.Epoch.HotRanges", 0, func() { e.HotRanges(0.01) })
		log.call(ph, "core.Epoch.Stats", 0, func() { e.Stats() })
	}
	e.Release()
	log.end(ph)
	log.end(root)

	tot := log.byName()
	perEvent := func(name string) float64 { return float64(tot[name].self) / float64(n) }
	mean := func(name string) time.Duration { return tot[name].self / time.Duration(max(tot[name].calls, 1)) }
	m["trace.decode_ns_per_event"] = perEvent("trace.Reader.Next")
	m["core.apply_ns_per_event"] = perEvent("core.Tree.AddSamples")
	m["admit.apply_ns_per_event"] = perEvent("core.Tree.AddSamples+admit.Gate")
	m["audit.pass_ms"] = millis(quantileDur(tot["audit.Auditor.Audit"].durs, 0.5))
	m["shard.publish_us"] = micros(quantileDur(tot["shard.Engine.PublishNow"].durs, 0.5))
	m["ingest.checkpoint_ms"] = millis(quantileDur(tot["ingest.Ingestor.Checkpoint"].durs, 0.5))
	m["ingest.recover_ms"] = millis(quantileDur(tot["ingest.Open/recover"].durs, 0.5))
	m["query.acquire_ns"] = float64(tot["core.Epoch.Reader+Release"].self) / acquires
	m["query.estimate_us"] = micros(mean("core.Epoch.EstimateBounds+Estimate"))
	m["query.hotranges_us"] = micros(mean("core.Epoch.HotRanges"))
	m["query.stats_us"] = micros(mean("core.Epoch.Stats"))

	h := fnv.New128a()
	h.Write([]byte(w.name))
	res.spans = append(log.records(fmt.Sprintf("%x", h.Sum(nil))), ingestSpans...)
	return res, nil
}

// sumDur sums the durations of the leaf spans named name from index start
// on.
func sumDur(l *spanLog, start int, name string) float64 {
	var d time.Duration
	for i := start; i < len(l.spans); i++ {
		if l.spans[i].name == name {
			d += l.spans[i].dur
		}
	}
	return float64(d)
}

// meanDescent is the mean depth of the deepest live node covering each of
// up to levelSamples evenly spaced events: how many levels a descent for
// that event walks.
func meanDescent(tr *core.Tree, values []uint64) float64 {
	step := max(len(values)/levelSamples, 1)
	var pts []uint64
	for i := 0; i < len(values); i += step {
		pts = append(pts, values[i])
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	depth := make([]int, len(pts))
	tr.Walk(func(ni core.NodeInfo) bool {
		for j := sort.Search(len(pts), func(j int) bool { return pts[j] >= ni.Lo }); j < len(pts) && pts[j] <= ni.Hi; j++ {
			depth[j] = max(depth[j], ni.Depth)
		}
		return true
	})
	total := 0
	for _, d := range depth {
		total += d
	}
	return float64(total) / float64(len(pts))
}
