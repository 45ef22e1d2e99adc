package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rap/internal/obs"
)

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		tid, sid := newTraceID(), newSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("generated zero id")
		}
		if seenT[tid] || seenS[sid] {
			t.Fatal("duplicate id in 1000 draws")
		}
		seenT[tid], seenS[sid] = true, true
	}
}

func TestHeadSamplingRate(t *testing.T) {
	tr := New(Options{SampleRate: 4, SlowThreshold: -1})
	sampled := 0
	for i := 0; i < 100; i++ {
		s := tr.StartRoot("op")
		if s.Sampled() {
			sampled++
		}
		s.End()
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling kept %d of 100", sampled)
	}
	if got := len(tr.Spans()); got != 25 {
		t.Fatalf("ring holds %d, want 25", got)
	}
}

// TestHeadThenBuild checks a root whose span is built only at its end:
// Head takes the same 1-in-N coin StartRoot does and counts as a started
// root, StartRootFrom builds the span without taking the coin again, and
// Keep holds exactly when the built root's EndAt would record it —
// sampled, slow, or forced at start or at the end.
func TestHeadThenBuild(t *testing.T) {
	tr := New(Options{SampleRate: 4, SlowThreshold: time.Second})
	start := time.Now()
	kept := 0
	for i := 0; i < 100; i++ {
		h := tr.Head()
		if !tr.Keep(h, time.Millisecond) {
			continue
		}
		kept++
		s := tr.StartRootFrom(h, "op", start)
		if !s.Sampled() || !h.Sampled() {
			t.Fatal("kept head built an unsampled root")
		}
		s.EndAt(start.Add(time.Millisecond))
	}
	if kept != 25 || len(tr.Spans()) != 25 || tr.Started() != 100 {
		t.Fatalf("kept %d, recorded %d, started %d; want 25, 25, 100", kept, len(tr.Spans()), tr.Started())
	}
	if r := tr.Spans()[0]; r.Name != "op" || r.StartNano != start.UnixNano() || r.DurationNs != int64(time.Millisecond) {
		t.Fatalf("built root recorded as %+v", r)
	}

	// A lost coin is kept only by the slow threshold or Force.
	force := false
	rare := New(Options{SampleRate: 1 << 60, SlowThreshold: time.Second, Force: func() bool { return force }})
	h := rare.Head()
	if h.Sampled() || rare.Keep(h, time.Millisecond) {
		t.Fatal("unsampled, fast, unforced head kept")
	}
	if !rare.Keep(h, time.Second) {
		t.Fatal("slow head not kept")
	}
	force = true
	if !rare.Keep(h, time.Millisecond) {
		t.Fatal("head not kept while Force holds")
	}
	if forced := rare.Head(); !forced.Sampled() {
		t.Fatal("head taken while Force holds is not sampled")
	}

	var nilTracer *Tracer
	if nh := nilTracer.Head(); nh.Sampled() || nilTracer.Keep(nh, time.Hour) || nilTracer.StartRootFrom(nh, "x", start) != nil {
		t.Fatal("nil tracer keeps or builds a span")
	}
}

func TestChildInheritsTraceAndSampling(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: -1})
	root := tr.StartRoot("parent")
	child := tr.StartChild(root.Context(), "child")
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child not in parent trace")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused parent span id")
	}
	if !child.Sampled() {
		t.Fatal("child did not inherit sampled flag")
	}
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var childRec *Record
	for i := range spans {
		if spans[i].Name == "child" {
			childRec = &spans[i]
		}
	}
	if childRec == nil || childRec.ParentID != root.Context().Span.String() {
		t.Fatalf("child record missing or missing parent link: %+v", childRec)
	}
}

func TestSlowOpPromotion(t *testing.T) {
	tr := New(Options{SampleRate: 1 << 60, SlowThreshold: 10 * time.Millisecond})
	start := time.Now()

	fast := tr.StartRootAt("fast", start)
	fast.EndAt(start.Add(time.Millisecond))

	slow := tr.StartRootAt("slow", start)
	slow.SetAttr("stage", "apply")
	slow.EndAt(start.Add(50 * time.Millisecond))

	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "slow" || !spans[0].Slow {
		t.Fatalf("want only the slow span promoted, got %+v", spans)
	}
	if spans[0].DurationNs != (50 * time.Millisecond).Nanoseconds() {
		t.Fatalf("duration %d", spans[0].DurationNs)
	}
	ops := tr.SlowOps()
	if len(ops) != 1 || ops[0].Name != "slow" {
		t.Fatalf("slow-op log %+v", ops)
	}
	if len(ops[0].Attrs) != 1 || ops[0].Attrs[0].Key != "stage" {
		t.Fatalf("slow-op attrs %+v", ops[0].Attrs)
	}
	if tr.slow.Load() != 1 {
		t.Fatalf("slow counter %d", tr.slow.Load())
	}
}

func TestForcedRecording(t *testing.T) {
	force := false
	tr := New(Options{SampleRate: 1 << 60, SlowThreshold: -1, Force: func() bool { return force }})
	s := tr.StartRoot("calm")
	s.End()
	if len(tr.Spans()) != 0 {
		t.Fatal("unsampled span recorded without force")
	}
	force = true
	s = tr.StartRoot("alerting")
	s.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Sampled {
		t.Fatalf("forced span missing or marked sampled: %+v", spans)
	}
	if tr.forced.Load() != 1 {
		t.Fatalf("forced counter %d", tr.forced.Load())
	}

	// Force turning on mid-span still records at End.
	force = false
	s = tr.StartRoot("late")
	force = true
	s.End()
	if len(tr.Spans()) != 2 {
		t.Fatal("force-at-end span not recorded")
	}
}

// TestEventSampling pins the structural-event path: events follow the
// head rate, kept ones are zero-duration roots carrying their attributes,
// and a dropped event neither allocates, builds its attributes, nor asks
// the Force hook (which may take a lock the caller's hook runs under).
func TestEventSampling(t *testing.T) {
	forceCalls := 0
	tr := New(Options{SampleRate: 4, SlowThreshold: -1, Force: func() bool { forceCalls++; return true }})
	built := 0
	attrs := func() []Attr {
		built++
		return []Attr{{Key: "lo", Value: "7"}}
	}
	for i := 0; i < 100; i++ {
		tr.Event("tree.split", attrs)
	}
	if built != 25 {
		t.Fatalf("attrs built for %d events, want the 25 kept", built)
	}
	if forceCalls != 0 {
		t.Fatalf("Event consulted Force %d times", forceCalls)
	}
	spans := tr.Spans()
	if len(spans) != 25 {
		t.Fatalf("ring holds %d events, want 25", len(spans))
	}
	for _, r := range spans {
		if r.Name != "tree.split" || r.DurationNs != 0 || !r.Sampled || r.ParentID != "" ||
			r.StartNano == 0 || len(r.Attrs) != 1 || r.Attrs[0].Key != "lo" {
			t.Fatalf("malformed event record %+v", r)
		}
	}
	if tr.Started() != 100 || tr.Recorded() != 25 {
		t.Fatalf("started %d recorded %d, want 100/25", tr.Started(), tr.Recorded())
	}
	if len(tr.SlowOps()) != 0 {
		t.Fatal("sampled event landed in the slow-op log")
	}

	rare := New(Options{SampleRate: 1 << 60, SlowThreshold: -1})
	if allocs := testing.AllocsPerRun(1000, func() { rare.Event("tree.split", attrs) }); allocs != 0 {
		t.Fatalf("dropped event allocated %v times", allocs)
	}
	var nilTracer *Tracer
	nilTracer.Event("tree.split", attrs)
	nilTracer.EventAlways("audit.violation")
}

// TestEventAlwaysSurvivesForcedWrap: while an alert forces recording, the
// ring wraps fast; an always-kept event must outlive that in SlowOps.
func TestEventAlwaysSurvivesForcedWrap(t *testing.T) {
	const capacity = 16
	tr := New(Options{SampleRate: 1 << 60, Capacity: capacity, SlowThreshold: -1, Force: func() bool { return true }})
	tr.EventAlways("audit.violation", Attr{Key: "lo", Value: "1"})
	for i := 0; i < 2*capacity; i++ {
		tr.StartRoot("forced").End()
	}
	for _, r := range tr.Spans() {
		if r.Name == "audit.violation" {
			t.Fatal("ring still holds the event; the test did not wrap it")
		}
	}
	ops := tr.SlowOps()
	if len(ops) != 1 || ops[0].Name != "audit.violation" || ops[0].Sampled || ops[0].Slow ||
		len(ops[0].Attrs) != 1 || ops[0].Attrs[0].Value != "1" {
		t.Fatalf("slow-op log %+v, want the always-kept event", ops)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: -1})
	s := tr.StartRoot("op")
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestNilSpanAndTracerSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x")
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	s.SetAttr("k", "v")
	s.End()
	if s.Sampled() || s.Context().Valid() {
		t.Fatal("nil span claims identity")
	}
	c := tr.StartChild(Context{}, "y")
	c.End()
}

func TestRingEviction(t *testing.T) {
	tr := New(Options{SampleRate: 1, Capacity: 8, SlowThreshold: -1})
	for i := 0; i < 20; i++ {
		tr.StartRoot("op").End()
	}
	if got := len(tr.Spans()); got != 8 {
		t.Fatalf("ring holds %d, want 8", got)
	}
	if tr.Evicted() != 12 {
		t.Fatalf("evicted %d, want 12", tr.Evicted())
	}
	if tr.Recorded() != 20 {
		t.Fatalf("recorded %d, want 20", tr.Recorded())
	}
}

func TestConcurrentEndsRace(t *testing.T) {
	tr := New(Options{SampleRate: 2, Capacity: 64, SlowThreshold: -1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.StartRoot("root")
				child := tr.StartChild(root.Context(), "child")
				child.SetAttr("i", "x")
				child.End()
				root.End()
				if i%7 == 0 {
					tr.Spans()
				}
			}
		}()
	}
	wg.Wait()
	if tr.Started() != 8000 {
		t.Fatalf("started %d", tr.Started())
	}
	for _, s := range tr.Spans() {
		if s.TraceID == "" || s.SpanID == "" {
			t.Fatalf("torn record %+v", s)
		}
	}
}

func TestWriteJSONLAndServeHTTP(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: 5 * time.Millisecond})
	start := time.Now()
	a := tr.StartRootAt("alpha", start)
	aCtx := a.Context()
	b := tr.StartChildAt(aCtx, "alpha.child", start)
	b.EndAt(start.Add(time.Millisecond))
	a.EndAt(start.Add(10 * time.Millisecond))
	c := tr.StartRootAt("beta", start.Add(time.Millisecond))
	c.EndAt(start.Add(2 * time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("JSONL lines %d, want 3", lines)
	}

	get := func(url string) []Record {
		rec := httptest.NewRecorder()
		tr.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d: %s", url, rec.Code, rec.Body.String())
		}
		var out []Record
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			if line == "" {
				continue
			}
			var r Record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			out = append(out, r)
		}
		return out
	}

	if got := get("/spans"); len(got) != 3 {
		t.Fatalf("unfiltered %d, want 3", len(got))
	}
	byTrace := get("/spans?trace=" + aCtx.Trace.String())
	if len(byTrace) != 2 {
		t.Fatalf("trace filter %d, want 2", len(byTrace))
	}
	if got := get("/spans?slow=1"); len(got) != 1 || got[0].Name != "alpha" {
		t.Fatalf("slow filter %+v", got)
	}
	if got := get("/spans?name=alpha"); len(got) != 2 {
		t.Fatalf("name filter %d, want 2", len(got))
	}
	if got := get("/spans?limit=1"); len(got) != 1 {
		t.Fatalf("limit %d, want 1", len(got))
	}
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/spans?limit=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad limit -> %d, want 400", rec.Code)
	}
}

func TestRegisterMetrics(t *testing.T) {
	tr := New(Options{SampleRate: 2, SlowThreshold: -1})
	reg := obs.NewRegistry()
	tr.Register(reg)
	tr.StartRoot("a").End()
	tr.StartRoot("b").End()
	want := map[string]float64{
		"rap_span_started_total":  2,
		"rap_span_recorded_total": 1,
		"rap_span_sample_rate":    2,
	}
	for _, fam := range reg.Snapshot() {
		if v, ok := want[fam.Name]; ok {
			if len(fam.Series) != 1 || fam.Series[0].Value != v {
				t.Fatalf("%s = %+v, want %v", fam.Name, fam.Series, v)
			}
			delete(want, fam.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("metrics missing from snapshot: %v", want)
	}
}
