package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/span"
)

// spanRow decodes one /spans JSONL line.
type spanRow struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Name     string `json:"name"`
	Attrs    []struct {
		K string `json:"k"`
		V string `json:"v"`
	} `json:"attrs"`
}

func getSpans(t *testing.T, url string) []spanRow {
	t.Helper()
	code, body, _ := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("%s = %d: %s", url, code, body)
	}
	var rows []spanRow
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		var r spanRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s row not JSON: %v\n%s", url, err, sc.Text())
		}
		rows = append(rows, r)
	}
	return rows
}

// ladderBucketIndex maps a latency in seconds onto the fixed octave
// ladder, for "within one ladder bucket" agreement checks.
func ladderBucketIndex(v float64) int {
	for i, b := range obs.LatencyBuckets() {
		if v <= b {
			return i
		}
	}
	return len(obs.LatencyBuckets())
}

// profilezDoc decodes /profilez.
type profilezDoc struct {
	Theta  float64 `json:"theta"`
	Stages map[string]struct {
		Count      uint64   `json:"count"`
		SumSeconds float64  `json:"sum_seconds"`
		TreeNodes  int      `json:"tree_nodes"`
		P50        *float64 `json:"p50_seconds"`
		P90        *float64 `json:"p90_seconds"`
		P99        *float64 `json:"p99_seconds"`
		HotRanges  []struct {
			LoSeconds float64 `json:"lo_seconds"`
			HiSeconds float64 `json:"hi_seconds"`
			Frac      float64 `json:"frac"`
			Exemplars []struct {
				TraceID string `json:"trace_id"`
				SpanID  string `json:"span_id"`
			} `json:"exemplars"`
		} `json:"hot_ranges"`
		Ladder *struct {
			Series string   `json:"series"`
			Count  uint64   `json:"count"`
			P50    *float64 `json:"p50_seconds"`
			P99    *float64 `json:"p99_seconds"`
		} `json:"ladder"`
	} `json:"stages"`
}

// TestSpanTracingEndToEnd is the tracing acceptance story: a pipeline
// run with sampling at 1-in-1 must link every stage of a batch's life
// under one trace, honor and echo a client traceparent on /v1, agree
// between adaptive and fixed-ladder quantiles on /profilez, and export
// the rap_span_* / rap_http_* metric surface.
func TestSpanTracingEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.2, 8, 1<<20-1)
	vals := make([]uint64, 40_000)
	for i := range vals {
		vals[i] = zipf.Uint64()
	}
	path := filepath.Join(dir, "events.trace")
	writeTrace(t, path, vals)

	// Reads of at most 2 events make 40k events ~20,000 batches: the apply
	// p99 compared below has ~200 samples beyond it, and the few applies
	// a merge batch slows are far fewer than that. The
	// queue holds every batch, so the reader never parks on a full queue:
	// there, each dequeue wakes the parked reader, and on a busy host that
	// wakeup lands inside the next apply and fattens the tail past p99.
	c := cliConfig{
		traces: []string{path},
		shards: 2, queue: 1 << 15, batch: 2, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		readTimeout: 5 * time.Second, maxRetries: 2,
		checkpointDir: filepath.Join(dir, "ck"), checkpointEvery: time.Hour,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	// Sample every trace: the test asserts structure, not sampling math
	// (span package tests pin the rates). The ring holds every span of the
	// run, ~100k, without eviction.
	tracer := span.New(span.Options{SampleRate: 1, Capacity: 1 << 17, SlowThreshold: -1})
	tracer.Register(reg)
	opts.Tracer = tracer
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	aQuery := obs.NewAdaptiveHistogram()
	aQuery.Register(reg, "query")
	a := &admin{in: in, reg: reg, tracer: tracer, aQuery: aQuery, start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	// --- Client traceparent round trip through /v1/estimate. ---
	const clientTrace = "0af7651916cd43dd8448eb211c80319c"
	const clientSpan = "b7ad6b7169203331"
	req, err := http.NewRequest("GET", base+"/v1/estimate?lo=0&hi=1048575", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(span.Header, "00-"+clientTrace+"-"+clientSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/estimate with traceparent = %d", resp.StatusCode)
	}
	echo, err := span.Decode(resp.Header.Get(span.Header))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", resp.Header.Get(span.Header), err)
	}
	if echo.Trace.String() != clientTrace {
		t.Fatalf("response continued trace %s, client sent %s", echo.Trace, clientTrace)
	}
	if echo.Span.String() == clientSpan {
		t.Fatal("response echoed the client's span id instead of the server span's")
	}
	if !echo.Sampled {
		t.Fatal("client's sampled flag dropped on the response")
	}

	// The server span and its stage children are in /spans under the
	// client's trace, parented under the client's span.
	rows := getSpans(t, base+"/spans?trace="+clientTrace)
	var root *spanRow
	children := map[string]bool{}
	for i := range rows {
		switch rows[i].Name {
		case "v1.estimate":
			root = &rows[i]
		}
	}
	if root == nil {
		t.Fatalf("no v1.estimate span under the client trace: %+v", rows)
	}
	if root.ParentID != clientSpan {
		t.Fatalf("server span parent = %q, want the client span %q", root.ParentID, clientSpan)
	}
	if root.SpanID != echo.Span.String() {
		t.Fatalf("response traceparent span %s is not the recorded server span %s", echo.Span, root.SpanID)
	}
	for _, r := range rows {
		if r.ParentID == root.SpanID {
			children[r.Name] = true
		}
	}
	for _, want := range []string{"acquire", "estimate", "encode"} {
		if !children[want] {
			t.Errorf("stage child %q missing under the query span (have %v)", want, children)
		}
	}

	// --- Every ingest pipeline stage linked under one trace. ---
	batchRoots := getSpans(t, base+"/spans?name=ingest.batch&limit=3")
	if len(batchRoots) == 0 {
		t.Fatal("no ingest.batch root spans recorded at 1-in-1 sampling")
	}
	br := batchRoots[len(batchRoots)-1]
	stages := map[string]string{} // name -> parent
	for _, r := range getSpans(t, base+"/spans?trace="+br.TraceID) {
		if r.SpanID != br.SpanID {
			stages[r.Name] = r.ParentID
		}
	}
	for _, want := range []string{"queue_wait", "apply"} {
		if stages[want] != br.SpanID {
			t.Errorf("batch trace %s: stage %q parent = %q, want root %s (stages %v)",
				br.TraceID, want, stages[want], br.SpanID, stages)
		}
	}
	// The final checkpoint's cut and write stages share its trace.
	ck := getSpans(t, base+"/spans?name=checkpoint&limit=1")
	if len(ck) == 0 {
		t.Fatal("no checkpoint span from the shutdown checkpoint")
	}
	ckStages := map[string]bool{}
	for _, r := range getSpans(t, base+"/spans?trace="+ck[0].TraceID) {
		if r.ParentID == ck[0].SpanID {
			ckStages[r.Name] = true
		}
	}
	if !ckStages["cut"] || !ckStages["write"] {
		t.Errorf("checkpoint trace stages = %v, want cut and write", ckStages)
	}

	// --- /profilez: adaptive profiles agree with the fixed ladder. ---
	// Drive enough queries that the "query" stage has a real distribution:
	// adaptive quantile resolution is governed by the mass stuck at coarse
	// nodes while the tree is shallow, and the octave-agreement assertion
	// below compares p99s: 10,000 queries put 100 samples beyond p99.
	for i := 0; i < 10000; i++ {
		if code, body, _ := get(t, base+"/v1/estimate?lo=0&hi=1048575"); code != http.StatusOK {
			t.Fatalf("query %d = %d: %s", i, code, body)
		}
	}
	code, body, _ := get(t, base+"/profilez?theta=0.02")
	if code != http.StatusOK {
		t.Fatalf("/profilez = %d: %s", code, body)
	}
	var doc profilezDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/profilez not JSON: %v\n%s", err, body)
	}
	if doc.Theta != 0.02 {
		t.Fatalf("theta = %v", doc.Theta)
	}
	for _, stage := range []string{"queue_wait", "apply", "query"} {
		st, ok := doc.Stages[stage]
		if !ok {
			t.Fatalf("/profilez missing stage %q:\n%s", stage, body)
		}
		if st.Count == 0 || st.TreeNodes == 0 {
			t.Errorf("stage %q empty: count=%d nodes=%d", stage, st.Count, st.TreeNodes)
		}
		if st.P50 == nil || st.P99 == nil {
			t.Errorf("stage %q missing quantiles", stage)
		}
		if len(st.HotRanges) == 0 {
			t.Errorf("stage %q has no hot ranges at theta=0.02", stage)
		}
	}
	// Adaptive vs ladder, within one octave bucket, on the stages whose
	// latencies are comfortably above the ladder floor.
	for _, stage := range []string{"apply", "query"} {
		st := doc.Stages[stage]
		if st.Ladder == nil || st.Ladder.P50 == nil || st.Ladder.P99 == nil {
			t.Fatalf("stage %q has no ladder comparison:\n%s", stage, body)
		}
		if st.Ladder.Count != st.Count {
			t.Errorf("stage %q: ladder count %d vs adaptive %d", stage, st.Ladder.Count, st.Count)
		}
		for _, q := range []struct {
			name             string
			adaptive, ladder *float64
		}{
			{"p50", st.P50, st.Ladder.P50},
			{"p99", st.P99, st.Ladder.P99},
		} {
			ai, li := ladderBucketIndex(*q.adaptive), ladderBucketIndex(*q.ladder)
			if d := ai - li; d < -1 || d > 1 {
				t.Errorf("stage %q %s: adaptive %v (bucket %d) vs ladder %v (bucket %d) — more than one bucket apart",
					stage, q.name, *q.adaptive, ai, *q.ladder, li)
			}
		}
	}
	// The query stage's hot ranges carry span exemplars pointing at
	// recorded traces (sampling is 1-in-1, so exemplars are guaranteed).
	sawExemplar := false
	for _, hr := range doc.Stages["query"].HotRanges {
		for _, ex := range hr.Exemplars {
			if ex.TraceID != "" {
				sawExemplar = true
				if found := getSpans(t, base+"/spans?trace="+ex.TraceID); len(found) == 0 {
					t.Errorf("exemplar trace %s not in /spans", ex.TraceID)
				}
			}
		}
	}
	if !sawExemplar {
		t.Error("query hot ranges carry no span exemplars")
	}

	// --- Metric surface: span self-metrics and per-endpoint HTTP metrics. ---
	_, metrics, _ := get(t, base+"/metrics")
	sc := parseProm(t, metrics)
	if sc.sumFamily("rap_span_recorded_total") == 0 {
		t.Error("rap_span_recorded_total = 0")
	}
	if sc.sumFamily("rap_span_started_total") < sc.sumFamily("rap_span_recorded_total") {
		t.Error("started < recorded")
	}
	if sc.samples[`rap_profile_observations_total{stage="apply"}`] == 0 {
		t.Error("rap_profile_observations_total{stage=apply} = 0")
	}
	httpOK := false
	for k, v := range sc.samples {
		if strings.HasPrefix(k, "rap_http_requests_total{") &&
			strings.Contains(k, `path="/v1/estimate"`) && strings.Contains(k, `code="200"`) && v >= 1 {
			httpOK = true
		}
	}
	if !httpOK {
		t.Error("rap_http_requests_total{path=/v1/estimate,code=200} missing")
	}
	if sc.sumFamily("rap_http_request_seconds_count") == 0 {
		t.Error("rap_http_request_seconds never observed")
	}
}

// TestSpanSlowOpSurfaces forces the slow path: a tiny slow threshold
// promotes query spans into the slow-op log, /statusz renders them with
// trace links, and /spans?slow=1 filters to them.
func TestSpanSlowOpSurfaces(t *testing.T) {
	dir := t.TempDir()
	vals := make([]uint64, 2_000)
	for i := range vals {
		vals[i] = uint64(i % 512)
	}
	path := filepath.Join(dir, "events.trace")
	writeTrace(t, path, vals)

	c := cliConfig{
		traces: []string{path},
		shards: 1, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		readTimeout: 5 * time.Second, maxRetries: 2,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	// Sampling effectively off; only slow promotion records anything.
	tracer := span.New(span.Options{SampleRate: 1 << 60, SlowThreshold: time.Nanosecond})
	tracer.Register(reg)
	opts.Tracer = tracer
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	a := &admin{in: in, reg: reg, tracer: tracer, start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr
	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	slow := getSpans(t, base+"/spans?slow=1")
	if len(slow) == 0 {
		t.Fatal("no slow-promoted spans at a 1ns threshold")
	}
	if ops := a.slowOps(); len(ops) == 0 {
		t.Fatal("slow-op log empty")
	} else if ops[0].TraceID == "" || ops[0].Duration <= 0 {
		t.Fatalf("slow op malformed: %+v", ops[0])
	}
	if sc := parseProm(t, func() string { _, m, _ := get(t, base+"/metrics"); return m }()); sc.sumFamily("rap_span_slow_total") == 0 {
		t.Error("rap_span_slow_total = 0 with everything slow-promoted")
	}
}
