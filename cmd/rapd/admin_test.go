package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/span"
	"rap/internal/trace"
)

// promScrape is one parsed Prometheus text exposition: sample name
// (including labels) -> value, plus the TYPE declared for each family.
type promScrape struct {
	samples map[string]float64
	types   map[string]string
}

// parseProm parses and format-checks a text exposition: every line must
// be a comment or a `name{labels} value` sample, and every sample must
// belong to a family with a preceding # TYPE line.
func parseProm(t *testing.T, body string) promScrape {
	t.Helper()
	sc := promScrape{samples: map[string]float64{}, types: map[string]string{}}
	scanner := bufio.NewScanner(strings.NewReader(body))
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			sc.types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if _, ok := sc.types[family]; !ok {
			t.Fatalf("sample %q precedes its # TYPE declaration", line)
		}
		sc.samples[name] = v
	}
	return sc
}

// sumFamily adds up every series of one family (label sets vary by shard
// or source).
func (sc promScrape) sumFamily(name string) float64 {
	var total float64
	for k, v := range sc.samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestAdminEndToEnd runs a full checkpointed pipeline with the admin
// server attached and scrapes every endpoint like a monitoring stack
// would: exposition format, metric values reconciled against Stats, and
// counter monotonicity across scrapes.
func TestAdminEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
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
		drop:            "block",
		epsilon:         0.05,
		universe:        20,
		branch:          4,
		checkpointDir:   filepath.Join(dir, "ck"),
		checkpointEvery: time.Hour,
		readTimeout:     5 * time.Second,
		maxRetries:      2,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := span.New(span.Options{SampleRate: 1, Capacity: 1 << 14, SlowThreshold: -1})
	opts.Metrics = reg
	opts.Tracer = tracer
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}

	a := &admin{in: in, reg: reg, tracer: tracer, ckEvery: time.Hour, start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// Readiness and liveness hold before the pipeline even runs.
	if code, body, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", code, body)
	}
	if code, body, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before run: %s", code, body)
	}

	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := in.Stats()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	s1 := parseProm(t, body)
	if kind := s1.types[ingest.MetricTreeSplits]; kind != "counter" {
		t.Fatalf("%s typed %q, want counter", ingest.MetricTreeSplits, kind)
	}
	if got := s1.sumFamily(ingest.MetricTreeSplits); got != float64(st.Splits) || got == 0 {
		t.Fatalf("splits over all shards = %v, stats say %d", got, st.Splits)
	}
	if got := s1.sumFamily("rap_ingest_applied_total"); got != float64(len(vals)) {
		t.Fatalf("applied = %v, want %d", got, len(vals))
	}
	if got := s1.samples["rap_checkpoint_written_total"]; got < 1 {
		t.Fatalf("checkpoint written = %v, want >= 1", got)
	}
	if got := s1.samples[`rap_tree_merge_batch_seconds_bucket{shard="0",le="+Inf"}`] +
		s1.samples[`rap_tree_merge_batch_seconds_bucket{shard="1",le="+Inf"}`]; got != float64(st.MergeBatches) {
		t.Fatalf("merge batch +Inf buckets = %v, stats say %d", got, st.MergeBatches)
	}

	// Counters must be monotone across scrapes.
	_, body2, _ := get(t, base+"/metrics")
	s2 := parseProm(t, body2)
	for name, v1 := range s1.samples {
		if s2.types[strings.SplitN(name, "{", 2)[0]] != "counter" {
			continue
		}
		if v2 := s2.samples[name]; v2 < v1 {
			t.Fatalf("counter %s went backwards: %v -> %v", name, v1, v2)
		}
	}

	// JSON exposition parses and carries the same families.
	code, body, hdr = get(t, base+"/metrics.json")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/metrics.json = %d, type %q", code, hdr.Get("Content-Type"))
	}
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	names := map[string]bool{}
	for _, m := range doc.Metrics {
		names[m.Name] = true
	}
	if !names[ingest.MetricTreeSplits] || !names["rap_checkpoint_written_total"] {
		t.Fatalf("JSON exposition families %v missing expected names", names)
	}

	// Split/merge decisions are span events on /spans; /trace is gone.
	if code, _, _ := get(t, base+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace = %d, want 404", code)
	}
	code, body, _ = get(t, base+"/spans?name=tree.")
	if code != http.StatusOK {
		t.Fatalf("/spans = %d", code)
	}
	kinds := map[string]int{}
	scanner := bufio.NewScanner(strings.NewReader(body))
	for scanner.Scan() {
		var rec span.Record
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatalf("span line not JSON: %v: %s", err, scanner.Text())
		}
		kinds[rec.Name]++
		attrs := map[string]string{}
		for _, a := range rec.Attrs {
			attrs[a.Key] = a.Value
		}
		for _, k := range []string{"shard", "lo", "hi", "depth", "count", "threshold", "n"} {
			if attrs[k] == "" {
				t.Fatalf("%s event missing attribute %q: %s", rec.Name, k, scanner.Text())
			}
		}
	}
	if kinds["tree.split"] == 0 || len(kinds) > 2 {
		t.Fatalf("/spans?name=tree. returned %v, want tree.split (and tree.merge) events", kinds)
	}

	if code, _, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", code)
	}
	if code, body, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after clean run: %s", code, body)
	}
}

// TestAuditEndpoint runs an audited pipeline and scrapes /audit like an
// operator would: the JSON report must decode, carry per-range truth
// beside the tree's answers, and show a clean verdict. Without -audit the
// endpoint answers 404 so probes can tell "disabled" from "broken".
func TestAuditEndpoint(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 8, 1<<20-1)
	vals := make([]uint64, 40_000)
	for i := range vals {
		vals[i] = zipf.Uint64()
	}
	path := filepath.Join(dir, "events.trace")
	writeTrace(t, path, vals)

	c := cliConfig{
		traces: []string{path},
		shards: 2, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		readTimeout: 5 * time.Second, maxRetries: 2,
		audit: true, auditEvery: time.Hour,
		auditRanges: 16, auditSpanBits: 8, auditSample: 16,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	opts.Metrics = obs.NewRegistry()
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	if in.Auditor() == nil {
		t.Fatal("-audit did not wire an auditor")
	}

	a := &admin{in: in, reg: opts.Metrics, aud: in.Auditor(), start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	code, body, hdr := get(t, base+"/audit")
	if code != http.StatusOK {
		t.Fatalf("/audit = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/audit content type %q", ct)
	}
	var rep struct {
		N               uint64  `json:"n"`
		Budget          float64 `json:"budget"`
		Verdict         string  `json:"verdict"`
		ViolationsTotal uint64  `json:"violations_total"`
		WorstRatio      float64 `json:"worst_ratio"`
		Ranges          []struct {
			Kind     string `json:"kind"`
			Truth    uint64 `json:"truth"`
			Estimate uint64 `json:"estimate"`
			High     uint64 `json:"high"`
		} `json:"ranges"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/audit not JSON: %v\n%s", err, body)
	}
	if rep.Verdict != "ok" || rep.ViolationsTotal != 0 {
		t.Fatalf("/audit verdict %q, %d violations:\n%s", rep.Verdict, rep.ViolationsTotal, body)
	}
	if rep.N != uint64(len(vals)) {
		t.Fatalf("/audit n = %d, want %d", rep.N, len(vals))
	}
	if len(rep.Ranges) < 2 {
		t.Fatalf("/audit reports %d ranges; sampling never adopted:\n%s", len(rep.Ranges), body)
	}
	for _, r := range rep.Ranges {
		if r.Truth > r.High {
			t.Fatalf("range truth %d above upper bound %d:\n%s", r.Truth, r.High, body)
		}
	}

	// The same surface without an auditor: 404, clearly labeled.
	bare := &admin{in: in, reg: opts.Metrics, start: time.Now()}
	addr2, stop2, err := serveAdmin("127.0.0.1:0", bare, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if code, body, _ := get(t, "http://"+addr2+"/audit"); code != http.StatusNotFound ||
		!strings.Contains(body, "disabled") {
		t.Fatalf("/audit without auditor = %d: %s", code, body)
	}
}

// TestReadyzFlipsWhenAllSourcesFail checks the readiness contract: a
// pipeline whose every source has been permanently abandoned reports 503.
func TestReadyzFlipsWhenAllSourcesFail(t *testing.T) {
	c := cliConfig{
		shards: 1, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		maxRetries: 1,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	opts.BackoffBase = time.Millisecond
	opts.BackoffMax = time.Millisecond
	dead := ingest.SourceSpec{
		Name: "dead",
		Open: func() (trace.Source, error) { return nil, errors.New("no such device") },
	}
	in, err := ingest.Open(opts, []ingest.SourceSpec{dead})
	if err != nil {
		t.Fatal(err)
	}
	a := &admin{in: in, reg: obs.NewRegistry(), start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	if code, body, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before failure: %s", code, body)
	}
	if err := in.Run(context.Background()); err == nil {
		t.Fatal("pipeline with a dead source reported success")
	}
	code, body, _ := get(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after total source failure, want 503: %s", code, body)
	}
	if !strings.Contains(body, "all sources permanently failed") {
		t.Fatalf("unreadiness reason missing: %s", body)
	}
	// Liveness is about the process, not the pipeline: still 200.
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after source failure", code)
	}
}

// TestReadyGatesOnCheckpointFreshness exercises the freshness rule
// directly: with checkpointing enabled and none written, readiness is
// judged against process start and three cadences.
func TestReadyGatesOnCheckpointFreshness(t *testing.T) {
	dir := t.TempDir()
	c := cliConfig{
		shards: 1, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		checkpointDir: dir, checkpointEvery: time.Minute,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, []ingest.SourceSpec{
		ingest.GeneratorSource("gen", func() trace.Source {
			return trace.Limit(trace.FuncSource(func() (uint64, bool) { return 1, true }), 1)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	fresh := &admin{in: in, ckEvery: time.Minute, start: time.Now()}
	if ok, reason := fresh.ready(time.Now()); !ok {
		t.Fatalf("fresh daemon unready: %s", reason)
	}
	stale := &admin{in: in, ckEvery: time.Minute, start: time.Now().Add(-time.Hour)}
	ok, reason := stale.ready(time.Now())
	if ok {
		t.Fatal("daemon an hour past its checkpoint cadence reported ready")
	}
	if !strings.Contains(reason, "no checkpoint for") {
		t.Fatalf("stale reason %q", reason)
	}
}
