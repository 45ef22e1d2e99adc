package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rap/internal/admit"
	"rap/internal/flight"
	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/trace"
)

// healthDoc is the structured /healthz and /readyz body.
type healthDoc struct {
	Status string `json:"status"`
	Checks []struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Reason string `json:"reason"`
	} `json:"checks"`
}

func decodeHealth(t *testing.T, body string) healthDoc {
	t.Helper()
	var doc healthDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("health body not JSON: %v\n%s", err, body)
	}
	return doc
}

// check returns the named check, failing the test if it is absent.
func (d healthDoc) check(t *testing.T, name string) (ok bool, reason string) {
	t.Helper()
	for _, c := range d.Checks {
		if c.Name == name {
			return c.OK, c.Reason
		}
	}
	t.Fatalf("no check named %q in %+v", name, d)
	return false, ""
}

// alertsDoc decodes /alerts (and a bundle's alerts.json).
type alertsDoc struct {
	Alerts []flight.AlertStatus `json:"alerts"`
}

func alertState(t *testing.T, base, rule string) (state string, transitions uint64) {
	t.Helper()
	code, body, _ := get(t, base+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("/alerts = %d: %s", code, body)
	}
	var doc alertsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/alerts not JSON: %v\n%s", err, body)
	}
	for _, a := range doc.Alerts {
		if a.Rule.Name == rule {
			return a.State, a.Transitions
		}
	}
	t.Fatalf("rule %q not in /alerts:\n%s", rule, body)
	return "", 0
}

// TestHealthEndpointsNameFailingCheck pins the structured health
// contract: when readiness flips, the JSON body names which check failed
// and why — the difference between "pod restarting" and "pod restarting
// because its sources are gone".
func TestHealthEndpointsNameFailingCheck(t *testing.T) {
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

	// Healthy: every check present and passing, with a reason string.
	code, body, _ := get(t, base+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz = %d before failure: %s", code, body)
	}
	doc := decodeHealth(t, body)
	if ok, reason := doc.check(t, "source_liveness"); !ok || !strings.Contains(reason, "alive") {
		t.Fatalf("healthy source_liveness = %v %q", ok, reason)
	}

	if err := in.Run(context.Background()); err == nil {
		t.Fatal("pipeline with a dead source reported success")
	}

	// Unready: the failing check is named with its reason.
	code, body, _ = get(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after total source failure: %s", code, body)
	}
	doc = decodeHealth(t, body)
	if doc.Status != "unready" {
		t.Fatalf("status %q, want unready", doc.Status)
	}
	ok, reason := doc.check(t, "source_liveness")
	if ok || reason != "all sources permanently failed" {
		t.Fatalf("source_liveness = %v %q", ok, reason)
	}

	// Liveness stays 200 but carries the same named checks.
	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d after source failure", code)
	}
	if ok, _ := decodeHealth(t, body).check(t, "source_liveness"); ok {
		t.Fatal("/healthz hides the failing check")
	}

	// The checkpoint-freshness check is named too: a daemon an hour past
	// its cadence with checkpointing enabled.
	dir := t.TempDir()
	c2 := c
	c2.checkpointDir, c2.checkpointEvery = dir, time.Minute
	opts2, err := c2.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	in2, err := ingest.Open(opts2, []ingest.SourceSpec{
		ingest.GeneratorSource("gen", func() trace.Source {
			return trace.Limit(trace.FuncSource(func() (uint64, bool) { return 1, true }), 1)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := &admin{in: in2, reg: obs.NewRegistry(), ckEvery: time.Minute, start: time.Now().Add(-time.Hour)}
	addr2, stop2, err := serveAdmin("127.0.0.1:0", stale, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	code, body, _ = get(t, "http://"+addr2+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with stale checkpoint: %s", code, body)
	}
	ok, reason = decodeHealth(t, body).check(t, "checkpoint_freshness")
	if ok || !strings.Contains(reason, "no checkpoint for") {
		t.Fatalf("checkpoint_freshness = %v %q", ok, reason)
	}
}

// TestFloodAlertFiresAndClears is the admission fault-injection story end
// to end: a key-flood burst drives the watchdog to Siege, the
// admission_level alert goes crit on the next scrape, a bundle captured
// mid-incident carries the firing alert and the level history, and once
// the burst gives way to the benign carrier the alert clears.
func TestFloodAlertFiresAndClears(t *testing.T) {
	c := cliConfig{
		bench: "gzip", kind: "flood", floodFrac: 1, floodN: 1_000_000,
		genN: 4_000_000, seed: 7,
		shards: 2, queue: 64, batch: 256, drop: "block",
		epsilon: 0.05, universe: 64, branch: 4,
		readTimeout: 5 * time.Second, maxRetries: 2,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	opts.Admission = &admit.Options{Seed: 42}
	opts.AdmissionObserveEvery = 20 * time.Millisecond
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}

	// Manual scrapes instead of Start(): the test controls the clock the
	// same way the ticker would, without real-time flakiness.
	rec := flight.NewRecorder(reg, flight.Options{Every: 10 * time.Millisecond, Depth: 4096})
	rec.Register(reg)
	eng := flight.NewEngine(rec, flight.BuiltinRules(flight.BuiltinConfig{})...)
	eng.Register(reg)

	a := &admin{in: in, reg: reg, rec: rec, eng: eng, effCfg: c.effective(), start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	done := make(chan error, 1)
	go func() { done <- in.Run(context.Background()) }()

	// Scrape until a scrape lands inside the escalated burst. The burst is
	// a million events, so at 1ms polling the window cannot be missed.
	deadline := time.Now().Add(30 * time.Second)
	fired := false
	for time.Now().Before(deadline) {
		rec.Scrape(time.Now())
		if state, _ := alertState(t, base, "admission_level"); state != "ok" {
			fired = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !fired {
		t.Fatal("admission_level alert never fired during a pure key-flood burst")
	}

	// Capture the incident: the bundle taken now must carry the firing
	// alert and the escalated level history.
	code, body, _ := get(t, base+"/debug/bundle")
	if code != http.StatusOK {
		t.Fatalf("/debug/bundle = %d", code)
	}
	entries := untarBundle(t, []byte(body))
	var alerts alertsDoc
	if err := json.Unmarshal(entries["alerts.json"], &alerts); err != nil {
		t.Fatalf("bundle alerts.json: %v", err)
	}
	sawFiring := false
	for _, al := range alerts.Alerts {
		if al.Rule.Name == "admission_level" && al.State != "ok" {
			sawFiring = true
		}
	}
	if !sawFiring {
		t.Fatalf("bundle captured mid-incident does not show admission_level firing:\n%s", entries["alerts.json"])
	}
	var hist flight.History
	if err := json.Unmarshal(entries["metrics_history.json"], &hist); err != nil {
		t.Fatalf("bundle metrics_history.json: %v", err)
	}
	levelRecorded := false
	for _, s := range hist.Series {
		if s.Name == "rap_admit_level" && s.Max >= 1 {
			levelRecorded = true
		}
	}
	if !levelRecorded {
		t.Fatal("bundle history does not show the escalated rap_admit_level")
	}
	var admitState struct {
		Level string `json:"level"`
	}
	if err := json.Unmarshal(entries["admit.json"], &admitState); err != nil {
		t.Fatalf("bundle admit.json: %v", err)
	}
	if admitState.Level == "normal" {
		t.Fatal("bundle admit.json claims normal during the flood")
	}

	// The status page renders mid-incident.
	code, page, _ := get(t, base+"/statusz")
	if code != http.StatusOK || !strings.Contains(page, "admission level") {
		t.Fatalf("/statusz = %d:\n%s", code, page)
	}

	// Run out the stream: the burst ends, the carrier drives the watchdog
	// calm, and the alert must clear.
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.Scrape(time.Now())
	state, transitions := alertState(t, base, "admission_level")
	if state != "ok" {
		t.Fatalf("admission_level = %q after the flood ended and the stream ran calm", state)
	}
	if transitions < 2 {
		t.Fatalf("transitions = %d, want the round trip (fire + clear)", transitions)
	}

	// The same round trip is visible in the exported metrics.
	_, metrics, _ := get(t, base+"/metrics")
	sc := parseProm(t, metrics)
	if v := sc.samples[`rap_alert_state{rule="admission_level"}`]; v != 0 {
		t.Fatalf("rap_alert_state = %v after recovery", v)
	}
	if v := sc.samples[`rap_alert_transitions_total{rule="admission_level"}`]; v < 2 {
		t.Fatalf("rap_alert_transitions_total = %v, want >= 2", v)
	}
}

// TestCheckpointStalenessAlertFiresAndClears injects a durability fault:
// the checkpoint directory is replaced by a regular file, writes start
// failing, staleness climbs past the built-in thresholds, and both the
// alert and readiness flip — then the directory is restored and both
// recover. Root can write anywhere, so the fault is ENOTDIR, not
// permissions.
func TestCheckpointStalenessAlertFiresAndClears(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	const ckEvery = 100 * time.Millisecond

	c := cliConfig{
		bench: "gzip", kind: "value", genN: 1 << 40, seed: 3,
		shards: 1, queue: 16, batch: 64, drop: "block",
		epsilon: 0.05, universe: 64, branch: 4,
		checkpointDir: ckDir, checkpointEvery: ckEvery,
		readTimeout: 5 * time.Second, maxRetries: 2,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}

	rec := flight.NewRecorder(reg, flight.Options{Every: 10 * time.Millisecond, Depth: 4096})
	rec.Register(reg)
	eng := flight.NewEngine(rec, flight.BuiltinRules(flight.BuiltinConfig{CheckpointEvery: ckEvery})...)
	eng.Register(reg)
	a := &admin{in: in, reg: reg, rec: rec, eng: eng, ckEvery: ckEvery, start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- in.Run(ctx) }()

	waitState := func(want string, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			rec.Scrape(time.Now())
			if state, _ := alertState(t, base, "checkpoint_staleness"); state == want {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		state, _ := alertState(t, base, "checkpoint_staleness")
		t.Fatalf("checkpoint_staleness stuck at %q, want %q", state, want)
	}

	// Healthy baseline: checkpoints land on cadence, alert ok, ready.
	deadline := time.Now().Add(10 * time.Second)
	for in.Stats().Checkpoint.Written == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if in.Stats().Checkpoint.Written == 0 {
		t.Fatal("no checkpoint ever landed")
	}
	waitState("ok", 5*time.Second)

	// Fault: the checkpoint directory becomes a regular file; every write
	// from here fails with ENOTDIR and the last durable state ages.
	if err := os.RemoveAll(ckDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckDir, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Warn fires at 3x cadence (300ms of staleness).
	waitState("warn", 10*time.Second)

	// Readiness names the failing check once the age passes 3 cadences.
	code, body, _ := get(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d while checkpoints fail: %s", code, body)
	}
	if ok, reason := decodeHealth(t, body).check(t, "checkpoint_freshness"); ok ||
		!strings.Contains(reason, "no checkpoint for") {
		t.Fatalf("checkpoint_freshness = %v %q", ok, reason)
	}

	// Recovery: restore the directory; the next cadence tick writes a
	// fresh checkpoint, staleness collapses, alert and readiness clear.
	if err := os.Remove(ckDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	waitState("ok", 10*time.Second)
	if code, body, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after recovery: %s", code, body)
	}
	if _, transitions := alertState(t, base, "checkpoint_staleness"); transitions < 2 {
		t.Fatalf("transitions = %d, want the round trip (fire + clear)", transitions)
	}

	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run: %v", err)
	}
}

// TestDumpBundleOnExit drives run() the way `rapd -admin ... -dump-bundle
// path` would: the daemon processes its stream, exits cleanly, and leaves
// a parseable bundle at the requested path.
func TestDumpBundleOnExit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.trace")
	vals := make([]uint64, 20_000)
	for i := range vals {
		vals[i] = uint64(i % 997)
	}
	writeTrace(t, path, vals)
	bundlePath := filepath.Join(dir, "exit-bundle.tar.gz")

	c := cliConfig{
		traces: []string{path},
		shards: 2, queue: 64, batch: 256, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		checkpointEvery: time.Hour, readTimeout: 5 * time.Second, maxRetries: 2,
		admin:       "127.0.0.1:0",
		flightEvery: 5 * time.Millisecond, flightDepth: 1024,
		dumpBundle: bundlePath,
		audit:      true, auditEvery: time.Hour,
		auditRanges: 8, auditSpanBits: 8, auditSample: 16,
	}
	var out bytes.Buffer
	if err := run(context.Background(), c, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatalf("no bundle at exit: %v\n%s", err, out.String())
	}
	entries := untarBundle(t, raw)
	if _, ok := entries["trace.jsonl"]; ok {
		t.Error("exit bundle still carries trace.jsonl; split/merge events live in spans.jsonl")
	}
	for _, want := range []string{"meta.json", "config.json", "metrics.prom", "metrics_history.json", "alerts.json", "spans.jsonl", "profile.json", "audit.json"} {
		if _, ok := entries[want]; !ok {
			t.Errorf("exit bundle missing %s (has %v)", want, len(entries))
		}
	}
	var cfg map[string]any
	if err := json.Unmarshal(entries["config.json"], &cfg); err != nil {
		t.Fatalf("config.json: %v", err)
	}
	if cfg["shards"] != float64(2) || cfg["audit"] != true {
		t.Fatalf("effective config wrong: %v", cfg)
	}
}

// untarBundle unpacks a gzipped tar bundle into entry-name -> contents.
func untarBundle(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle not gzipped: %v", err)
	}
	tr := tar.NewReader(gz)
	entries := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		entries[hdr.Name] = body
	}
	return entries
}

// TestQueueSaturationAlertFollowsDropPolicy runs the rules rapd derives
// from -drop against a live pipeline whose generator outruns its shard,
// so its one-entry queue sits full. Under -drop block that is lossless
// backpressure and queue_saturation stays ok; under -drop newest the full
// queue sheds counted events and the rule goes crit.
func TestQueueSaturationAlertFollowsDropPolicy(t *testing.T) {
	for _, tc := range []struct{ drop, want string }{
		{"block", "ok"},
		{"newest", "crit"},
	} {
		t.Run(tc.drop, func(t *testing.T) {
			c := cliConfig{
				bench: "gzip", kind: "value", genN: 1 << 40, seed: 5,
				shards: 1, queue: 1, batch: 64, drop: tc.drop,
				epsilon: 0.05, universe: 64, branch: 4,
				readTimeout: 5 * time.Second, maxRetries: 2,
			}
			opts, err := c.options(discardLogger())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			opts.Metrics = reg
			specs, err := c.specs(nil)
			if err != nil {
				t.Fatal(err)
			}
			in, err := ingest.Open(opts, specs)
			if err != nil {
				t.Fatal(err)
			}
			rec := flight.NewRecorder(reg, flight.Options{Every: time.Millisecond, Depth: 64})
			eng := flight.NewEngine(rec, c.alertRules()...)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- in.Run(ctx) }()
			defer func() {
				cancel()
				if err := <-done; err != nil {
					t.Errorf("run: %v", err)
				}
			}()

			// Scrape until a frame catches the queue full, then read the
			// verdict on that frame.
			deadline := time.Now().Add(10 * time.Second)
			for {
				rec.Scrape(time.Now())
				var st flight.AlertStatus
				for _, a := range eng.Snapshot() {
					if a.Rule.Name == "queue_saturation" {
						st = a
					}
				}
				if float64(st.Value) == 1 {
					if st.State != tc.want {
						t.Fatalf("-drop %s, queue full: queue_saturation %s, want %s", tc.drop, st.State, tc.want)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no scrape saw the queue full (last fill %v)", float64(st.Value))
				}
				time.Sleep(time.Millisecond)
			}
			// The frame that saw the queue full can come before the
			// reader's next enqueue, so the shed count is read over a
			// wait: newest must shed within it, block in none of it.
			for wait := time.Now().Add(500 * time.Millisecond); in.Dropped() == 0 && time.Now().Before(wait); {
				time.Sleep(time.Millisecond)
			}
			if dropped := in.Dropped(); (tc.drop == "newest") != (dropped > 0) {
				t.Fatalf("-drop %s: %d events dropped", tc.drop, dropped)
			}
		})
	}
}
