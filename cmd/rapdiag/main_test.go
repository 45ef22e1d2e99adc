package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rap/internal/flight"
	"rap/internal/obs"
	"rap/internal/span"
)

// writeTestBundle produces a real bundle on disk: a registry with one
// gauge scraped a few times, one rule held in warn, and an audit report.
func writeTestBundle(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "test gauge")
	rec := flight.NewRecorder(reg, flight.Options{Every: time.Second, Depth: 64})
	eng := flight.NewEngine(rec, flight.Rule{
		Name: "g_high", Series: "g", Warn: 10,
	})
	now := time.Now()
	for i := 0; i < 5; i++ {
		g.Set(float64(20 + i))
		rec.Scrape(now.Add(time.Duration(i-5) * time.Second))
	}
	tracer := span.New(span.Options{SampleRate: 1, Capacity: 8, SlowThreshold: time.Nanosecond})
	sp := tracer.StartRoot("v1.estimate")
	time.Sleep(10 * time.Microsecond)
	sp.End()
	prof := obs.NewAdaptiveHistogram()
	prof.Observe(3 * time.Millisecond)
	path := filepath.Join(t.TempDir(), "bundle.tar.gz")
	err := flight.WriteBundleFile(path, flight.BundleConfig{
		App:      "raptest",
		Registry: reg,
		Recorder: rec,
		Engine:   eng,
		Spans:    tracer,
		Profile: func() (any, bool) {
			return map[string]any{"stages": map[string]any{"apply": map[string]any{
				"count": prof.Count(), "p50_seconds": prof.Quantile(0.5), "p99_seconds": prof.Quantile(0.99),
			}}}, true
		},
		EffectiveConfig: map[string]any{"shards": 4},
		AuditReport: func() (any, bool) {
			return map[string]any{"verdict": "ok", "violations_total": 0, "ranges": []any{}}, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummary(t *testing.T) {
	path := writeTestBundle(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"bundle: raptest",
		"alerts: 1 rules, 1 firing",
		"warn  g_high",
		"audit: verdict=ok",
		"history: ",
		"metrics: ",
		"spans: 1 recorded across 1 traces, 1 slow",
		"profile: 1 stages",
		"apply",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestListAndCat(t *testing.T) {
	path := writeTestBundle(t)
	var out bytes.Buffer
	if err := run([]string{"-list", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"meta.json", "alerts.json", "metrics_history.json", "config.json", "audit.json"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-cat", "config.json", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"shards": 4`) {
		t.Errorf("-cat config.json = %q", out.String())
	}

	out.Reset()
	if err := run([]string{"-cat", "nope.json", path}, &out, &out); err == nil {
		t.Fatal("missing entry accepted")
	}
}

func TestRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out, &out); err == nil {
		t.Fatal("garbage accepted as a bundle")
	}
}
