package flight

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"rap/internal/obs"
)

func buildTestBundle(t *testing.T) map[string][]byte {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Gauge("g", "a gauge").Set(42)
	rec := NewRecorder(reg, Options{})
	for i := 0; i < 5; i++ {
		rec.Scrape(at(i))
	}
	eng := NewEngine(rec, Rule{Name: "r", Kind: Threshold, Series: "g", Warn: 10})
	eng.Eval(frame(5, map[string]float64{"g": 42}))

	var buf bytes.Buffer
	err := WriteBundle(&buf, BundleConfig{
		App:      "test",
		Registry: reg,
		Recorder: rec,
		Engine:   eng,
		AuditReport: func() (any, bool) {
			return map[string]any{"verdict": "pass", "violations_total": 0}, true
		},
		AdmitState:      func() (any, bool) { return map[string]any{"level": "Normal"}, true },
		Spans:           jsonlWriter(`{"name":"v1.estimate","trace_id":"t1"}` + "\n"),
		Profile:         func() (any, bool) { return map[string]any{"theta": 0.05}, true },
		EffectiveConfig: map[string]any{"epsilon": 0.01},
	})
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	return untar(t, buf.Bytes())
}

// jsonlWriter satisfies BundleConfig.Spans with canned JSONL content.
type jsonlWriter string

func (s jsonlWriter) WriteJSONL(w io.Writer) error {
	_, err := io.WriteString(w, string(s))
	return err
}

func untar(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle not tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out[hdr.Name] = body
	}
	return out
}

// TestBundleContents checks every promised entry exists and decodes.
func TestBundleContents(t *testing.T) {
	entries := buildTestBundle(t)
	for _, name := range []string{
		"meta.json", "build.json", "config.json", "metrics.prom",
		"metrics_history.json", "alerts.json",
		"spans.jsonl", "profile.json", "audit.json", "admit.json",
	} {
		if _, ok := entries[name]; !ok {
			t.Errorf("bundle missing %s (has %v)", name, keysOf(entries))
		}
	}

	var meta bundleMeta
	if err := json.Unmarshal(entries["meta.json"], &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Format != BundleFormat || meta.App != "test" || meta.PID == 0 {
		t.Fatalf("meta = %+v", meta)
	}

	var hist History
	if err := json.Unmarshal(entries["metrics_history.json"], &hist); err != nil {
		t.Fatalf("metrics_history.json: %v", err)
	}
	if hist.Format != HistoryFormat {
		t.Fatalf("history format = %q", hist.Format)
	}
	found := false
	for _, s := range hist.Series {
		if s.Key == "g" {
			found = true
			if len(s.Points) != 5 || s.Last != 42 {
				t.Fatalf("history for g = %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("history missing series g")
	}

	var alerts struct {
		Alerts []AlertStatus `json:"alerts"`
	}
	if err := json.Unmarshal(entries["alerts.json"], &alerts); err != nil {
		t.Fatalf("alerts.json: %v", err)
	}
	if len(alerts.Alerts) != 1 || alerts.Alerts[0].State != "warn" {
		t.Fatalf("alerts.json = %+v", alerts.Alerts)
	}

	if !strings.Contains(string(entries["metrics.prom"]), "g 42") {
		t.Error("metrics.prom missing gauge sample")
	}
	if !strings.Contains(string(entries["spans.jsonl"]), `"name":"v1.estimate"`) {
		t.Error("spans.jsonl missing recorded span")
	}
	if !strings.Contains(string(entries["profile.json"]), `"theta"`) {
		t.Error("profile.json missing profile document")
	}
	if !strings.Contains(string(entries["audit.json"]), `"verdict": "pass"`) {
		t.Error("audit.json missing verdict")
	}
}

// TestBundleOmitsMissingSubsystems: a minimal config still yields a valid
// archive with just meta and build info.
func TestBundleOmitsMissingSubsystems(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, BundleConfig{App: "bare"}); err != nil {
		t.Fatal(err)
	}
	entries := untar(t, buf.Bytes())
	if _, ok := entries["meta.json"]; !ok {
		t.Fatal("bare bundle missing meta.json")
	}
	if _, ok := entries["metrics.prom"]; ok {
		t.Fatal("bare bundle should not contain metrics.prom")
	}
}

// TestBundleHandler checks the HTTP download path.
func TestBundleHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g", "").Set(1)
	srv := httptest.NewServer(BundleHandler(func() BundleConfig {
		return BundleConfig{App: "http", Registry: reg}
	}))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("content-type = %q", ct)
	}
	if cd := res.Header.Get("Content-Disposition"); !strings.Contains(cd, "attachment") {
		t.Fatalf("content-disposition = %q", cd)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	entries := untar(t, raw)
	if _, ok := entries["metrics.prom"]; !ok {
		t.Fatal("served bundle missing metrics.prom")
	}
}

// TestWriteBundleFile checks the on-disk path and its restrictive mode.
func TestWriteBundleFile(t *testing.T) {
	path := t.TempDir() + "/b.tar.gz"
	if err := WriteBundleFile(path, BundleConfig{App: "file"}); err != nil {
		t.Fatal(err)
	}
	raw := readFile(t, path)
	if _, ok := untar(t, raw)["meta.json"]; !ok {
		t.Fatal("file bundle missing meta.json")
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
