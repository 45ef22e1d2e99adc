package flight

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rap/internal/obs"
)

// BundleFormat names the bundle layout; rapdiag refuses bundles it does
// not understand.
const BundleFormat = "rap-bundle/1"

// BundleConfig lists everything a diagnostic bundle captures. Nil/zero
// fields are simply omitted from the archive — a bundle is best-effort
// by design: whatever subsystem is wired in gets captured.
type BundleConfig struct {
	// App names the process, recorded in meta.json.
	App string
	// Registry contributes metrics.prom, the current scrape.
	Registry *obs.Registry
	// Recorder contributes metrics_history.json, the whole ring.
	Recorder *Recorder
	// Engine contributes alerts.json.
	Engine *Engine
	// Spans contributes spans.jsonl, the span ring with its structural
	// events (satisfied by *span.Tracer; typed as an interface so flight
	// stays decoupled from the tracing package).
	Spans interface{ WriteJSONL(io.Writer) error }
	// Profile returns the adaptive latency-profile document /profilez
	// serves; contributes profile.json.
	Profile func() (any, bool)
	// AuditReport returns the latest audit report (and whether one
	// exists); contributes audit.json.
	AuditReport func() (any, bool)
	// AdmitState returns the admission watchdog state; contributes
	// admit.json.
	AdmitState func() (any, bool)
	// EffectiveConfig is the process's resolved configuration;
	// contributes config.json.
	EffectiveConfig any
}

type bundleMeta struct {
	Format    string    `json:"format"`
	Created   time.Time `json:"created"`
	App       string    `json:"app"`
	PID       int       `json:"pid"`
	Hostname  string    `json:"hostname,omitempty"`
	GoVersion string    `json:"go_version"`
}

// History is the metrics_history.json document: every recorded series
// with its full retained window. rapdiag decodes this shape back.
type History struct {
	Format string   `json:"format"`
	Series []Series `json:"series"`
}

// HistoryFormat names the metrics-history layout inside a bundle.
const HistoryFormat = "rap-flight-history/1"

// WriteBundle writes the one-shot diagnostic bundle — a gzipped tar of
// JSON/text documents — to w. Entry order is fixed so bundles diff
// cleanly. Errors are reported only for the archive plumbing itself;
// a missing subsystem just omits its entry.
func WriteBundle(w io.Writer, cfg BundleConfig) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()

	add := func(name string, body []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(body)), ModTime: now,
		}); err != nil {
			return fmt.Errorf("bundle %s: %w", name, err)
		}
		_, err := tw.Write(body)
		return err
	}
	addJSON := func(name string, v any) error {
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("bundle %s: %w", name, err)
		}
		return add(name, append(body, '\n'))
	}

	host, _ := os.Hostname()
	meta := bundleMeta{
		Format: BundleFormat, Created: now, App: cfg.App,
		PID: os.Getpid(), Hostname: host, GoVersion: runtime.Version(),
	}
	if err := addJSON("meta.json", meta); err != nil {
		return err
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if err := add("build.json", []byte(buildJSON(bi))); err != nil {
			return err
		}
	}
	if cfg.EffectiveConfig != nil {
		if err := addJSON("config.json", cfg.EffectiveConfig); err != nil {
			return err
		}
	}
	if cfg.Registry != nil {
		var buf bytes.Buffer
		if err := cfg.Registry.WritePrometheus(&buf); err != nil {
			return err
		}
		if err := add("metrics.prom", buf.Bytes()); err != nil {
			return err
		}
	}
	if cfg.Recorder != nil {
		h := History{Format: HistoryFormat, Series: cfg.Recorder.Query("", 0, now)}
		if h.Series == nil {
			h.Series = []Series{}
		}
		if err := addJSON("metrics_history.json", h); err != nil {
			return err
		}
	}
	if cfg.Engine != nil {
		if err := addJSON("alerts.json", struct {
			Alerts []AlertStatus `json:"alerts"`
		}{cfg.Engine.Snapshot()}); err != nil {
			return err
		}
	}
	if cfg.Spans != nil {
		var buf bytes.Buffer
		if err := cfg.Spans.WriteJSONL(&buf); err != nil {
			return err
		}
		if err := add("spans.jsonl", buf.Bytes()); err != nil {
			return err
		}
	}
	if cfg.Profile != nil {
		if doc, ok := cfg.Profile(); ok {
			if err := addJSON("profile.json", doc); err != nil {
				return err
			}
		}
	}
	if cfg.AuditReport != nil {
		if rep, ok := cfg.AuditReport(); ok {
			if err := addJSON("audit.json", rep); err != nil {
				return err
			}
		}
	}
	if cfg.AdmitState != nil {
		if st, ok := cfg.AdmitState(); ok {
			if err := addJSON("admit.json", st); err != nil {
				return err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// buildJSON renders build info as JSON by hand: debug.BuildInfo has no
// stable JSON shape, and the bundle wants a flat, diffable document.
func buildJSON(bi *debug.BuildInfo) string {
	type kv struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	}
	doc := struct {
		GoVersion string `json:"go_version"`
		Path      string `json:"path"`
		Settings  []kv   `json:"settings"`
	}{GoVersion: bi.GoVersion, Path: bi.Path}
	for _, s := range bi.Settings {
		doc.Settings = append(doc.Settings, kv{s.Key, s.Value})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return string(b) + "\n"
}

// WriteBundleFile writes the bundle to path (0600: it contains the
// effective config).
func WriteBundleFile(path string, cfg BundleConfig) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := WriteBundle(f, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BundleHandler serves the bundle as a download at /debug/bundle.
func BundleHandler(cfg func() BundleConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		name := fmt.Sprintf("rap-bundle-%s.tar.gz", time.Now().UTC().Format("20060102T150405Z"))
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
		if err := WriteBundle(w, cfg()); err != nil {
			// Headers are gone; all we can do is log-adjacent failure via
			// a trailing error status if nothing was written yet.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
