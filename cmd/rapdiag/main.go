// Command rapdiag reads the diagnostic bundles rapd produces (via
// /debug/bundle, SIGQUIT, or -dump-bundle) without needing the daemon or
// its admin endpoint: the bundle is a self-contained gzipped tar, and
// rapdiag is the offline half of the flight-recorder story.
//
// Usage:
//
//	rapdiag bundle.tar.gz            # summary: meta, alerts, audit, history span
//	rapdiag -list bundle.tar.gz      # entry inventory with sizes
//	rapdiag -cat alerts.json bundle.tar.gz   # dump one entry raw
package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"rap/internal/flight"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "rapdiag: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("rapdiag", flag.ContinueOnError)
	fs.SetOutput(errOut)
	list := fs.Bool("list", false, "list bundle entries and sizes")
	cat := fs.String("cat", "", "print one entry verbatim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rapdiag [-list | -cat entry] bundle.tar.gz")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := readBundle(f)
	if err != nil {
		return err
	}

	switch {
	case *list:
		names := make([]string, 0, len(entries))
		for name := range entries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "%8d  %s\n", len(entries[name]), name)
		}
		return nil
	case *cat != "":
		body, ok := entries[*cat]
		if !ok {
			return fmt.Errorf("no entry %q in bundle (have: %s)", *cat, strings.Join(keys(entries), ", "))
		}
		_, err := out.Write(body)
		return err
	default:
		return summarize(out, entries)
	}
}

// readBundle loads every tar entry into memory; bundles are small by
// construction (a bounded metric ring plus a few JSON documents).
func readBundle(r io.Reader) (map[string][]byte, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("not a gzipped bundle: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	entries := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("corrupt bundle: %w", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("corrupt bundle entry %s: %w", hdr.Name, err)
		}
		entries[hdr.Name] = body
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("empty bundle")
	}
	return entries, nil
}

func summarize(out io.Writer, entries map[string][]byte) error {
	var meta struct {
		Format    string    `json:"format"`
		Created   time.Time `json:"created"`
		App       string    `json:"app"`
		PID       int       `json:"pid"`
		Hostname  string    `json:"hostname"`
		GoVersion string    `json:"go_version"`
	}
	if body, ok := entries["meta.json"]; ok {
		if err := json.Unmarshal(body, &meta); err != nil {
			return fmt.Errorf("meta.json: %w", err)
		}
	}
	if meta.Format != flight.BundleFormat {
		return fmt.Errorf("unsupported bundle format %q (want %s)", meta.Format, flight.BundleFormat)
	}
	fmt.Fprintf(out, "bundle: %s pid=%d host=%s %s\n", meta.App, meta.PID, meta.Hostname, meta.GoVersion)
	fmt.Fprintf(out, "created: %s (%s ago)\n", meta.Created.Format(time.RFC3339),
		time.Since(meta.Created).Round(time.Second))
	fmt.Fprintf(out, "entries: %s\n", strings.Join(keys(entries), ", "))

	if body, ok := entries["alerts.json"]; ok {
		var doc struct {
			Alerts []flight.AlertStatus `json:"alerts"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("alerts.json: %w", err)
		}
		firing := 0
		for _, a := range doc.Alerts {
			if a.State != "ok" {
				firing++
			}
		}
		fmt.Fprintf(out, "\nalerts: %d rules, %d firing\n", len(doc.Alerts), firing)
		// Firing rules first — the reason the bundle exists.
		sort.SliceStable(doc.Alerts, func(i, j int) bool {
			return rank(doc.Alerts[i].State) > rank(doc.Alerts[j].State)
		})
		for _, a := range doc.Alerts {
			line := fmt.Sprintf("  %-5s %-22s value=%g transitions=%d",
				a.State, a.Rule.Name, float64(a.Value), a.Transitions)
			if a.Reason != "" {
				line += " (" + a.Reason + ")"
			}
			fmt.Fprintln(out, line)
		}
	}

	if body, ok := entries["audit.json"]; ok {
		var rep struct {
			Verdict         string            `json:"verdict"`
			ViolationsTotal uint64            `json:"violations_total"`
			Ranges          []json.RawMessage `json:"ranges"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("audit.json: %w", err)
		}
		fmt.Fprintf(out, "\naudit: verdict=%s violations=%d ranges=%d\n",
			rep.Verdict, rep.ViolationsTotal, len(rep.Ranges))
	}

	if body, ok := entries["admit.json"]; ok {
		var st struct {
			Level      string `json:"level"`
			LevelMax   string `json:"level_max"`
			Period     uint64 `json:"period"`
			Offered    uint64 `json:"offered"`
			Unadmitted uint64 `json:"unadmitted"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("admit.json: %w", err)
		}
		fmt.Fprintf(out, "\nadmission: level=%s (max %s) period=%d offered=%d unadmitted=%d\n",
			st.Level, st.LevelMax, st.Period, st.Offered, st.Unadmitted)
	}

	if body, ok := entries["metrics_history.json"]; ok {
		var h flight.History
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("metrics_history.json: %w", err)
		}
		points, lo, hi := 0, int64(0), int64(0)
		for _, s := range h.Series {
			points += len(s.Points)
			for _, p := range s.Points {
				if lo == 0 || p.UnixNano < lo {
					lo = p.UnixNano
				}
				if p.UnixNano > hi {
					hi = p.UnixNano
				}
			}
		}
		span := time.Duration(hi - lo).Round(time.Second)
		fmt.Fprintf(out, "\nhistory: %d series, %d points, %v span\n", len(h.Series), points, span)
	}

	if body, ok := entries["spans.jsonl"]; ok {
		spans, slow := 0, 0
		traces := map[string]struct{}{}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" {
				continue
			}
			var rec struct {
				TraceID string `json:"trace_id"`
				Slow    bool   `json:"slow"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return fmt.Errorf("spans.jsonl: %w", err)
			}
			spans++
			if rec.Slow {
				slow++
			}
			traces[rec.TraceID] = struct{}{}
		}
		fmt.Fprintf(out, "spans: %d recorded across %d traces, %d slow\n", spans, len(traces), slow)
	}
	if body, ok := entries["profile.json"]; ok {
		var doc struct {
			Stages map[string]struct {
				Count      uint64   `json:"count"`
				P50Seconds *float64 `json:"p50_seconds"`
				P99Seconds *float64 `json:"p99_seconds"`
			} `json:"stages"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("profile.json: %w", err)
		}
		names := make([]string, 0, len(doc.Stages))
		for name := range doc.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "profile: %d stages\n", len(names))
		for _, name := range names {
			st := doc.Stages[name]
			line := fmt.Sprintf("  %-12s n=%d", name, st.Count)
			if st.P50Seconds != nil {
				line += fmt.Sprintf(" p50=%.6fs", *st.P50Seconds)
			}
			if st.P99Seconds != nil {
				line += fmt.Sprintf(" p99=%.6fs", *st.P99Seconds)
			}
			fmt.Fprintln(out, line)
		}
	}
	if body, ok := entries["metrics.prom"]; ok {
		n := 0
		for _, line := range strings.Split(string(body), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		fmt.Fprintf(out, "metrics: %d samples in final scrape\n", n)
	}
	return nil
}

func rank(state string) int {
	switch state {
	case "crit":
		return 2
	case "warn":
		return 1
	}
	return 0
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
