package flight

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rap/internal/obs"
)

// Fact is one key/value row the host process contributes to /statusz
// (admission level, audit verdict, shard count, ...).
type Fact struct {
	Key   string
	Value string
}

// Statusz renders the human-readable status page: identity and uptime,
// firing alerts, host facts, latency quantiles for every duration
// histogram, and sparkline history for a configurable set of series.
type Statusz struct {
	// App names the process on the page, e.g. "rapd".
	App string
	// Start is process start time, for uptime.
	Start time.Time
	// Registry supplies the current metric snapshot.
	Registry *obs.Registry
	// Recorder supplies history for sparklines and throughput rates. Optional.
	Recorder *Recorder
	// Engine supplies the alert table. Optional.
	Engine *Engine
	// Facts supplies host-specific rows. Optional.
	Facts func() []Fact
	// SparkSeries lists series to draw sparklines for. A "rate:" prefix
	// plots the per-frame delta instead of the level — the right view for
	// monotone counters.
	SparkSeries []string
	// SparkWindow bounds sparkline history. Default 5 minutes.
	SparkWindow time.Duration
	// SlowOps supplies the tracing subsystem's slow-op log. Optional; the
	// section is omitted when nil or empty.
	SlowOps func() []SlowOp
}

// SlowOp is one slow-operation row on /statusz: an op that exceeded the
// tracer's slow threshold, or an always-kept event (an audit verdict, an
// admission level change; duration 0), with its trace identity so the
// operator can jump to /spans?trace=.
type SlowOp struct {
	At       time.Time
	Name     string
	Duration time.Duration
	TraceID  string
}

type statuszAlert struct {
	Name, State, Value, Since, Reason string
}

type statuszQuantiles struct {
	Name          string
	Count         uint64
	P50, P95, P99 string
}

type statuszSpark struct {
	Name, Line, Min, Max, Last string
}

type statuszData struct {
	App       string
	Now       string
	Uptime    string
	GoVersion string
	Build     []Fact
	Facts     []Fact
	Alerts    []statuszAlert
	AllOK     bool
	Quantiles []statuszQuantiles
	Sparks    []statuszSpark
	SlowOps   []statuszSlowOp
}

type statuszSlowOp struct {
	At, Name, Duration, Trace string
}

var statuszTmpl = template.Must(template.New("statusz").Parse(`<!doctype html>
<html><head><title>{{.App}} statusz</title><style>
body { font-family: monospace; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 2px 10px; text-align: left; }
th { background: #eee; }
.ok { color: #080; } .warn { color: #b80; font-weight: bold; } .crit { color: #c00; font-weight: bold; }
.spark { font-size: 1.1em; letter-spacing: -1px; }
</style></head><body>
<h1>{{.App}}</h1>
<p>up {{.Uptime}} · {{.Now}} · {{.GoVersion}}</p>
{{if .Build}}<p>{{range .Build}}{{.Key}}={{.Value}} {{end}}</p>{{end}}

<h2>alerts</h2>
{{if .AllOK}}<p class="ok">all rules ok</p>{{end}}
<table><tr><th>rule</th><th>state</th><th>value</th><th>since</th><th>note</th></tr>
{{range .Alerts}}<tr><td>{{.Name}}</td><td class="{{.State}}">{{.State}}</td><td>{{.Value}}</td><td>{{.Since}}</td><td>{{.Reason}}</td></tr>
{{end}}</table>

{{if .Facts}}<h2>engine</h2>
<table>{{range .Facts}}<tr><td>{{.Key}}</td><td>{{.Value}}</td></tr>
{{end}}</table>{{end}}

{{if .Quantiles}}<h2>latency</h2>
<table><tr><th>histogram</th><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr>
{{range .Quantiles}}<tr><td>{{.Name}}</td><td>{{.Count}}</td><td>{{.P50}}</td><td>{{.P95}}</td><td>{{.P99}}</td></tr>
{{end}}</table>{{end}}

{{if .SlowOps}}<h2>slow ops</h2>
<table><tr><th>at</th><th>op</th><th>duration</th><th>trace</th></tr>
{{range .SlowOps}}<tr><td>{{.At}}</td><td>{{.Name}}</td><td class="warn">{{.Duration}}</td><td><a href="/spans?trace={{.Trace}}">{{.Trace}}</a></td></tr>
{{end}}</table>{{end}}

{{if .Sparks}}<h2>history</h2>
<table><tr><th>series</th><th>trend</th><th>min</th><th>max</th><th>last</th></tr>
{{range .Sparks}}<tr><td>{{.Name}}</td><td class="spark">{{.Line}}</td><td>{{.Min}}</td><td>{{.Max}}</td><td>{{.Last}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

// ServeHTTP renders the page.
func (s *Statusz) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	d := statuszData{
		App:    s.App,
		Now:    now.Format(time.RFC3339),
		Uptime: now.Sub(s.Start).Round(time.Second).String(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		d.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				d.Build = append(d.Build, Fact{kv.Key, kv.Value})
			}
		}
	}
	if s.Facts != nil {
		d.Facts = s.Facts()
	}
	if s.Engine != nil {
		d.AllOK = true
		for _, a := range s.Engine.Snapshot() {
			row := statuszAlert{
				Name:   a.Rule.Name,
				State:  a.State,
				Value:  trimFloat(float64(a.Value)),
				Reason: a.Reason,
			}
			if a.State != "ok" {
				d.AllOK = false
				row.Since = a.Since.Format(time.RFC3339)
			}
			d.Alerts = append(d.Alerts, row)
		}
	}
	if s.Registry != nil {
		for _, f := range s.Registry.Snapshot() {
			if f.Kind != obs.KindHistogram.String() {
				continue
			}
			for _, ser := range f.Series {
				if ser.Count == 0 {
					continue
				}
				d.Quantiles = append(d.Quantiles, statuszQuantiles{
					Name:  seriesMeta(f.Name, ser.Labels).Key,
					Count: ser.Count,
					P50:   trimFloat(obs.QuantileFromBuckets(ser.Buckets, 0.50)),
					P95:   trimFloat(obs.QuantileFromBuckets(ser.Buckets, 0.95)),
					P99:   trimFloat(obs.QuantileFromBuckets(ser.Buckets, 0.99)),
				})
			}
		}
		sort.Slice(d.Quantiles, func(i, j int) bool { return d.Quantiles[i].Name < d.Quantiles[j].Name })
	}
	if s.SlowOps != nil {
		ops := s.SlowOps()
		// Newest first; the log arrives oldest-first.
		for i := len(ops) - 1; i >= 0; i-- {
			op := ops[i]
			d.SlowOps = append(d.SlowOps, statuszSlowOp{
				At:       op.At.Format(time.RFC3339),
				Name:     op.Name,
				Duration: op.Duration.Round(time.Microsecond).String(),
				Trace:    op.TraceID,
			})
		}
	}
	if s.Recorder != nil {
		window := s.SparkWindow
		if window <= 0 {
			window = 5 * time.Minute
		}
		for _, name := range s.SparkSeries {
			sel, rate := name, false
			if strings.HasPrefix(name, "rate:") {
				sel, rate = name[len("rate:"):], true
			}
			for _, ser := range s.Recorder.Query(sel, window, now) {
				d.Sparks = append(d.Sparks, sparkRow(name, ser, rate))
			}
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	statuszTmpl.Execute(w, d)
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func sparkRow(name string, s Series, rate bool) statuszSpark {
	vals := make([]float64, 0, len(s.Points))
	for i, p := range s.Points {
		if rate {
			if i == 0 {
				continue
			}
			vals = append(vals, p.Value-s.Points[i-1].Value)
		} else {
			vals = append(vals, p.Value)
		}
	}
	// Downsample to at most 60 columns by bucketed max.
	const cols = 60
	if len(vals) > cols {
		ds := make([]float64, cols)
		for i := range ds {
			lo, hi := i*len(vals)/cols, (i+1)*len(vals)/cols
			m := vals[lo]
			for _, v := range vals[lo:hi] {
				m = math.Max(m, v)
			}
			ds[i] = m
		}
		vals = ds
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if !math.IsNaN(v) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			sb.WriteByte(' ')
		case hi == lo:
			sb.WriteRune(sparkRunes[0])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			sb.WriteRune(sparkRunes[idx])
		}
	}
	last := s.Last
	if rate && len(vals) > 0 {
		last = vals[len(vals)-1]
	}
	return statuszSpark{
		Name: name,
		Line: sb.String(),
		Min:  trimFloat(lo),
		Max:  trimFloat(hi),
		Last: trimFloat(last),
	}
}

func trimFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.IsInf(v, 0) {
		return fmt.Sprintf("%v", v)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
