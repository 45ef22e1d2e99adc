package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// lastLine returns the last non-empty line of out.
func lastLine(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// TestSmoke runs every workload at a tiny scale with the traced run and
// checks that each metric BENCHMARK.json declares is reported with its
// unit, and that every output passed the oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rapd")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-root", "..", "-seed", "1", "-seconds", "2", "-out", filepath.Join(dir, "result.json")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var doc document
	if err := json.Unmarshal([]byte(lastLine(t, stdout.String())), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads reported, BENCHMARK.json declares %d", len(doc.Workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		got := doc.Workloads[w.Name]
		if got == nil {
			t.Fatalf("workload %s not reported", w.Name)
		}
		if !got.Correct || got.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d violations=%q", w.Name, got.Correct, got.Failed, got.Violations)
		}
		for _, set := range []struct {
			specs []metricSpec
			got   map[string]summary
		}{{spec.EndToEnd, got.EndToEnd}, {spec.PerLayer, got.PerLayer}} {
			for _, ms := range set.specs {
				s, ok := set.got[ms.Name]
				if !ok || s.Unit != ms.Unit {
					t.Errorf("%s: metric %s: reported=%v unit %q, want %q", w.Name, ms.Name, ok, s.Unit, ms.Unit)
				}
			}
		}
	}
	for _, ms := range spec.EndToEnd {
		if v := doc.Workloads["replay-gzip"].EndToEnd[ms.Name].Value; v <= 0 {
			t.Errorf("replay-gzip %s = %v, want > 0", ms.Name, v)
		}
	}
	if !strings.Contains(stdout.String(), "wall time") {
		t.Error("total wall time not reported")
	}

	// One workload alone ends with the one-line JSON result.
	stdout.Reset()
	args = []string{"-root", "..", "--workload", "replay-flood", "--seed", "2", "--seconds", "1", "--trace", "0",
		"-out", filepath.Join(dir, "one.json")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lastLine(t, stdout.String())), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("result line %s", lastLine(t, stdout.String()))
	}
}

// oracleFixture is a 1000-event stream, all in check range 0, written
// before any answer arrives.
func oracleFixture() (*oracle, *feedLog, time.Time) {
	values := make([]uint64, 1000)
	for i := range values {
		values[i] = uint64(i % 16)
	}
	in := &input{values: values, ranges: []checkRange{{Lo: 0, Hi: 15}}}
	in.truth = newTruthIndex(values, in.ranges)
	t0 := time.Now()
	fl := &feedLog{}
	for i := 0; i < 10; i++ {
		in.chunks = append(in.chunks, chunk{evEnd: (i + 1) * 100})
		fl.start = append(fl.start, t0)
		fl.done = append(fl.done, t0)
	}
	return newOracle(in, false), fl, t0.Add(time.Millisecond)
}

func TestOracleRejects(t *testing.T) {
	est := func(seq, cut, estimate uint64, at time.Time) answer {
		return answer{kind: qEstimate, ok: true, seq: seq, cut: cut, est: estimate, low: estimate, high: 1000, done: at}
	}
	cases := []struct {
		name    string
		answers func(at time.Time) []answer
		bad     bool
	}{
		{"exact", func(at time.Time) []answer { return []answer{est(1, 500, 500, at), est(2, 600, 590, at)} }, false},
		{"estimate above truth", func(at time.Time) []answer { return []answer{est(1, 500, 501, at)} }, true},
		{"cut backwards", func(at time.Time) []answer { return []answer{est(2, 600, 600, at), est(2, 500, 500, at)} }, true},
		{"seq backwards", func(at time.Time) []answer { return []answer{est(2, 500, 500, at), est(1, 500, 500, at)} }, true},
		{"unwritten events", func(at time.Time) []answer { return []answer{est(1, 1001, 1000, at)} }, true},
	}
	for _, c := range cases {
		o, fl, at := oracleFixture()
		o.checkAnswers(c.answers(at), fl)
		if got := len(o.violations) > 0; got != c.bad {
			t.Errorf("%s: violations %q, want rejected=%v", c.name, o.violations, c.bad)
		}
	}
}

// TestSpeedScaling checks which metrics the speed factor scales: timings
// (query latency by its 1.5th power) and the rate of an unthrottled burst,
// but not a paced rate, freshness or memory.
func TestSpeedScaling(t *testing.T) {
	t0 := time.Now()
	for _, unthrottled := range []bool{true, false} {
		rep := repResult{
			tpStart: t0, tpEnd: t0.Add(time.Second), tpEvents: 1e6, unthrottled: unthrottled,
			cpu: 2 * time.Second, maxRSS: 1 << 20,
			answers: []answer{{due: t0, done: t0.Add(2 * time.Millisecond)}},
			fresh:   []time.Duration{100 * time.Millisecond},
		}
		res := &e2eResult{setups: []time.Duration{10 * time.Millisecond}, reps: []repResult{rep}}
		got := endToEnd(res, 0.25)
		eps := 1e6
		if unthrottled {
			eps = 4e6
		}
		want := map[string]float64{
			"setup_s": 0.0025, "ingest_eps": eps, "cpu_s_per_mevent": 0.5, "peak_rss_mb": 1,
			"query_p50_ms": 0.25, "freshness_p50_ms": 100, "freshness_p99_ms": 100,
		}
		for name, v := range want {
			if g := got[name].Value; g < v*0.999 || g > v*1.001 {
				t.Errorf("unthrottled=%v %s = %v, want %v", unthrottled, name, g, v)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ingest_eps", Better: "higher", Bound: 0.1}
	s := func(v, lo, hi float64) summary { return summary{Value: v, Min: lo, Max: hi} }
	cases := []struct {
		ms   metricSpec
		a, b summary
		want string
	}{
		{lower, s(1, 1, 1), s(1.05, 1.05, 1.05), "same"},
		{lower, s(1, 1, 1), s(1.2, 1.2, 1.2), "worse"},
		{lower, s(1, 1, 1), s(0.8, 0.8, 0.8), "better"},
		{higher, s(1, 1, 1), s(0.8, 0.8, 0.8), "worse"},
		{higher, s(1, 1, 1), s(1.2, 1.2, 1.2), "better"},
		{lower, s(1, 0.8, 1.2), s(1.2, 1.2, 1.2), "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.ms, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.ms.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
