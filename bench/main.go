// Command bench is the rapd benchmark: it builds cmd/rapd from the tree
// under test, feeds it generated streams through stdin while one
// keep-alive connection sends an open-loop /v1 query mix, checks every
// answer and the final checkpoint against exact truth, and reports the
// end-to-end metrics declared in BENCHMARK.json. A traced in-process run
// over the same inputs times calls into each layer's public functions and
// reports the per-layer metrics.
//
// Run it from the repository root through bench/run.sh, which keeps every
// build product under .bench_build/:
//
//	bash bench/run.sh --workload replay-gzip --seed 1 --seconds 36 --trace 0
//	bash bench/run.sh -seed 1
//	bash bench/run.sh -compare a.json b.json
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer ones with -trace 1. Without -workload every
// workload runs with the traced run. Either way the full result, with
// per-run values and a host stamp, is written to -out, and the traced
// run's spans to spans.jsonl beside it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rap/internal/span"
)

// benchSpec is BENCHMARK.json: the metric names, units, directions and
// regression bounds the benchmark reports against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// document is the full result of one invocation.
type document struct {
	Host      hostInfo                `json:"host"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	WallS     float64                 `json:"wall_s"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

type workloadOut struct {
	Why    string `json:"why"`
	Events int    `json:"events_per_run"`
	Runs   int    `json:"runs"`
	// SpeedFactor scales the end-to-end timings to the reference host
	// (see speed.go); a reported timing divided by it (query latency: by
	// its 1.5th power) is the value as measured.
	SpeedFactor float64            `json:"speed_factor"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Violations  []string           `json:"violations,omitempty"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]summary `json:"per_layer,omitempty"`
}

type config struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceFlag int
	var compare bool
	fs.StringVar(&c.root, "root", "", "repository root (default: . or .., whichever holds cmd/rapd)")
	fs.StringVar(&c.workload, "workload", "", "workload to run (default: every workload, with the traced run)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", 0, "seconds of measurement per workload (default BENCHMARK.json run_seconds)")
	fs.IntVar(&traceFlag, "trace", -1, "1: add the traced per-layer run and report per-layer metrics; 0: end-to-end only")
	fs.StringVar(&c.out, "out", "", "full result document (default .bench_build/out/result.json under the root)")
	fs.BoolVar(&compare, "compare", false, "compare two result documents: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot(c.root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	c.root = root
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result documents")
			return 2
		}
		if err := compareDocs(spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	c.trace = traceFlag == 1 || (traceFlag < 0 && c.workload == "")
	if c.out == "" {
		c.out = filepath.Join(root, ".bench_build", "out", "result.json")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	doc, err := execute(ctx, c, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return report(spec, c, doc, stdout, stderr)
}

// findRoot returns the repository root: the given directory, or else the
// current directory or its parent, whichever holds cmd/rapd.
func findRoot(dir string) (string, error) {
	cands := []string{".", ".."}
	if dir != "" {
		cands = []string{dir}
	}
	for _, d := range cands {
		if st, err := os.Stat(filepath.Join(d, "cmd", "rapd")); err == nil && st.IsDir() {
			return filepath.Abs(d)
		}
	}
	return "", errors.New("no cmd/rapd here: run from the repository root")
}

// execute builds rapd and measures the selected workloads.
func execute(ctx context.Context, c config, stderr io.Writer) (*document, error) {
	began := time.Now()
	ws := workloads
	if c.workload != "" {
		w, err := workloadByName(c.workload)
		if err != nil {
			return nil, err
		}
		ws = []workloadSpec{w}
	}
	build := filepath.Join(c.root, ".bench_build")
	tmp, err := os.MkdirTemp(mkdir(filepath.Join(build, "tmp")), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin, err := buildRapd(c.root, mkdir(filepath.Join(build, "bin")))
	if err != nil {
		return nil, err
	}
	// Builds are done; bound the measurement so a hung daemon cannot hold
	// the run past its budget.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(len(ws))*(time.Duration(c.seconds)*time.Second+120*time.Second))
	defer cancel()

	doc := &document{Host: host(c.root), Seed: c.seed, Seconds: c.seconds, Workloads: map[string]*workloadOut{}}
	var spans []span.Record
	for _, w := range ws {
		// Each workload's daemons and traced run checkpoint under a
		// directory of its own: a shared one would recover another
		// workload's state.
		wtmp := mkdir(filepath.Join(tmp, w.name))
		fmt.Fprintf(stderr, "bench: %s: generating inputs\n", w.name)
		in, err := makeInput(w, c.seed, c.seconds)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "bench: %s: measuring %d events per run\n", w.name, len(in.values))
		res, err := measureE2E(ctx, w, in, bin, wtmp, c.seed, c.seconds, c.trace)
		if err != nil {
			return nil, err
		}
		factor := speedFactor(res.speed)
		out := &workloadOut{Events: len(in.values), Runs: len(res.reps), SpeedFactor: factor, EndToEnd: endToEnd(res, factor)}
		out.Attempted, out.Failed = attempts(res)
		out.Violations = res.violations
		if c.trace {
			fmt.Fprintf(stderr, "bench: %s: traced per-layer run\n", w.name)
			lr, err := runLayers(ctx, w, in, wtmp)
			if err != nil {
				return nil, err
			}
			ledger(lr.metrics, endToEnd(res, 1), res)
			out.PerLayer = map[string]summary{}
			for k, v := range lr.metrics {
				out.PerLayer[k] = summary{Value: v, Min: v, Max: v}
			}
			out.Violations = append(out.Violations, lr.violations...)
			spans = append(spans, lr.spans...)
		}
		out.Correct = len(out.Violations) == 0
		doc.Workloads[w.name] = out
	}
	if c.trace {
		if err := writeSpans(filepath.Join(filepath.Dir(c.out), "spans.jsonl"), spans); err != nil {
			return nil, err
		}
	}
	doc.WallS = time.Since(began).Seconds()
	return doc, nil
}

// report fills in units from BENCHMARK.json, prints every metric, and
// prints the result line. It returns the exit code: 1 when any output was
// wrong.
func report(spec *benchSpec, c config, doc *document, stdout, stderr io.Writer) int {
	correct, attempted, failed := true, 0, 0
	metrics := map[string]any{}
	for _, sw := range spec.Workloads {
		if w := doc.Workloads[sw.Name]; w != nil {
			w.Why = sw.Why
		}
	}
	for _, name := range sortedKeys(doc.Workloads) {
		w := doc.Workloads[name]
		correct = correct && w.Correct
		attempted += w.Attempted
		failed += w.Failed
		for _, v := range w.Violations {
			fmt.Fprintf(stderr, "bench: %s: VIOLATION: %s\n", name, v)
		}
		sets := []struct {
			specs []metricSpec
			got   map[string]summary
		}{{spec.EndToEnd, w.EndToEnd}, {spec.PerLayer, w.PerLayer}}
		for i, set := range sets {
			if set.got == nil {
				continue
			}
			onLine := (i == 1) == c.trace // the result line carries one of the two sets
			for _, ms := range set.specs {
				s, ok := set.got[ms.Name]
				if !ok {
					fmt.Fprintf(stderr, "bench: %s: metric %s declared in BENCHMARK.json was not measured\n", name, ms.Name)
					return 2
				}
				s.Unit = ms.Unit
				set.got[ms.Name] = s
				fmt.Fprintf(stdout, "%-13s %-34s %14.6g %-12s [%.6g .. %.6g]\n", name, ms.Name, s.Value, ms.Unit, s.Min, s.Max)
				if onLine {
					metrics[ms.Name] = map[string]any{"value": s.Value, "unit": ms.Unit}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "wall time %.1f s; result in %s\n", doc.WallS, c.out)
	if err := writeJSON(c.out, doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var line []byte
	if c.workload != "" {
		line, _ = json.Marshal(map[string]any{
			"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
		})
	} else {
		line, _ = json.Marshal(doc)
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	mkdir(filepath.Dir(path))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, spans []span.Record) error {
	mkdir(filepath.Dir(path))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func host(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only ask git about a checkout that is itself a repository: a copy
	// without .git must not report the commit of some enclosing one.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return h
}
