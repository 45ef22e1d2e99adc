// Command rapbench regenerates every table and figure of the paper's
// evaluation. Each subcommand corresponds to one figure/table; `all` runs
// the full suite (the output EXPERIMENTS.md quotes).
//
// Usage:
//
//	rapbench [-n events] [-seed s] [-json] <experiment>|all
//
// -h lists the experiments: the names in order, the sequence all runs.
//
// With -json each experiment is emitted as one machine-readable envelope
// (experiment name, scale, wall time, events/sec, and the full result
// struct); `all` writes a single combined document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"rap/internal/experiments"
)

func main() {
	n := flag.Uint64("n", experiments.DefaultOptions().Events, "events per profiling run")
	seed := flag.Uint64("seed", experiments.DefaultOptions().Seed, "workload seed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of prose tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rapbench [-n events] [-seed s] [-json] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: %s all\n", strings.Join(order, " "))
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	o := experiments.Options{Events: *n, Seed: *seed}
	var err error
	if *jsonOut {
		err = runJSON(os.Stdout, flag.Arg(0), o)
	} else {
		err = run(os.Stdout, flag.Arg(0), o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapbench: %v\n", err)
		os.Exit(1)
	}
}

// printable is what every experiment result knows how to do.
type printable interface{ Print(w io.Writer) }

// multi renders several results in sequence (fig8 runs two profiles).
type multi []printable

func (m multi) Print(w io.Writer) {
	for _, p := range m {
		p.Print(w)
	}
}

// order is the canonical experiment sequence `all` runs.
var order = []string{
	"fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "hw", "headline", "narrow", "ablations", "mini", "extensions",
	"adversarial",
}

// measure executes one experiment and returns its result. It is the
// single dispatch point both output modes share.
func measure(name string, o experiments.Options) (printable, error) {
	wrap := func(r printable, err error) (printable, error) { return r, err }
	switch name {
	case "fig2":
		return experiments.Fig2(), nil
	case "fig3":
		return experiments.Fig3(), nil
	case "fig5":
		return wrap(experiments.Fig5(o))
	case "fig6":
		return wrap(experiments.Fig6(o))
	case "fig7":
		return wrap(experiments.Fig7(o))
	case "fig8":
		var m multi
		for _, kind := range []experiments.ProfileKind{experiments.CodeProfile, experiments.ValueProfile} {
			r, err := experiments.Fig8(kind, o)
			if err != nil {
				return nil, err
			}
			m = append(m, r)
		}
		return m, nil
	case "fig9":
		return wrap(experiments.Fig9(o))
	case "fig10":
		return wrap(experiments.Fig10(o))
	case "hw":
		return wrap(experiments.HW(o))
	case "headline":
		return wrap(experiments.Headline(o))
	case "narrow":
		return wrap(experiments.Narrow(o))
	case "ablations":
		return wrap(experiments.Ablations(o))
	case "extensions":
		return wrap(experiments.Extensions(o))
	case "mini":
		return wrap(experiments.Mini(o))
	case "adversarial":
		return wrap(experiments.Adversarial(o))
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

func run(w io.Writer, name string, o experiments.Options) error {
	if name == "all" {
		for _, sub := range order {
			if err := run(w, sub, o); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
		}
		return nil
	}
	r, err := measure(name, o)
	if err != nil {
		return err
	}
	r.Print(w)
	return nil
}

// jsonResult is one experiment's machine-readable envelope.
type jsonResult struct {
	Experiment   string  `json:"experiment"`
	Events       uint64  `json:"events"`
	Seed         uint64  `json:"seed"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"` // harness throughput: Events / ElapsedSec
	Result       any     `json:"result"`         // the experiment's full result struct
}

// jsonDoc is the combined document `all` emits.
type jsonDoc struct {
	Tool        string       `json:"tool"`
	GoVersion   string       `json:"go_version"`
	Experiments []jsonResult `json:"experiments"`
}

func measureJSON(name string, o experiments.Options) (jsonResult, error) {
	start := time.Now()
	r, err := measure(name, o)
	if err != nil {
		return jsonResult{}, err
	}
	elapsed := time.Since(start)
	res := jsonResult{
		Experiment: name,
		Events:     o.Events,
		Seed:       o.Seed,
		ElapsedSec: elapsed.Seconds(),
		Result:     r,
	}
	if s := elapsed.Seconds(); s > 0 {
		res.EventsPerSec = float64(o.Events) / s
	}
	return res, nil
}

func runJSON(w io.Writer, name string, o experiments.Options) error {
	if name == "all" {
		var results []jsonResult
		for _, sub := range order {
			res, err := measureJSON(sub, o)
			if err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
			results = append(results, res)
		}
		return writeDoc(w, results)
	}
	res, err := measureJSON(name, o)
	if err != nil {
		return err
	}
	return writeJSON(w, res)
}

// writeDoc writes the combined document `all` emits.
func writeDoc(w io.Writer, results []jsonResult) error {
	return writeJSON(w, jsonDoc{Tool: "rapbench", GoVersion: runtime.Version(), Experiments: results})
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
