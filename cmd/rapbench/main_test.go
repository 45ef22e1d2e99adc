// rapbench and every experiment it runs start no goroutine, so the race
// detector has nothing to find here and only slows them tenfold; CI runs
// them without -race.

//go:build !race

package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rap/internal/experiments"
)

func testOpts() experiments.Options {
	return experiments.Options{Events: 20_000, Seed: 1}
}

// measured runs every experiment once at the test scale. The tests below
// render and encode these results instead of measuring again: what each
// experiment computes is internal/experiments' to test, and rapbench's is
// only how it dispatches, prints and wraps them.
var measured = sync.OnceValues(func() ([]jsonResult, error) {
	var out []jsonResult
	for _, name := range order {
		res, err := measureJSON(name, testOpts())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, res)
	}
	return out, nil
})

func measuredOrFatal(t *testing.T) []jsonResult {
	t.Helper()
	results, err := measured()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// checkEnvelope requires a machine-readable envelope to round-trip with
// its name, scale, timing and payload.
func checkEnvelope(t *testing.T, name string, data []byte) {
	t.Helper()
	var res jsonResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if res.Experiment != name || res.Events != testOpts().Events || res.Seed != testOpts().Seed {
		t.Fatalf("envelope %+v", res)
	}
	if res.ElapsedSec <= 0 || res.EventsPerSec <= 0 {
		t.Fatalf("timing not recorded: %+v", res)
	}
	if res.Result == nil {
		t.Fatal("result payload missing")
	}
}

// TestRunEachExperiment checks every experiment, adversarial included,
// renders a prose report header and encodes a JSON envelope.
func TestRunEachExperiment(t *testing.T) {
	for _, res := range measuredOrFatal(t) {
		t.Run(res.Experiment, func(t *testing.T) {
			var sb strings.Builder
			res.Result.(printable).Print(&sb)
			if !strings.Contains(sb.String(), "==") {
				t.Fatalf("%s produced no report header:\n%s", res.Experiment, sb.String())
			}
			sb.Reset()
			if err := writeJSON(&sb, res); err != nil {
				t.Fatal(err)
			}
			checkEnvelope(t, res.Experiment, []byte(sb.String()))
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "nope", testOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := runJSON(&sb, "nope", testOpts()); err == nil {
		t.Fatal("unknown experiment accepted by JSON mode")
	}
}

// TestRunJSONSingleExperiment drives the single-experiment JSON path end
// to end on fig2, a model computation that reads no stream.
func TestRunJSONSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := runJSON(&sb, "fig2", testOpts()); err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, "fig2", []byte(sb.String()))
}

func TestRunJSONAllEmitsCombinedDoc(t *testing.T) {
	var sb strings.Builder
	if err := writeDoc(&sb, measuredOrFatal(t)); err != nil {
		t.Fatal(err)
	}
	var doc jsonDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Tool != "rapbench" || doc.GoVersion == "" {
		t.Fatalf("doc header %+v", doc)
	}
	if len(doc.Experiments) != len(order) {
		t.Fatalf("experiments = %d, want %d", len(doc.Experiments), len(order))
	}
	for i, res := range doc.Experiments {
		if res.Experiment != order[i] {
			t.Fatalf("experiment %d = %q, want %q", i, res.Experiment, order[i])
		}
		if res.Result == nil {
			t.Fatalf("%s result payload missing", res.Experiment)
		}
	}
}
