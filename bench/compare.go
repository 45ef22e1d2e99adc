package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareDocs applies the BENCHMARK.json bounds to every (workload,
// end-to-end metric) pair of two result documents, a the base and b the
// candidate. A pair is unresolved when either side's run-to-run spread is
// wider than the bound; otherwise it is worse or better when the medians
// differ by more than the bound in that direction, and same when not.
func compareDocs(spec *benchSpec, pathA, pathB string, out io.Writer) error {
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-13s %-18s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, name := range sortedKeys(a.Workloads) {
		wb, ok := b.Workloads[name]
		if !ok {
			continue
		}
		wa := a.Workloads[name]
		for _, ms := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[ms.Name]
			sb, okB := wb.EndToEnd[ms.Name]
			if !okA || !okB {
				continue
			}
			change := (sb.Value - sa.Value) / sa.Value
			fmt.Fprintf(out, "%-13s %-18s %14.6g %14.6g %+8.1f%%  %s\n",
				name, ms.Name, sa.Value, sb.Value, 100*change, verdict(ms, sa, sb))
		}
	}
	return nil
}

func verdict(ms metricSpec, a, b summary) string {
	if a.spread() > ms.Bound || b.spread() > ms.Bound {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if ms.Better == "higher" {
		change = -change
	}
	switch {
	case change > ms.Bound:
		return "worse"
	case change < -ms.Bound:
		return "better"
	}
	return "same"
}

func readDoc(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
