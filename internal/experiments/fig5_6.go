package experiments

import (
	"fmt"
	"io"
	"strings"

	"rap/internal/analysis"
	"rap/internal/core"
	"rap/internal/workload"
)

// Fig5Result is the gzip hot load-value range tree of Figure 5 (ε = 1%,
// hot threshold 10%).
type Fig5Result struct {
	Events    uint64
	HotRanges []core.HotRange
	Rendered  string
}

// Fig5 profiles gzip's load values and extracts the hot-range tree.
func Fig5(o Options) (Fig5Result, error) {
	bench, err := workload.ByName("gzip")
	if err != nil {
		return Fig5Result{}, err
	}
	t, err := runTree(bench.Values(o.Seed, o.Events), valueConfig(0.01), o.Events)
	if err != nil {
		return Fig5Result{}, err
	}
	t.Finalize()
	var sb strings.Builder
	if err := analysis.RenderHotTree(&sb, t, HotTheta); err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{
		Events:    t.N(),
		HotRanges: t.HotRanges(HotTheta),
		Rendered:  sb.String(),
	}, nil
}

// Print renders the Figure 5 tree.
func (r Fig5Result) Print(w io.Writer) {
	header(w, "Figure 5: hot load-value ranges in gzip (eps=1%, hot=10%)")
	fmt.Fprintf(w, "events=%d, hot ranges=%d\n", r.Events, len(r.HotRanges))
	fmt.Fprintf(w, "(paper: 7 hot ranges; [0,e] 13.6%%, [0,fe] 16.7%%, [0,3ffe] 11.3%%,\n")
	fmt.Fprintf(w, " [0,3fffe] 22.8%%, [11ffffffd,12000fffb] 10.0%%, [12000fffc,12001fffa] 12.2%%)\n\n")
	io.WriteString(w, r.Rendered)
}

// Fig6Result is the Figure 6 memory-over-time trace for gcc's code
// profile at ε = 10%.
type Fig6Result struct {
	Timeline analysis.Timeline
}

// Fig6 runs the gcc basic-block stream and samples the tree size.
func Fig6(o Options) (Fig6Result, error) {
	bench, err := workload.ByName("gcc")
	if err != nil {
		return Fig6Result{}, err
	}
	tl, err := analysis.MemoryTimeline(bench.Code(o.Seed, o.Events), codeConfig(0.10), o.Events, 100)
	if err != nil {
		return Fig6Result{}, err
	}
	return Fig6Result{Timeline: tl}, nil
}

// Print renders the Figure 6 series, marking merge batches the way the
// paper's dashed lines do.
func (r Fig6Result) Print(w io.Writer) {
	header(w, "Figure 6: RAP tree size over time, gcc code profile (eps=10%)")
	fmt.Fprintf(w, "max=%d nodes, avg=%.0f nodes (paper peak: <500 nodes)\n\n",
		r.Timeline.MaxNodes, r.Timeline.AvgNodes)
	fmt.Fprintf(w, "%-14s %-8s %s\n", "events", "nodes", "")
	lastBatches := uint64(0)
	for _, p := range r.Timeline.Points {
		mark := ""
		if p.MergeBatches != lastBatches {
			mark = "<- batch merge"
			lastBatches = p.MergeBatches
		}
		fmt.Fprintf(w, "%-14d %-8d %s\n", p.N, p.Nodes, mark)
	}
}
