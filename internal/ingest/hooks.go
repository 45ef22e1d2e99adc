package ingest

import (
	"strconv"
	"time"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
)

// Standard tree metric names. One place to keep exposition, docs, and
// tests agreeing.
const (
	MetricTreeSplits        = "rap_tree_splits_total"
	MetricTreeMerges        = "rap_tree_merges_total"
	MetricTreeMergeBatches  = "rap_tree_merge_batches_total"
	MetricTreeMergeBatchDur = "rap_tree_merge_batch_seconds"
	MetricTreeEstimateDur   = "rap_tree_estimate_seconds"
)

// treeHooks builds a core.Hooks that counts splits, merges, and merge
// batches, times merge batches and estimate queries, and records split
// and merge decisions as tree.split / tree.merge events on tr (nil: no
// events). Events follow the tracer's head rate, so a dropped one costs
// an atomic increment under the shard lock. One hooks value per tree.
func treeHooks(reg *obs.Registry, tr *span.Tracer, shard string) *core.Hooks {
	labels := []obs.Label{obs.L("shard", shard)}
	splits := reg.Counter(MetricTreeSplits, "Split operations performed.", labels...)
	merges := reg.Counter(MetricTreeMerges, "Nodes folded into their parents.", labels...)
	batches := reg.Counter(MetricTreeMergeBatches, "Batched merge passes run.", labels...)
	batchDur := reg.Histogram(MetricTreeMergeBatchDur,
		"Wall time of one batched merge pass.", obs.DurationBuckets(), labels...)
	estDur := reg.Histogram(MetricTreeEstimateDur,
		"Latency of Estimate/EstimateBounds queries.", obs.DurationBuckets(), labels...)

	return &core.Hooks{
		Split: func(e core.SplitEvent) {
			splits.Inc()
			tr.Event("tree.split", func() []span.Attr {
				return decisionAttrs(shard, e.Lo, e.Hi, e.Depth, e.Count, e.Threshold, e.N)
			})
		},
		Merge: func(e core.MergeEvent) {
			merges.Inc()
			tr.Event("tree.merge", func() []span.Attr {
				return decisionAttrs(shard, e.Lo, e.Hi, e.Depth, e.Count, e.Threshold, e.N)
			})
		},
		MergeBatch: func(e core.MergeBatchEvent) {
			batches.Inc()
			batchDur.ObserveDuration(e.Duration)
		},
		EstimateDone: func(d time.Duration) {
			estDur.ObserveDuration(d)
		},
	}
}

// decisionAttrs renders the state a split or merge was decided on: the
// node's range and depth, its counter, the threshold it was compared
// against, and the tree's stream position.
func decisionAttrs(shard string, lo, hi uint64, depth int, count uint64, threshold float64, n uint64) []span.Attr {
	return []span.Attr{
		{Key: "shard", Value: shard},
		{Key: "lo", Value: strconv.FormatUint(lo, 10)},
		{Key: "hi", Value: strconv.FormatUint(hi, 10)},
		{Key: "depth", Value: strconv.Itoa(depth)},
		{Key: "count", Value: strconv.FormatUint(count, 10)},
		{Key: "threshold", Value: strconv.FormatFloat(threshold, 'g', -1, 64)},
		{Key: "n", Value: strconv.FormatUint(n, 10)},
	}
}
