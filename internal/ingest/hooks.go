package ingest

import (
	"strconv"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
)

// Standard tree metric names. One place to keep exposition, docs, and
// tests agreeing. The three totals are read from the shard trees' Stats,
// which snapshots carry, so they survive checkpoint recovery.
const (
	MetricTreeSplits        = "rap_tree_splits_total"
	MetricTreeMerges        = "rap_tree_merges_total"
	MetricTreeMergeBatches  = "rap_tree_merge_batches_total"
	MetricTreeMergeBatchDur = "rap_tree_merge_batch_seconds"
)

// treeHooks builds a core.Hooks that times merge batches and records
// split and merge decisions as tree.split / tree.merge events on tr (nil:
// no events). Events follow the tracer's head rate, so a dropped one
// costs an atomic increment under the shard lock. One hooks value per
// tree.
func treeHooks(reg *obs.Registry, tr *span.Tracer, shard string) *core.Hooks {
	batchDur := reg.Histogram(MetricTreeMergeBatchDur,
		"Wall time of one batched merge pass.", obs.DurationBuckets(), obs.L("shard", shard))
	return &core.Hooks{
		Split: func(e core.SplitEvent) {
			tr.Event("tree.split", func() []span.Attr {
				return decisionAttrs(shard, e.Lo, e.Hi, e.Depth, e.Count, e.Threshold, e.N)
			})
		},
		Merge: func(e core.MergeEvent) {
			tr.Event("tree.merge", func() []span.Attr {
				return decisionAttrs(shard, e.Lo, e.Hi, e.Depth, e.Count, e.Threshold, e.N)
			})
		},
		MergeBatch: func(e core.MergeBatchEvent) {
			batchDur.ObserveDuration(e.Duration)
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
