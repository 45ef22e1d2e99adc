package core

import "time"

// Observability hooks. A Tree carries an optional *Hooks; every hook site
// is guarded by a nil check on a cold path (split, merge batch), so a
// tree without hooks pays nothing on Add/AddN and a single pointer test
// per split or merge. Hook implementations must be fast and must not call
// back into the tree.

// SplitEvent describes one split decision at the moment it was taken.
type SplitEvent struct {
	Lo, Hi      uint64  // range of the node that split
	Depth       int     // split steps below the root
	Count       uint64  // node counter that crossed the threshold
	Threshold   float64 // split threshold ε·n/H (or the cold-start guard)
	N           uint64  // stream position at the decision
	NewChildren int     // children actually created (holes refilled count)
}

// MergeEvent describes one child folded into its parent during a batch
// merge pass.
type MergeEvent struct {
	Lo, Hi    uint64  // range of the folded child
	Depth     int     // split steps below the root
	Count     uint64  // counter moved up into the parent
	Threshold float64 // merge threshold compared against
	N         uint64  // stream position at the decision
}

// MergeBatchEvent summarizes one whole batch merge pass.
type MergeBatchEvent struct {
	N        uint64        // stream position the batch ran at
	Merged   int           // nodes folded away by this batch
	Nodes    int           // live nodes after the batch
	Duration time.Duration // wall time of the pass
}

// Hooks receives structural notifications from a Tree. Any field may be
// nil; the tree skips that notification. The zero Hooks is valid and
// equivalent to no hooks at all.
type Hooks struct {
	Split      func(SplitEvent)
	Merge      func(MergeEvent)
	MergeBatch func(MergeBatchEvent)
}

// SetHooks installs (or with nil removes) the tree's observability hooks.
func (t *Tree) SetHooks(h *Hooks) { t.hooks = h }

// depthOf converts a prefix length to the node's depth in split steps.
// Every split adds shift bits except a final uneven step, so the ceiling
// division is exact for nodes this tree constructs.
func (t *Tree) depthOf(plen uint8) int {
	if t.shift == 0 {
		return 0
	}
	return (int(plen) + t.shift - 1) / t.shift
}
