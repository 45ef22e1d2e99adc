package core

// Tap is the event-stream tap of the accuracy self-audit (internal/audit):
// unlike Hooks, which fire only on structural events, a Tap observes every
// event applied to the tree. A tree without a tap pays a single nil check
// per update; the cost of an installed tap is the tap's own — keep
// implementations to a few atomic/indexed operations.
//
// Taps run in the tree's update context: under the shard lock for the
// sharded engine, on the caller's goroutine for a plain Tree. They must
// not call back into the tree.
type Tap interface {
	// Tap observes one event: p is already masked into the universe,
	// weight is the event weight (>= 1).
	Tap(p uint64, weight uint64)
	// TreeReplaced notifies that the tree's contents were swapped
	// wholesale (snapshot Restore, shard adoption): events tapped so far
	// may no longer be represented in the tree, so any state derived from
	// the tapped stream must be rebased before it is compared against the
	// tree again. Implementations must be safe to call concurrently with
	// Tap on other trees sharing the same receiver.
	TreeReplaced()
}

// SetTap installs (or with nil removes) the tree's event tap.
func (t *Tree) SetTap(tap Tap) { t.tap = tap }
