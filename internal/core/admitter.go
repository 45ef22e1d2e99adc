package core

// Admission hook: the tree-side half of the randomized admission frontend
// (internal/admit). A flood of never-repeating keys is the tree's one real
// denial-of-service surface — every cold point lands in a leaf, pushes its
// counter toward the split threshold, and forces structure (and later merge
// churn) for mass that never becomes hot. An Admitter sits on the ingest
// path between the descent and the counter credit and may refuse a cold
// event before it can feed the split machinery. Refused weight is counted
// into the tree's unadmitted ledger instead of n, so the loss is visible
// and bounded: EstimateBounds charges the whole ledger to every upper
// bound, and the online audit (internal/audit) folds it into the
// certified error budget.

// Admitter gates events before they are credited to the tree. Implemented
// by internal/admit's per-shard Gate; defined here (like Tap) so the hot
// path needs no dependency on the admission package.
//
// The Admitter is invoked with the tree's (or owning shard's) lock held
// and must not call back into the tree.
type Admitter interface {
	// Admit decides whether the event at point p with the given weight may
	// be credited. plen is the prefix length of the smallest live node
	// covering p: plen == UniverseBits means the exact leaf already exists
	// and the event cannot create new structure, so implementations should
	// always admit it.
	Admit(p uint64, weight uint64, plen int) bool

	// Pulse delivers fresh tree statistics immediately after a structural
	// change (a split or a merge batch) — exactly the moments arena
	// footprint and merge churn move, which is what an overload watchdog
	// wants to see.
	Pulse(st Stats)

	// TreeReplaced signals that the tree the admitter was gating has been
	// replaced wholesale (snapshot restore, shard adoption): counters
	// derived from the previous tree no longer correspond to it.
	TreeReplaced()
}

// SetAdmitter installs (or with nil removes) the admission gate. Events
// whose covering node already sits at full depth pass through regardless
// of the gate's verdict only if the gate says so — the tree itself imposes
// no policy; it only routes refused weight into the unadmitted ledger.
func (t *Tree) SetAdmitter(a Admitter) { t.adm = a }

// UnadmittedN returns the total event weight refused by the admission gate
// since the tree was created (or restored). This mass was observed but
// never credited to any node: it is excluded from N and from every lower
// bound, and charged in full to every upper bound.
func (t *Tree) UnadmittedN() uint64 { return t.unadmitted }
