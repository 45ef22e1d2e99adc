package core

// Batched ingest entry points. Queue drains (internal/ingest) and the
// sharded engine hand the tree chunks through these instead of one event
// at a time; each is a loop over AddN, so chunking never changes the
// tree. Locality between consecutive events is served by the descent
// start table (start.go), which every update path shares.

// Sample is one weighted event of a batch: the shape queue drains hand the
// tree (a trace.Event without the package dependency).
type Sample struct {
	Value  uint64
	Weight uint64
}

// AddBatch records every point in order. It is equivalent — estimate for
// estimate and snapshot byte for byte — to calling Add on each point
// sequentially.
func (t *Tree) AddBatch(points []uint64) {
	for _, p := range points {
		t.AddN(p, 1)
	}
}

// AddSamples records a chunk of weighted events in order, equivalent to
// calling AddN(s.Value, s.Weight) for each sample sequentially.
func (t *Tree) AddSamples(samples []Sample) {
	for _, s := range samples {
		t.AddN(s.Value, s.Weight)
	}
}
