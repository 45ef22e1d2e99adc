package admit

import (
	"sync/atomic"

	"rap/internal/core"
	"rap/internal/stats"
)

// newGateRNG derives gate i's coin RNG from the frontend seed. Feeding
// the shard index through one splitmix64 step decorrelates the per-gate
// streams, and the derivation is deterministic so experiments reproduce.
func newGateRNG(seed, i uint64) *stats.SplitMix64 {
	return stats.NewSplitMix64(stats.NewSplitMix64(seed ^ i).Uint64())
}

// Gate is the per-shard half of the admission frontend: the object
// installed on a tree via core.Tree.SetAdmitter (or per shard via
// shard.Engine.SetShardAdmitters). All Gate methods except the atomic
// counter reads are called with the owning shard's lock held, which is
// what makes the sketch and RNG safe without their own lock.
type Gate struct {
	f            *Frontend
	universeBits int
	shift        uint // universeBits - warmBits: prefix index shift
	rng          *stats.SplitMix64

	// warm is the admission sketch: one saturating counter per b-adic
	// prefix, indexed directly by the prefix bits (no hashing — the index
	// IS the b-adic prefix, so warmth has range semantics, not item
	// semantics). Only this gate touches it, under the shard lock.
	warm []uint8

	// ticks/decayTicks/epochSeen drive the gate's periodic duties; shard
	// lock protected, never read elsewhere.
	ticks      uint64
	decayTicks uint64
	epochSeen  uint64

	// Atomics: written under the shard lock, read lock-free by the
	// controller and the metrics plane.
	offered    atomic.Uint64
	admitted   atomic.Uint64
	unadmitted atomic.Uint64
	cold       atomic.Uint64 // offered weight that missed the warm/leaf bypass
	arenaBytes atomic.Int64
	churn      atomic.Uint64 // cumulative splits+merge batches from the last Pulse
	batches    atomic.Uint64 // cumulative merge passes from the last Pulse
}

// Admit implements core.Admitter: the admission decision for one event.
func (g *Gate) Admit(p uint64, weight uint64, plen int) bool {
	g.offered.Add(weight)
	g.tick()
	idx := p >> g.shift
	w := g.warm[idx]
	// An existing exact leaf cannot gain structure from this event, and a
	// warm prefix has proven it deserves refinement: both pass, and both
	// keep the prefix warm against decay.
	if plen >= g.universeBits || w >= warmThreshold {
		if w < 255 {
			g.warm[idx] = w + 1
		}
		g.admitted.Add(weight)
		return true
	}
	// Cold point: geometric coin at the current period. A winner warms its
	// prefix one step — a genuinely hot new region wins repeatedly and
	// crosses warmThreshold; flood prefixes, each hit rarely, never do.
	g.cold.Add(weight)
	period := g.f.period.Load()
	if period <= 1 || g.rng.Uint64()&(period-1) == 0 {
		if w < 255 {
			g.warm[idx] = w + 1
		}
		g.admitted.Add(weight)
		return true
	}
	g.unadmitted.Add(weight)
	return false
}

// tick runs the gate's periodic duties on its event clock: sketch decay,
// sketch halving when the frontend escalated (the level epoch moved), and
// triggering a watchdog evaluation. All sketch writes happen here or in
// Admit — gate-side, under the shard lock.
func (g *Gate) tick() {
	g.ticks++
	if g.ticks >= evalEvery {
		g.ticks = 0
		if ep := g.f.levelEpoch.Load(); ep != g.epochSeen {
			g.epochSeen = ep
			g.halveWarm()
		}
		g.f.tryEvaluate()
	}
	g.decayTicks++
	if g.decayTicks >= decayEvery {
		g.decayTicks = 0
		g.halveWarm()
	}
}

// halveWarm ages the sketch. Halving (not clearing) keeps genuinely hot
// prefixes warm across the boundary while flood-accumulated warmth decays
// geometrically.
func (g *Gate) halveWarm() {
	for i := range g.warm {
		g.warm[i] >>= 1
	}
}

// Pulse implements core.Admitter: the tree delivers fresh stats right
// after each split and merge batch. The gate publishes the watchdog's
// per-shard signals — arena footprint and cumulative structural churn —
// for the controller to sum. Churn counts splits plus merge PASSES, not
// folded nodes: a merge batch folds hundreds of nodes at one instant by
// design, and counting them individually would spike the rate signal on
// perfectly benign streams.
func (g *Gate) Pulse(st core.Stats) {
	g.arenaBytes.Store(int64(st.ArenaBytes))
	g.churn.Store(st.Splits + st.MergeBatches)
	g.batches.Store(st.MergeBatches)
}

// TreeReplaced implements core.Admitter: the gated tree was swapped
// (snapshot restore, shard adoption). The published signals describe a
// tree that no longer exists; zero them until the new tree pulses. The
// controller clamps its cumulative baselines, so the backward jump cannot
// wrap a delta.
func (g *Gate) TreeReplaced() {
	g.arenaBytes.Store(0)
	g.churn.Store(0)
	g.batches.Store(0)
}

var _ core.Admitter = (*Gate)(nil)
