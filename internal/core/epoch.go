package core

import (
	"sync/atomic"
	"time"
)

// Epoch is one immutable published snapshot of a profile: a read-only
// clone of the tree cut at a known point in the stream, served without
// any locks. Epochs are produced by an EpochPublisher (see the sharded
// engine's Reader, which cuts one as of its call); queries on an Epoch
// touch only the frozen clone, so they never contend with ingest.
//
// Epochs obtained from EpochPublisher.Acquire are pinned and must be
// released with Release exactly once; the epoch, its Tree included, is
// valid until then. The pin guards the tree's storage, not only the
// accounting: once a superseded epoch has no pins its tree may be
// donated to the publisher and overwritten by a later cut.
type Epoch struct {
	tree        *Tree
	seq         uint64
	cutN        uint64
	publishedAt int64 // unix nanoseconds
	pins        atomic.Int64
	superseded  atomic.Bool
	retiredMark atomic.Bool
	pub         *EpochPublisher // nil for detached epochs
}

// NewDetachedEpoch wraps a standalone tree (typically a clone) as an epoch
// outside any publisher: sequence 0, Release is a no-op. The facade's
// ReaderOf serves a plain tree through it, so callers get one
// consistent-cut API on every engine.
func NewDetachedEpoch(t *Tree) *Epoch {
	return &Epoch{tree: t, cutN: t.N(), publishedAt: time.Now().UnixNano()}
}

// Seq is the epoch's publish sequence number, strictly increasing per
// publisher starting at 1 (0 means detached). Operators use it to
// correlate query answers, audits, and metrics scrapes.
func (e *Epoch) Seq() uint64 { return e.seq }

// CutN is the admitted event weight the profile had when this epoch was
// cut — the "stream position" an answer from this epoch describes.
func (e *Epoch) CutN() uint64 { return e.cutN }

// PublishedAt is the wall-clock instant the epoch was published.
func (e *Epoch) PublishedAt() time.Time { return time.Unix(0, e.publishedAt) }

// N returns the admitted event weight at the cut (same as CutN).
func (e *Epoch) N() uint64 { return e.cutN }

// Estimate answers from the frozen snapshot; see Tree.Estimate.
func (e *Epoch) Estimate(lo, hi uint64) uint64 { return e.tree.Estimate(lo, hi) }

// EstimateBounds answers from the frozen snapshot; see
// Tree.EstimateBounds. The upper bound includes the unadmitted ledger as
// of the cut, so the certified bracket describes the offered stream at
// the epoch's position.
func (e *Epoch) EstimateBounds(lo, hi uint64) (low, high uint64) {
	return e.tree.EstimateBounds(lo, hi)
}

// HotRanges answers from the frozen snapshot; see Tree.HotRanges.
func (e *Epoch) HotRanges(theta float64) []HotRange { return e.tree.HotRanges(theta) }

// Stats returns the frozen snapshot's counters.
func (e *Epoch) Stats() Stats { return e.tree.Stats() }

// Tree exposes the underlying frozen tree for read-only analysis
// (rendering, coverage curves). Callers must not mutate it, and must not
// use it past Release.
func (e *Epoch) Tree() *Tree { return e.tree }

// Release unpins an epoch obtained from Acquire. The last reader of a
// superseded epoch retires it. Release on a detached epoch is a no-op.
func (e *Epoch) Release() {
	if e == nil || e.pub == nil {
		return
	}
	e.pub.pinned.Add(-1)
	if e.pins.Add(-1) == 0 {
		e.maybeRetire()
	}
}

// maybeRetire marks the epoch retired once it is superseded and has no
// pinned readers, and donates its tree to the publisher as the spare the
// next cut copies into. The CAS makes retirement count, and donate,
// exactly once even when the publisher and the last reader race here.
func (e *Epoch) maybeRetire() {
	if e.superseded.Load() && e.pins.Load() == 0 &&
		e.retiredMark.CompareAndSwap(false, true) {
		if e.pub != nil {
			e.pub.retired.Add(1)
			e.pub.spare.Store(e.tree)
		}
	}
}

// EpochPublisher owns the single-writer/many-reader epoch lifecycle: the
// writer publishes immutable clones with an atomic pointer swap; readers
// pin the current one (Acquire/Release). Superseded epochs are retired
// once their reader count drains, and the tree of a retired epoch becomes
// the spare the next cut is copied into.
//
// Publish must be externally serialized (the sharded engine calls it
// under its publish mutex); everything else is safe from any goroutine.
type EpochPublisher struct {
	cur     atomic.Pointer[Epoch]
	spare   atomic.Pointer[Tree] // a retired epoch's tree, for the next cut
	seq     atomic.Uint64
	retired atomic.Uint64
	pinned  atomic.Int64
	lastPub atomic.Int64 // unix nanoseconds of the last publish
}

// NewEpochPublisher returns an empty publisher; Acquire returns nil
// until the first Publish.
func NewEpochPublisher() *EpochPublisher { return new(EpochPublisher) }

// Spare takes the tree a retired epoch donated, for the next cut to copy
// into with Tree.CloneInto, or returns nil when there is none. The caller
// owns the tree: no epoch references it any more.
func (p *EpochPublisher) Spare() *Tree { return p.spare.Swap(nil) }

// Publish freezes t as the new current epoch and supersedes the old one.
// t must be a private clone the caller will never touch again — the
// publisher takes ownership and serves queries from it lock-free.
func (p *EpochPublisher) Publish(t *Tree) *Epoch {
	e := &Epoch{
		tree:        t,
		seq:         p.seq.Add(1),
		cutN:        t.N(),
		publishedAt: time.Now().UnixNano(),
		pub:         p,
	}
	old := p.cur.Swap(e)
	p.lastPub.Store(e.publishedAt)
	if old != nil {
		old.superseded.Store(true)
		old.maybeRetire()
	}
	return e
}

// Acquire pins and returns the current epoch, or nil before the first
// publish. The caller must Release it exactly once. The pin-recheck loop
// guarantees the returned epoch was current at some instant after the
// pin landed, so its retirement, and the donation of its tree, is
// deferred until Release.
func (p *EpochPublisher) Acquire() *Epoch {
	for {
		e := p.cur.Load()
		if e == nil {
			return nil
		}
		e.pins.Add(1)
		p.pinned.Add(1)
		if p.cur.Load() == e {
			return e
		}
		// Superseded between load and pin: undo and retry on the newer one.
		p.pinned.Add(-1)
		if e.pins.Add(-1) == 0 {
			e.maybeRetire()
		}
	}
}

// Seq is the sequence number of the most recently published epoch.
func (p *EpochPublisher) Seq() uint64 { return p.seq.Load() }

// Published is the total number of epochs published. Epochs are numbered
// from 1 in publish order, so it is Seq.
func (p *EpochPublisher) Published() uint64 { return p.seq.Load() }

// Retired is the total number of superseded epochs whose reader count
// drained.
func (p *EpochPublisher) Retired() uint64 { return p.retired.Load() }

// Pinned is the number of currently pinned readers across all epochs.
func (p *EpochPublisher) Pinned() int64 { return p.pinned.Load() }

// LastPublishedAt is the wall-clock instant of the most recent publish
// (zero before the first).
func (p *EpochPublisher) LastPublishedAt() time.Time {
	ns := p.lastPub.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
