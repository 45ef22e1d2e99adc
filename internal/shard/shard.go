// Package shard is the sharded RAP profiler engine: k independent core
// trees behind striped locks, fed by per-goroutine handles so the hot
// ingest path never crosses a shared lock, queried through merged
// snapshots so answers carry the whole-stream guarantee.
//
// The design rests on the merge algebra of core.Tree.Merge: each shard
// tree is a valid RAP summary of the slice of the stream it saw, with
// worst-case underestimate eps*n_i, and the structural union of the
// shards underestimates the combined stream by at most eps*sum(n_i) —
// the same bound a single tree over the whole stream would give. Sharding
// therefore buys linear ingest scalability without weakening the paper's
// accuracy contract.
//
// Intended use: call Handle once per feeding goroutine and ingest through
// it. A handle is pinned to one shard, so with at least as many shards as
// feeders every Add takes an uncontended per-shard lock. At one shard the
// engine is a single tree behind one lock — the concurrent engine the
// rap facade's WithConcurrent builds.
package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"rap/internal/core"
)

// ErrShardCount is returned by Restore when a snapshot was taken with a
// different shard count than the engine it is being restored into.
var ErrShardCount = errors.New("shard: snapshot shard count mismatch")

// Engine is a sharded RAP profiler. Construction parameters are fixed for
// the engine's lifetime; all methods are safe for concurrent use.
//
// Every query reads an Epoch, an immutable merged copy of all shards:
// Reader cuts one as of its call when events arrived since the current
// one, and Estimate, EstimateBounds, and HotRanges answer through Reader.
// With nothing pending a query takes no lock at all.
type Engine struct {
	cfg    core.Config
	shards []*treeShard
	next   atomic.Uint64 // round-robin cursor for Handle and Add; see pick

	// Epoch read path. pubMu serializes cuts; pubPend counts offered
	// events since the last cut began. cutsBegun and cutsDone count cuts at
	// their start and after their publish, so they differ while one is in
	// flight.
	pub       *core.EpochPublisher
	pubPend   atomic.Uint64
	pubMu     sync.Mutex
	cutsBegun atomic.Uint64
	cutsDone  atomic.Uint64
}

// treeShard is one stripe: a tree and the lock that guards it. Shards are
// separately heap-allocated so neighbouring locks do not share a cache
// line.
type treeShard struct {
	mu    sync.Mutex
	tree  *core.Tree
	hooks *core.Hooks   // reinstalled when Restore swaps the tree
	tap   core.Tap      // reinstalled like hooks; see SetShardTaps
	adm   core.Admitter // reinstalled like the tap; see SetShardAdmitters
}

// New builds an engine with k shards over cfg and publishes its initial,
// empty epoch. k <= 0 selects runtime.GOMAXPROCS(0), the number of feeders
// that can actually run in parallel.
func New(cfg core.Config, k int) (*Engine, error) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	norm, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: norm, shards: make([]*treeShard, k)}
	for i := range e.shards {
		t, err := core.New(norm)
		if err != nil {
			return nil, err
		}
		e.shards[i] = &treeShard{tree: t}
	}
	e.pub = core.NewEpochPublisher()
	e.publishInto()
	return e, nil
}

// Config returns the normalized configuration every shard tree runs.
func (e *Engine) Config() core.Config { return e.cfg }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Handle returns an ingest handle pinned to one shard, assigned
// round-robin. Give each feeding goroutine its own handle: with feeders
// <= shards every handle owns its stripe exclusively and the hot path
// never contends.
type Handle struct {
	sh  *treeShard
	eng *Engine
}

// Handle returns a new ingest handle (see Handle type).
func (e *Engine) Handle() *Handle {
	return &Handle{sh: e.pick(), eng: e}
}

// pick returns the shard for the next handle or handle-free call,
// round-robin. A one-shard engine skips the shared cursor, so every
// feeder does not bounce its cache line for a choice of one.
func (e *Engine) pick() *treeShard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	i := e.next.Add(1) - 1
	return e.shards[i%uint64(len(e.shards))]
}

// Reader returns a pinned consistent epoch spanning the whole engine
// (all shards merged) as of the call; see Engine.Reader.
func (h *Handle) Reader() *core.Epoch { return h.eng.Reader() }

// Add records one occurrence of p on the handle's shard.
func (h *Handle) Add(p uint64) { h.AddN(p, 1) }

// AddN records weight occurrences of p on the handle's shard.
func (h *Handle) AddN(p uint64, weight uint64) {
	h.sh.mu.Lock()
	h.sh.tree.AddN(p, weight)
	h.eng.credit(weight)
	h.sh.mu.Unlock()
}

// AddBatch records a run of points under one lock acquisition, with
// per-point Add semantics.
func (h *Handle) AddBatch(points []uint64) {
	h.sh.mu.Lock()
	h.sh.tree.AddBatch(points)
	h.eng.credit(uint64(len(points)))
	h.sh.mu.Unlock()
}

// AddSamples records a chunk of weighted events under one lock
// acquisition, with per-sample AddN semantics. It is the entry point
// queue drains use to hand a shard whole batches.
func (h *Handle) AddSamples(samples []core.Sample) {
	h.sh.mu.Lock()
	h.sh.tree.AddSamples(samples)
	h.eng.credit(uint64(len(samples)))
	h.sh.mu.Unlock()
}

// Add records one occurrence of p on a round-robin shard. Handle-free
// ingestion keeps the engine usable through the plain Writer interface,
// at the cost (with more than one shard) of bouncing the round-robin
// cursor between cores; hot loops should hold a Handle instead.
func (e *Engine) Add(p uint64) { e.AddN(p, 1) }

// AddN records weight occurrences of p on a round-robin shard.
func (e *Engine) AddN(p uint64, weight uint64) {
	sh := e.pick()
	sh.mu.Lock()
	sh.tree.AddN(p, weight)
	e.credit(weight)
	sh.mu.Unlock()
}

// AddBatch records a batch of points on one round-robin shard under a
// single lock acquisition.
func (e *Engine) AddBatch(points []uint64) {
	sh := e.pick()
	sh.mu.Lock()
	sh.tree.AddBatch(points)
	e.credit(uint64(len(points)))
	sh.mu.Unlock()
}

// AddSamples records a chunk of weighted events on one round-robin shard
// under a single lock acquisition.
func (e *Engine) AddSamples(samples []core.Sample) {
	sh := e.pick()
	sh.mu.Lock()
	sh.tree.AddSamples(samples)
	e.credit(uint64(len(samples)))
	sh.mu.Unlock()
}

// WithShard runs fn on shard i's tree with that shard's lock held. It is
// the embedding hook internal/ingest builds its batch appliers and
// consistent checkpoints on. fn must not call back into the engine.
func (e *Engine) WithShard(i int, fn func(t *core.Tree)) {
	sh := e.shards[i]
	sh.mu.Lock()
	before := sh.tree.N() + sh.tree.UnadmittedN()
	fn(sh.tree)
	// Mass a direct-shard mutator (the ingest apply path) offered is read
	// under the same lock as the mutation, so the next Reader cuts it.
	if after := sh.tree.N() + sh.tree.UnadmittedN(); after > before {
		e.credit(after - before)
	}
	sh.mu.Unlock()
}

// EnableReadSnapshots does nothing: every engine reads through epochs.
//
// Deprecated: the epoch read path is always on and has no publish cadence.
func (e *Engine) EnableReadSnapshots(every uint64) {}

// Publisher returns the engine's epoch publisher, for observability (epoch
// metrics) and tests.
func (e *Engine) Publisher() *core.EpochPublisher { return e.pub }

// Reader returns a pinned consistent epoch for multi-query consistency:
// every query on the returned Epoch describes one merged cut of the
// whole engine, taken no earlier than the call, so it holds every event
// whose Add returned before it. The caller must Release it. With nothing
// offered since the current epoch began, Reader pins it without taking a
// lock. Otherwise it cuts a fresh one under the publish mutex, unless a
// cut that began after the call has already done so, in which case
// readers waiting behind it share it. A cut copies each shard holding any
// mass under that shard's lock only — the first into the tree of a
// retired epoch when one is spare, so it allocates nothing once the slabs
// fit — and merges the later copies into the first.
func (e *Engine) Reader() *core.Epoch {
	// Order matters: a cut resets pubPend only after counting itself in
	// cutsBegun, and counts itself in cutsDone only after its publish. So
	// pubPend == 0 with no cut in flight means the current epoch holds
	// every credited event, and pubPend == 0 while a cut is in flight
	// means that cut began after the last credit and will hold it.
	pending := e.pubPend.Load() > 0
	arrived := e.cutsBegun.Load()
	if pending || arrived != e.cutsDone.Load() {
		e.pubMu.Lock()
		if e.cutsBegun.Load() == arrived && e.pubPend.Load() > 0 {
			e.publishInto()
		}
		e.pubMu.Unlock()
	}
	return e.pub.Acquire()
}

// credit counts w offered events as pending for the next cut. The caller
// holds the lock of the shard that took the events, so whoever observes
// them through that lock (a ledger read, a checkpoint) also finds them
// pending, and the next Reader cuts them.
func (e *Engine) credit(w uint64) { e.pubPend.Add(w) }

// PublishNow cuts and publishes a fresh epoch whether or not events are
// pending. Restore and AdoptShard use it so epoch readers never keep
// serving a replaced profile.
func (e *Engine) PublishNow() {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	e.publishInto()
}

// publishInto cuts and publishes one merged epoch (see union), copying the
// first populated shard into the publisher's spare tree. Callers hold
// pubMu (or, in New, own the engine), so epoch sequence numbers and cuts
// are monotone in publish order. pubPend is reset after the cut is counted
// as begun and before any shard is read; see Reader for why.
func (e *Engine) publishInto() {
	e.cutsBegun.Add(1)
	e.pubPend.Store(0)
	e.pub.Publish(e.union(false, e.pub.Spare()))
	e.cutsDone.Add(1)
}

// union builds the merged view of every shard: a clone of the first shard
// holding any mass, with each later such shard merged into it. Shards with
// no mass are skipped, not merged: Merge re-checks every node of the
// destination against the split threshold even when the source adds
// nothing. Every shard's counts land at the same ranges whichever shard
// seeds the view, so only zero-count nodes can differ from a union built
// up from an empty tree. With held false each shard is locked only while
// it is cloned (one slab copy, not a tree walk) and the merges run
// lock-free; with held true the caller holds every shard lock and later
// shards merge straight from the live trees. The first clone is copied
// into spare when it is non-nil (see core.Tree.CloneInto). The result is a
// passive snapshot (no hooks, tap or gate).
func (e *Engine) union(held bool, spare *core.Tree) *core.Tree {
	var m *core.Tree
	for _, sh := range e.shards {
		if !held {
			sh.mu.Lock()
		}
		src := sh.tree
		switch {
		case src.N() == 0 && src.UnadmittedN() == 0:
			src = nil
		case m == nil:
			src = src.CloneInto(spare)
		case !held:
			src = src.Clone()
		}
		if !held {
			sh.mu.Unlock()
		}
		switch {
		case src == nil:
		case m == nil:
			m = src
		default:
			if err := m.Merge(src); err != nil {
				// Shard trees share the engine config by construction; a
				// mismatch is a programming error, not a runtime condition.
				panic(err)
			}
		}
	}
	if m == nil {
		return core.MustNew(e.cfg)
	}
	return m
}

// MergedTree returns a merged snapshot of all shards as a plain tree, for
// dumps, analysis, and serialization. Shards are read one at a time, each
// under its own lock only — queries never stop the world. The snapshot is
// independent of the engine: mutating it does not touch live shards.
func (e *Engine) MergedTree() *core.Tree { return e.union(false, nil) }

// Estimate returns the lower-bound estimate for [lo, hi] over the merged
// view, read from an epoch as of the call (see Reader). The undershoot is
// at most eps*N() for tracked ranges.
func (e *Engine) Estimate(lo, hi uint64) uint64 {
	ep := e.Reader()
	defer ep.Release()
	return ep.Estimate(lo, hi)
}

// EstimateBounds returns the bracketing estimates for [lo, hi] over the
// merged view, read from an epoch as of the call (see Reader); the upper
// bound includes the unadmitted ledger at that cut.
func (e *Engine) EstimateBounds(lo, hi uint64) (low, high uint64) {
	ep := e.Reader()
	defer ep.Release()
	return ep.EstimateBounds(lo, hi)
}

// HotRanges reports the ranges holding at least theta of the combined
// stream, computed on an epoch as of the call (see Reader), so a range
// split across shards is still found.
func (e *Engine) HotRanges(theta float64) []core.HotRange {
	ep := e.Reader()
	defer ep.Release()
	return ep.HotRanges(theta)
}

// Merge folds a plain tree into one round-robin shard (see
// core.Tree.Merge); other is only read. A successful merge adds mass the
// shard's tap never observed, so the tap (if any) is notified via
// TreeReplaced.
func (e *Engine) Merge(other *core.Tree) error {
	sh := e.pick()
	sh.mu.Lock()
	err := sh.tree.Merge(other)
	if err == nil {
		if sh.tap != nil {
			sh.tap.TreeReplaced()
		}
		e.credit(other.N() + other.UnadmittedN())
	}
	sh.mu.Unlock()
	return err
}

// N returns the total event weight across all shards.
func (e *Engine) N() uint64 {
	var total uint64
	for _, sh := range e.shards {
		sh.mu.Lock()
		total += sh.tree.N()
		sh.mu.Unlock()
	}
	return total
}

// Stats aggregates the per-shard counters (core.Stats.Add): sums for
// event and operation counts, memory charged across all live shard nodes.
// The view is monitoring-grade — shards are sampled one at a time.
func (e *Engine) Stats() core.Stats {
	agg := core.Stats{Height: e.cfg.Height()}
	for _, sh := range e.shards {
		sh.mu.Lock()
		st := sh.tree.Stats()
		sh.mu.Unlock()
		agg.Add(st)
	}
	return agg
}

// ShardStats returns shard i's own counters.
func (e *Engine) ShardStats(i int) core.Stats {
	sh := e.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tree.Stats()
}

// Finalize compacts every shard with a merge batch and returns the
// aggregated statistics.
func (e *Engine) Finalize() core.Stats {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.tree.MergeNow()
		sh.mu.Unlock()
	}
	return e.Stats()
}

// SetHooks installs the same observability hooks on every shard tree.
// Hooks fire with a shard lock held and from many goroutines, so they
// must be concurrency-safe and must not call back into the engine. For
// per-shard labeled metrics use SetShardHooks.
func (e *Engine) SetHooks(h *core.Hooks) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.hooks = h
		sh.tree.SetHooks(h)
		sh.mu.Unlock()
	}
}

// SetShardHooks installs per-shard hooks built by make (called once per
// shard index). The hooks survive Restore the same way SetHooks does.
func (e *Engine) SetShardHooks(make func(shard int) *core.Hooks) {
	for i, sh := range e.shards {
		h := make(i)
		sh.mu.Lock()
		sh.hooks = h
		sh.tree.SetHooks(h)
		sh.mu.Unlock()
	}
}

// SetShardTaps installs per-shard event taps built by make (called once
// per shard index; a nil result leaves that shard untapped). Taps fire
// with the shard lock held on the ingesting goroutine, so they must not
// call back into the engine; they survive Restore and AdoptShard the same
// way hooks do, with TreeReplaced fired when the tree is swapped.
func (e *Engine) SetShardTaps(make func(shard int) core.Tap) {
	for i, sh := range e.shards {
		tap := make(i)
		sh.mu.Lock()
		sh.tap = tap
		sh.tree.SetTap(tap)
		sh.mu.Unlock()
	}
}

// SetShardAdmitters installs per-shard admission gates built by make
// (called once per shard index; a nil result leaves that shard ungated).
// Gates run with the shard lock held on the ingesting goroutine, so they
// must not call back into the engine; they survive Restore and AdoptShard
// the same way taps do, with TreeReplaced fired when the tree is swapped.
func (e *Engine) SetShardAdmitters(make func(shard int) core.Admitter) {
	for i, sh := range e.shards {
		adm := make(i)
		sh.mu.Lock()
		sh.adm = adm
		sh.tree.SetAdmitter(adm)
		sh.mu.Unlock()
	}
}

// UnadmittedN returns the total weight refused by the shards' admission
// gates (the sum of the per-shard unadmitted ledgers).
func (e *Engine) UnadmittedN() uint64 {
	var u uint64
	for _, sh := range e.shards {
		sh.mu.Lock()
		u += sh.tree.UnadmittedN()
		sh.mu.Unlock()
	}
	return u
}

// MergedTreeCut builds the union of all shard trees under a full cut: all
// shard locks are held (in index order) while the shards are merged and
// capture — when non-nil — runs on the merged result. Unlike MergedTree,
// whose per-shard locking lets concurrent ingest skew the view between
// shards, the cut is exactly consistent: state read by capture and the
// merged tree describe the same instant. The audit subsystem compares its
// shadow truth against estimates on this primitive, so a mid-flight event
// can never surface as a spurious accuracy violation.
func (e *Engine) MergedTreeCut(capture func(m *core.Tree)) *core.Tree {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.Unlock()
		}
	}()
	m := e.union(true, nil)
	if capture != nil {
		capture(m)
	}
	return m
}

// Snapshot format: "RAPS" | version | tree list (see WriteTreeList). The
// per-shard trees are preserved individually (not pre-merged) so a
// restore resumes with the same distribution of state across stripes.
const (
	snapMagic   = "RAPS"
	snapVersion = 1
)

// Snapshot serializes all shards. Shard locks are taken one at a time, so
// concurrent ingest skews the cut between shards: the snapshot is a valid
// profile of some interleaving, suitable for monitoring and hand-off. For
// an exact cut (checkpointing), quiesce ingest or use SnapshotShards.
func (e *Engine) Snapshot() ([]byte, error) {
	snaps := make([][]byte, len(e.shards))
	for i, sh := range e.shards {
		sh.mu.Lock()
		data, err := sh.tree.MarshalBinary()
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		snaps[i] = data
	}
	return encodeSnapshot(snaps), nil
}

// SnapshotShards marshals every shard under a full cut: all shard locks
// are held (in index order) while the trees are serialized and capture —
// when non-nil — runs, so positions recorded by capture are exactly
// consistent with the tree contents. This is the primitive the ingest
// checkpointer uses.
func (e *Engine) SnapshotShards(capture func()) ([][]byte, error) {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.Unlock()
		}
	}()
	snaps := make([][]byte, len(e.shards))
	for i, sh := range e.shards {
		data, err := sh.tree.MarshalBinary()
		if err != nil {
			return nil, err
		}
		snaps[i] = data
	}
	if capture != nil {
		capture()
	}
	return snaps, nil
}

func encodeSnapshot(snaps [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	buf.WriteByte(snapVersion)
	WriteTreeList(&buf, snaps)
	return buf.Bytes()
}

// WriteTreeList appends a list of shard tree snapshots (as MarshalBinary
// or SnapshotShards produce them) to buf: uvarint count, then per shard
// uvarint length and the snapshot bytes. It is the body of a Snapshot and
// the shard section of an ingest checkpoint.
func WriteTreeList(buf *bytes.Buffer, snaps [][]byte) {
	writeUvarint(buf, uint64(len(snaps)))
	for _, s := range snaps {
		writeUvarint(buf, uint64(len(s)))
		buf.Write(s)
	}
}

// ReadTreeList decodes a list WriteTreeList wrote from r, leaving r just
// past it.
func ReadTreeList(r *bytes.Reader) ([]*core.Tree, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("shard: truncated tree list: %w", err)
	}
	var trees []*core.Tree
	for i := uint64(0); i < count; i++ {
		blob, err := readBlob(r)
		if err != nil {
			return nil, fmt.Errorf("shard %d snapshot: %w", i, err)
		}
		var t core.Tree
		if err := t.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("shard %d snapshot: %w", i, err)
		}
		trees = append(trees, &t)
	}
	return trees, nil
}

// Restore replaces every shard's contents from a snapshot previously
// produced by Snapshot. The shard count must match (ErrShardCount
// otherwise); installed hooks are re-applied to the fresh trees. On any
// decode error the engine is left unchanged.
func (e *Engine) Restore(data []byte) error {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapMagic {
		return errors.New("shard: bad snapshot magic")
	}
	ver, err := r.ReadByte()
	if err != nil || ver != snapVersion {
		return fmt.Errorf("shard: unsupported snapshot version %d", ver)
	}
	trees, err := ReadTreeList(r)
	if err != nil {
		return err
	}
	if len(trees) != len(e.shards) {
		return fmt.Errorf("%w: snapshot has %d, engine has %d",
			ErrShardCount, len(trees), len(e.shards))
	}
	if r.Len() != 0 {
		return fmt.Errorf("shard: %d trailing bytes after snapshot", r.Len())
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		sh.swap(trees[i])
		sh.mu.Unlock()
	}
	e.PublishNow()
	return nil
}

// AdoptShard replaces shard i's tree wholesale (the ingest recovery path,
// which decodes trees from its own checkpoint format). Installed hooks
// and taps are re-applied to the adopted tree.
func (e *Engine) AdoptShard(i int, t *core.Tree) {
	sh := e.shards[i]
	sh.mu.Lock()
	sh.swap(t)
	sh.mu.Unlock()
	e.PublishNow()
}

// swap installs t as the shard's tree with the shard's hooks, tap and
// gate, and tells the tap and gate their tree was replaced. The caller
// holds sh.mu.
func (sh *treeShard) swap(t *core.Tree) {
	t.SetHooks(sh.hooks)
	t.SetTap(sh.tap)
	t.SetAdmitter(sh.adm)
	sh.tree = t
	if sh.tap != nil {
		sh.tap.TreeReplaced()
	}
	if sh.adm != nil {
		sh.adm.TreeReplaced()
	}
}

func writeUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	buf.Write(tmp[:n])
}

func readBlob(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("blob length %d exceeds remaining %d bytes", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
