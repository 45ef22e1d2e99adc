// Package audit is the online accuracy self-audit of the profiler: a
// shadow subsystem that taps the live event stream, keeps exact counts
// (internal/exact) for a bounded set of deterministically sampled ranges,
// and periodically compares the tree's Estimate/EstimateBounds answers
// against that ground truth — turning the paper's ε·n guarantee from a
// theorem into a continuously checked runtime invariant.
//
// # What is checked
//
// For every audited range R the tree promises, under a consistent cut:
//
//   - low ≤ true(R) ≤ high, where (low, high) = EstimateBounds(R): the
//     estimate is a lower bound and the high side brackets the truth;
//   - true(R) − low ≤ ε·n for tracked (b-adic, prefix-aligned) ranges —
//     and every audited range is chosen b-adic so the contract applies.
//
// The audit cannot know true(R) exactly for events that flowed before it
// started watching, so it works with a one-sided decomposition:
//
//	truth(R) ≤ true(R) ≤ truth(R) + slack(R)
//
// where truth(R) is the exact count of tapped events inside R and
// slack(R) is the stream mass that had already passed when R was adopted
// (events the tap could not have attributed). Both inequalities make the
// checks sound, never optimistic:
//
//   - truth(R) > high is always a genuine violation (high must bracket
//     any subset of the true mass — the upper check);
//   - low > truth(R) + slack(R) is always a genuine violation (the
//     estimator claims more mass than can possibly exist — the
//     inflated-estimator check);
//   - max(0, truth(R) − low) is a lower bound on the true underestimate,
//     so exceeding the certified budget is a genuine contract violation
//     (the bound check).
//
// The certified budget is the bound the engine actually promises at
// runtime, not the paper's idealized ε·n: the cold-start guard floors the
// split threshold at MinSplitCount per level, a coalesced update of
// weight w can overshoot a node's threshold by w before the split, and a
// sharded engine answers from the union of k trees whose budgets sum.
// That gives ε·n + k·H·(MinSplitCount + wmax), which collapses toward
// ε·n exactly where the paper's asymptotic claim lives (weight-1 streams,
// n large against the guard). The underestimate/ε·n ratio is still
// exported verbatim so dashboards watch the paper's contract directly.
//
// A correct tree can therefore never trip the violation counter, no
// matter when ranges are adopted or how the stream is interleaved; the
// e2e suites assert exactly that, and a fault-injected estimator is
// caught by the same checks.
//
// # Sampling
//
// Range adoption is hash-gated (splitmix-style finalizer, no math/rand on
// the hot path): an unaudited event value p becomes the seed of a new
// audited range when hash(p) lands in 1-in-SamplePeriod, until MaxRanges
// ranges exist. Ranges are b-adic blocks of at least SpanBits span, so
// each exact profiler is bounded by 2^spanBits distinct values and the
// whole audit by MaxRanges·2^spanBits — bounded memory over adversarial
// streams by construction.
//
// # Consistency
//
// Comparing truth captured at one instant against estimates computed at
// another would fabricate violations out of in-flight events. Audit
// therefore reads truth and estimates under one cut: engines exposing
// MergedTreeCut (the sharded engine, at any shard count) run the truth
// capture while all tree locks are held; plain trees are assumed
// externally serialized, per their own contract.
package audit

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"rap/internal/core"
	"rap/internal/exact"
	"rap/internal/obs"
	"rap/internal/span"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxRanges    = 32
	DefaultSpanBits     = 12
	DefaultSamplePeriod = 8192
)

// DefaultNearRatio is the underestimate/(ε·n) ratio at or above which a
// range is reported as near-bound (and traced) without violating.
const DefaultNearRatio = 0.9

// Options configures an Auditor. The zero value selects all defaults.
type Options struct {
	// MaxRanges bounds how many sampled ranges are audited at once.
	MaxRanges int
	// SpanBits is the minimum width, in bits, of an audited range. The
	// actual width is rounded up so ranges are b-adic (potential tree
	// nodes), keeping them inside the paper's tracked-range contract.
	// Memory per range is bounded by 2^(actual span bits) distinct values.
	SpanBits int
	// SamplePeriod is the adoption gate: one in SamplePeriod of the hash
	// space seeds a new audited range. Rounded up to a power of two.
	SamplePeriod uint64
	// Seed perturbs the adoption hash so restarted deployments audit
	// different ranges.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxRanges <= 0 {
		o.MaxRanges = DefaultMaxRanges
	}
	if o.SpanBits <= 0 {
		o.SpanBits = DefaultSpanBits
	}
	if o.SamplePeriod == 0 {
		o.SamplePeriod = DefaultSamplePeriod
	}
	if o.SamplePeriod&(o.SamplePeriod-1) != 0 {
		o.SamplePeriod = 1 << bits.Len64(o.SamplePeriod)
	}
	return o
}

// Estimator is the query surface the audit checks: any engine answering
// range queries over a stream of known length. Engines additionally
// exposing MergedTreeCut (the sharded engine) are audited under a
// consistent cut; a bare Estimator is assumed externally serialized
// against ingest during Audit.
type Estimator interface {
	N() uint64
	EstimateBounds(lo, hi uint64) (low, high uint64)
}

// unadmittedEstimator is optionally implemented by engines carrying an
// admission gate's refused-weight ledger (core.Tree, shard.Engine). The taps observe the offered stream — including weight
// the gate refuses — so the audit's mass accounting must add the ledger
// to the tree's credited mass wherever the two are compared.
type unadmittedEstimator interface {
	UnadmittedN() uint64
}

// unadmittedOf reads the estimator's refused-weight ledger, zero when the
// engine has no admission gate.
func unadmittedOf(est Estimator) uint64 {
	if u, ok := est.(unadmittedEstimator); ok {
		return u.UnadmittedN()
	}
	return 0
}

// Errors returned by Attach and Audit.
var (
	ErrAttached     = errors.New("audit: auditor already attached")
	ErrNotAttached  = errors.New("audit: auditor not attached")
	ErrNilEstimator = errors.New("audit: nil estimator")
)

// auditRange is one audited b-adic range. lo/hi are immutable after
// publication; slack is finalized under adoptMu right after publication
// and only read under adoptMu (Audit), so taps never touch it.
type auditRange struct {
	lo, hi uint64
	// slack is the stream mass that had already passed when this range
	// was adopted: events the tap could not have attributed to it. The
	// true count in [lo, hi] is at most truth + slack.
	slack uint64
}

// rangeSet is the copy-on-write published set of audited ranges, sorted
// by lo. Taps read it lock-free; adoption replaces it under adoptMu.
type rangeSet struct {
	ranges []auditRange
}

// find returns the index of the range containing p, or -1.
func (rs *rangeSet) find(p uint64) int {
	lo, hi := 0, len(rs.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs.ranges[mid].hi < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rs.ranges) && rs.ranges[lo].lo <= p {
		return lo
	}
	return -1
}

// tapState is one shard's slice of the audit: a core.Tap installed on
// that shard's tree. n counts all tapped mass (atomically: adoption on
// one shard reads every shard's n without that shard's lock); the exact
// profiler holds only events inside audited ranges and is touched solely
// under the owning shard's lock (writes) or a full cut (reads).
type tapState struct {
	a     *Auditor
	shard int
	n     atomic.Uint64
	truth *exact.Profiler
	// maxW is the largest single tapped weight this epoch: a coalesced
	// update credits its whole weight one level up from where per-event
	// updates would land it, so the certified underestimate budget grows
	// with it. Written under the shard lock, read under the cut.
	maxW uint64
}

// Auditor owns the audit state for one engine: per-shard taps, the
// published range set, and the check counters. Create with New, wire with
// Attach (or rap.WithAudit), drive with Audit, read with Report.
type Auditor struct {
	opts Options
	cfg  core.Config
	est  Estimator
	taps []*tapState

	mask     uint64 // universe mask from cfg
	span     uint64 // audited range width minus one (hi = lo | span)
	hashSeed uint64

	// baseN is the stream mass the estimator held when the audit
	// attached (or last rebased): mass no tap ever saw.
	baseN uint64

	ranges  atomic.Pointer[rangeSet]
	adoptMu sync.Mutex // serializes adoption and slack reads (cold path)
	full    atomic.Bool

	// resetPending is raised by TreeReplaced (snapshot restore, shard
	// adoption): tapped truth may no longer match the tree. The actual
	// rebase is deferred to the next Audit pass, under the cut.
	resetPending atomic.Bool

	auditMu sync.Mutex // serializes Audit passes
	last    atomic.Pointer[Report]

	// running totals, written under auditMu
	passes     uint64
	checks     uint64
	violations uint64
	rebases    uint64

	// exposition wiring, set by Register before any audit traffic
	mChecks     *obs.Counter
	mViolations *obs.Counter
	mRebases    *obs.Counter
	mPasses     *obs.Counter
	mRatio      *obs.Histogram
	tracer      *span.Tracer
}

// New builds an Auditor with the given options. The auditor is inert
// until Attach wires it to an engine.
func New(opts Options) *Auditor {
	a := &Auditor{opts: opts.withDefaults()}
	a.ranges.Store(&rangeSet{})
	return a
}

// Options returns the normalized options the auditor runs.
func (a *Auditor) Options() Options { return a.opts }

// Attach wires the auditor to an estimator: cfg must be the engine's
// tree configuration, shards the number of independent taps to mint (1
// for unsharded engines). It returns one core.Tap per shard, to be
// installed via Tree.SetTap or Engine.SetShardTaps.
// Stream mass already in the estimator becomes baseN: pre-attach mass is
// slack, never truth, so attaching to a warm engine is sound. An auditor
// attaches exactly once.
func (a *Auditor) Attach(cfg core.Config, est Estimator, shards int) ([]core.Tap, error) {
	if est == nil {
		return nil, ErrNilEstimator
	}
	if shards < 1 {
		return nil, fmt.Errorf("audit: shards %d < 1", shards)
	}
	a.adoptMu.Lock()
	defer a.adoptMu.Unlock()
	if a.est != nil {
		return nil, ErrAttached
	}
	norm, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	a.cfg = norm
	a.est = est
	a.mask = suffixMask(norm.UniverseBits)
	a.span = a.spanFor(norm)
	a.hashSeed = a.opts.Seed ^ 0x9e3779b97f4a7c15
	// Pre-attach mass the taps never saw includes weight an admission gate
	// had already refused: it is part of the offered stream the invariant
	// baseN + tapN == n + unadmitted reconciles against.
	a.baseN = est.N() + unadmittedOf(est)
	a.taps = make([]*tapState, shards)
	taps := make([]core.Tap, shards)
	for i := range a.taps {
		a.taps[i] = &tapState{a: a, shard: i, truth: exact.New()}
		taps[i] = a.taps[i]
	}
	return taps, nil
}

// spanFor returns the audited range width minus one: the widest b-adic
// block whose span is at least SpanBits, i.e. prefix length floored to a
// multiple of the split stride. b-adic alignment keeps audited ranges
// inside the set of potential tree nodes, where the ε·n bound is promised
// (tracked ranges, paper Section 2.2).
func (a *Auditor) spanFor(cfg core.Config) uint64 {
	shift := bits.TrailingZeros(uint(cfg.Branch))
	plen := 0
	if cfg.UniverseBits > a.opts.SpanBits {
		plen = (cfg.UniverseBits - a.opts.SpanBits) / shift * shift
	}
	return suffixMask(cfg.UniverseBits - plen)
}

func suffixMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

// hash64 is the splitmix64 finalizer: a full-avalanche bijection, so the
// 1-in-SamplePeriod adoption gate is unbiased for any input structure.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Tap observes one event on this tap's shard (see core.Tap). Hot path:
// one atomic add, one pointer load, one binary search over ≤ MaxRanges
// entries; the exact profiler and the adoption gate are only touched for
// events inside (or seeding) audited ranges.
func (s *tapState) Tap(p uint64, weight uint64) {
	s.n.Add(weight)
	if weight > s.maxW {
		s.maxW = weight
	}
	a := s.a
	rs := a.ranges.Load()
	if i := rs.find(p); i >= 0 {
		s.truth.AddN(p, weight)
		return
	}
	if a.full.Load() {
		return
	}
	if hash64(p^a.hashSeed)&(a.opts.SamplePeriod-1) == 0 {
		a.adopt(p)
	}
}

// TreeReplaced implements core.Tap: raise the rebase flag; the next Audit
// pass rebases under its cut (see Audit).
func (s *tapState) TreeReplaced() { s.a.resetPending.Store(true) }

// adopt publishes a new audited range containing p. The triggering event
// itself is not recorded as truth: it is covered by the range's slack,
// which is computed *after* publication — any event that loaded the old
// range set (and so bypassed the new range's profiler) is included in the
// mass the slack charges, bounding the adoption race soundly.
func (a *Auditor) adopt(p uint64) {
	lo := p &^ a.span & a.mask
	hi := (lo | a.span) & a.mask
	a.adoptMu.Lock()
	defer a.adoptMu.Unlock()
	old := a.ranges.Load()
	if len(old.ranges) >= a.opts.MaxRanges {
		a.full.Store(true)
		return
	}
	if old.find(p) >= 0 {
		return // raced: another shard adopted this block already
	}
	ranges := make([]auditRange, 0, len(old.ranges)+1)
	at := -1
	for _, r := range old.ranges {
		if at < 0 && lo < r.lo {
			at = len(ranges)
			ranges = append(ranges, auditRange{lo: lo, hi: hi})
		}
		ranges = append(ranges, r)
	}
	if at < 0 {
		at = len(ranges)
		ranges = append(ranges, auditRange{lo: lo, hi: hi})
	}
	nr := &rangeSet{ranges: ranges}
	a.ranges.Store(nr)
	// Mass that can have missed this range's profiler: everything before
	// the store, plus in-flight events that loaded the old set. Summing
	// the tap counters *after* the store covers both — an event absent
	// from this sum must have loaded the new set and recorded itself.
	// Taps never read slack (Audit does, under this same mutex), so the
	// post-publication write does not race.
	slack := a.baseN
	for _, t := range a.taps {
		slack += t.n.Load()
	}
	nr.ranges[at].slack = slack
	if len(nr.ranges) >= a.opts.MaxRanges {
		a.full.Store(true)
	}
}
