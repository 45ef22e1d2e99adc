// Package rap is the public face of the RAP profiler: an implementation
// of "Profiling over Adaptive Ranges" (Mysore et al., CGO 2006), which
// maintains a small adaptive tree of bit-prefix ranges over a large value
// universe and answers range-count queries with a guaranteed error bound.
//
// The paper's symbols map onto configuration options as follows:
//
//	ε (epsilon)  WithEpsilon      relative error bound: any tracked range's
//	                              estimate undercounts by at most ε·n
//	b            WithBranching    branching factor of a split (power of two)
//	q            WithMergeRatio   geometric growth of the merge interval
//	H            (derived)        tree height, Config.Height(): log_b of the
//	                              universe size set by WithUniverse
//
// The simplest use is the functional-option constructor:
//
//	p, err := rap.New(rap.WithUniverse(1<<32), rap.WithEpsilon(0.01))
//	...
//	p.Add(addr)
//	low, high := p.EstimateBounds(lo, hi)
//	hot := p.HotRanges(0.10)
//
// New returns a Profiler backed by one of three engines, selected by
// options: a plain single-goroutine Tree, a SampledTree that applies
// 1-in-k sampling ahead of the tree (WithSampling), or a Sharded engine
// that fans events across per-shard trees and answers queries from their
// merged union (WithSharding). WithConcurrent is the Sharded engine at
// one shard: one tree behind one lock, safe for any number of
// goroutines. All engines satisfy Profiler; all estimates are lower
// bounds with the paper's ε·n guarantee.
//
// The ingest and query halves of that surface are the Writer and Reader
// interfaces; Profiler is their (deprecated but fully supported) union.
// The sharded engine (at any shard count) answers every Reader query from
// an immutable epoch snapshot cut as of the call, which takes no lock when
// no event arrived since the last cut; ReaderOf pins one Epoch for
// multi-query consistency.
//
// Advanced callers can keep constructing engines directly from a Config
// literal — the types here are aliases of the internal ones, so the two
// styles interoperate.
package rap

import (
	"fmt"

	"rap/internal/admit"
	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/shard"
)

// Config parameterizes a profiler; see the field docs for the paper
// correspondence. Zero value is invalid — start from DefaultConfig or use
// New with options.
type Config = core.Config

// Stats is a point-in-time summary of an engine's tree(s).
type Stats = core.Stats

// HotRange is one range whose estimated share of the stream is at least
// the queried threshold θ.
type HotRange = core.HotRange

// NodeInfo describes one tracked range during a Tree.Walk.
type NodeInfo = core.NodeInfo

// Sample is one weighted event of a batch, the unit of the AddSamples
// bulk-ingest entry points.
type Sample = core.Sample

// Tree is the core single-goroutine profiler.
type Tree = core.Tree

// SampledTree applies deterministic 1-in-k sampling ahead of a Tree and
// scales estimates back up.
type SampledTree = core.SampledTree

// Sharded fans events across k per-shard trees (lock striping, pinned
// Handles) and answers queries from their merged union. At k=1 it is the
// concurrent engine WithConcurrent selects.
type Sharded = shard.Engine

// Handle is a cheap per-goroutine ingest endpoint of a Sharded engine.
type Handle = shard.Handle

// Hooks and the structural events it observes, for instrumentation.
type (
	Hooks           = core.Hooks
	SplitEvent      = core.SplitEvent
	MergeEvent      = core.MergeEvent
	MergeBatchEvent = core.MergeBatchEvent
)

// The online accuracy self-audit: an Auditor taps the event stream,
// keeps exact counts for a sampled set of ranges, and periodically checks
// the engine's Estimate/EstimateBounds answers against that ground truth.
// Build one with NewAuditor, wire it at construction with WithAudit, then
// drive passes with Auditor.Audit and read Auditor.Report.
type (
	Auditor          = audit.Auditor
	AuditOptions     = audit.Options
	AuditReport      = audit.Report
	AuditRangeReport = audit.RangeReport
)

// NewAuditor builds an accuracy auditor from options (the zero value
// selects all defaults). Pass it to New via WithAudit; an auditor wires to
// exactly one engine.
func NewAuditor(opts AuditOptions) *Auditor { return audit.New(opts) }

// The randomized admission frontend: a per-shard coin-flip gate ahead of
// the tree that makes structure-inflation attacks (floods of
// never-repeating keys) pay an admission toll, plus an overload watchdog
// that escalates the toll under memory or churn pressure. Refused mass is
// counted, folded into every EstimateBounds upper bound, and certified by
// the audit. Build one with NewAdmission, wire it at construction with
// WithAdmission, then read Admission.Stats.
type (
	Admission        = admit.Frontend
	AdmissionOptions = admit.Options
	AdmissionStats   = admit.Stats
	AdmissionLevel   = admit.Level
)

// NewAdmission builds an admission frontend from options (the zero value
// selects all defaults). Pass it to New via WithAdmission; a frontend
// wires to exactly one engine.
func NewAdmission(opts AdmissionOptions) *Admission { return admit.New(opts) }

// attachAdmission installs the frontend's per-shard gates on a freshly
// built engine: one gate per shard on the sharded engine, a single gate
// on a plain tree. The sampling engine is rejected earlier, in New — its
// scaled estimates cannot absorb an unadmitted ledger.
func attachAdmission(f *Admission, p Profiler, cfg Config) error {
	shards := 1
	if e, ok := p.(*Sharded); ok {
		shards = e.Shards()
	}
	gates := f.Gates(cfg.UniverseBits, shards)
	if gates == nil {
		return fmt.Errorf("rap: WithAdmission: frontend already wired to an engine")
	}
	switch e := p.(type) {
	case *Sharded:
		e.SetShardAdmitters(func(i int) core.Admitter { return gates[i] })
	case *Tree:
		e.SetAdmitter(gates[0])
	default:
		return fmt.Errorf("rap: WithAdmission: engine %T cannot take an admission frontend", p)
	}
	return nil
}

// attachAudit taps a freshly built engine for the auditor: one tap per
// shard on the sharded engine, a single tap on a plain tree. Only engines
// whose estimates should equal the tapped stream can be audited — the
// sampling engine is rejected earlier, in New.
func attachAudit(a *Auditor, p Profiler, cfg Config) error {
	switch e := p.(type) {
	case *Sharded:
		taps, err := a.Attach(cfg, e, e.Shards())
		if err != nil {
			return err
		}
		e.SetShardTaps(func(i int) core.Tap { return taps[i] })
	case *Tree:
		taps, err := a.Attach(cfg, e, 1)
		if err != nil {
			return err
		}
		e.SetTap(taps[0])
	default:
		return fmt.Errorf("rap: WithAudit: engine %T cannot be audited", p)
	}
	return nil
}

// Errors surfaced by the facade's constructors and Merge/Restore paths.
var (
	// ErrConfigMismatch is returned by Tree.Merge when the two trees were
	// built with different configurations.
	ErrConfigMismatch = core.ErrConfigMismatch
	// ErrSelfMerge is returned by Tree.Merge when src and dst are the
	// same tree.
	ErrSelfMerge = core.ErrSelfMerge
	// ErrShardCount is returned by Sharded.Restore when a snapshot's
	// shard count does not match the engine's.
	ErrShardCount = shard.ErrShardCount
)

// DefaultConfig returns the paper's default operating point (64-bit
// universe, b=4, ε=1%, q=2).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTree builds the single-goroutine engine from an explicit Config.
func NewTree(cfg Config) (*Tree, error) { return core.New(cfg) }

// MustNewTree is NewTree, panicking on an invalid Config.
func MustNewTree(cfg Config) *Tree { return core.MustNew(cfg) }

// NewSampled builds a 1-in-k sampling engine from an explicit Config.
func NewSampled(cfg Config, k uint64) (*SampledTree, error) { return core.NewSampled(cfg, k) }

// NewSharded builds a k-shard engine from an explicit Config; k <= 0
// selects GOMAXPROCS shards, and k = 1 is the concurrent engine.
func NewSharded(cfg Config, k int) (*Sharded, error) { return shard.New(cfg, k) }

// Writer is the ingest surface every engine satisfies: feeding events
// in, serializing state out. Engines that support structural folding
// (Tree, Sharded) additionally expose Merge with engine-specific
// signatures; it is not part of Writer because the sampling engine's
// scaled units have no coherent merge.
type Writer interface {
	// Add records one event at point p.
	Add(p uint64)
	// AddN records weight events at point p.
	AddN(p uint64, weight uint64)
	// AddBatch records a chunk of points in order, with per-point Add
	// semantics; engines run it through their batched fast path.
	AddBatch(points []uint64)
	// N returns the total event weight recorded.
	N() uint64
	// Snapshot serializes the engine's state for checkpointing or
	// hand-off; the matching engine-specific Restore/Unmarshal reads it.
	Snapshot() ([]byte, error)
	// Finalize runs a last merge pass and returns the final Stats.
	Finalize() Stats
}

// Reader is the query surface every engine satisfies. Estimates are
// lower bounds: for any tracked range the true count is in
// [Estimate, Estimate+ε·n]. An Epoch — the pinned consistent snapshot
// returned by ReaderOf, Handle.Reader, and Sharded.Reader — is also a
// Reader, so query code can be written once
// against this interface and served either live or from a published
// epoch.
type Reader interface {
	// Estimate returns the lower-bound count for [lo, hi].
	Estimate(lo, hi uint64) uint64
	// EstimateBounds returns the certain range [low, high] bracketing the
	// true count of [lo, hi].
	EstimateBounds(lo, hi uint64) (low, high uint64)
	// HotRanges returns the maximal tracked ranges holding at least
	// theta·N() of the stream, most loaded first.
	HotRanges(theta float64) []HotRange
	// Stats summarizes tree size and maintenance counters.
	Stats() Stats
}

// Profiler is the combined ingest+query surface every engine satisfies.
//
// Deprecated: Profiler remains fully supported — every method keeps its
// exact signature and every engine keeps satisfying it — but new code
// should hold the narrower Writer and Reader facets: ingest loops a
// Writer, dashboards a Reader (or a pinned Epoch via ReaderOf for
// multi-query consistency). The split is what makes the epoch read path
// natural: readers no longer imply access to the write side.
type Profiler interface {
	Writer
	Reader
}

// Epoch is one immutable published snapshot of a profile: a consistent
// cut served without locks. Obtain one from ReaderOf, Handle.Reader, or
// Sharded.Reader; query it like any Reader; Release it when done. The
// epoch and its Tree are valid until Release: a released epoch's storage
// is reused by later cuts.
type Epoch = core.Epoch

// EpochPublisher owns the epoch lifecycle of one engine (publish,
// pin/release, retirement accounting). Exposed for observability —
// ingest wires its rap_epoch_* metrics to it.
type EpochPublisher = core.EpochPublisher

// ReaderOf returns a pinned consistent epoch for engines with a
// consistent-cut read path. On *Sharded it is a cut as of the call,
// holding every event whose Add returned before it: the current epoch,
// cut afresh when events arrived since it (readers waiting on one cut
// share it). On *Tree it is a detached clone. The caller must Release the
// epoch. ok is false for engines without consistent cuts (the sampling
// engine).
func ReaderOf(p Reader) (e *Epoch, ok bool) {
	switch eng := p.(type) {
	case *Sharded:
		return eng.Reader(), true
	case *Tree:
		return core.NewDetachedEpoch(eng.Clone()), true
	}
	return nil, false
}

// Compile-time checks that every engine satisfies Profiler (and thus
// Writer and Reader), and that a pinned Epoch serves the full Reader
// surface. Repeated in rap_test.go where they gate the test build.
var (
	_ Profiler = (*Tree)(nil)
	_ Profiler = (*SampledTree)(nil)
	_ Profiler = (*Sharded)(nil)
	_ Reader   = (*Epoch)(nil)
)
