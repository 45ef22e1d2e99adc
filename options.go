package rap

import (
	"errors"
	"fmt"
	"math/bits"
)

// Option is one functional configuration knob for New/NewConfig.
type Option func(*builder)

// builder accumulates options before validation.
type builder struct {
	cfg        Config
	shards     int
	concurrent bool
	sampleK    uint64
	audit      *Auditor
	admission  *Admission
	errs       []error
}

// WithUniverse sets the value universe to [0, size), rounded up to the
// next power of two; size 0 selects the full 64-bit universe. This is the
// domain the paper's H = log_b(universe) height derives from.
func WithUniverse(size uint64) Option {
	return func(b *builder) {
		if size == 0 {
			b.cfg.UniverseBits = 64
			return
		}
		b.cfg.UniverseBits = bits.Len64(size - 1)
		if b.cfg.UniverseBits == 0 {
			b.cfg.UniverseBits = 1 // size 1: smallest valid universe
		}
	}
}

// WithUniverseBits sets the universe to [0, 2^w) directly.
func WithUniverseBits(w int) Option {
	return func(b *builder) { b.cfg.UniverseBits = w }
}

// WithEpsilon sets the paper's ε: estimates undercount any tracked range
// by at most ε·n. Must be in (0, 1).
func WithEpsilon(eps float64) Option {
	return func(b *builder) { b.cfg.Epsilon = eps }
}

// WithBranching sets the paper's b, the fan-out of a split. Must be a
// power of two in [2, 256].
func WithBranching(branch int) Option {
	return func(b *builder) { b.cfg.Branch = branch }
}

// WithMergeRatio sets the paper's q, the geometric growth factor of the
// interval between batched merge passes. Must be > 1.
func WithMergeRatio(q float64) Option {
	return func(b *builder) { b.cfg.MergeRatio = q }
}

// WithFirstMerge sets how many events arrive before the first merge
// batch.
func WithFirstMerge(n uint64) Option {
	return func(b *builder) { b.cfg.FirstMerge = n }
}

// WithMergeEvery replaces the geometric merge schedule with a fixed
// period (the paper's "continuous merging" regime).
func WithMergeEvery(n uint64) Option {
	return func(b *builder) { b.cfg.MergeEvery = n }
}

// WithSharding selects the sharded engine with k shards (k <= 0 selects
// GOMAXPROCS). Shards ingest in parallel without a shared lock; queries
// merge the shard trees and keep the ε·n bound over the combined stream.
func WithSharding(k int) Option {
	return func(b *builder) {
		if k <= 0 {
			b.errs = append(b.errs, fmt.Errorf("rap: WithSharding(%d): shard count must be >= 1", k))
			return
		}
		b.shards = k
	}
}

// WithConcurrent selects the concurrent engine: the sharded engine at one
// shard, a single tree behind one lock, safe for use from any number of
// goroutines. For parallel ingest, pick more shards with WithSharding.
func WithConcurrent() Option {
	return func(b *builder) { b.concurrent = true }
}

// WithSampling applies deterministic 1-in-k sampling ahead of the tree;
// estimates are scaled back up. k must be >= 1 (1 disables sampling).
func WithSampling(k uint64) Option {
	return func(b *builder) {
		if k == 0 {
			b.errs = append(b.errs, errors.New("rap: WithSampling(0): sample period must be >= 1"))
			return
		}
		b.sampleK = k
	}
}

// WithReadSnapshots does nothing. The concurrent and sharded engines
// always answer queries from an epoch cut as of the call.
//
// Deprecated: the epoch read path is always on and has no publish cadence.
func WithReadSnapshots(every uint64) Option {
	return func(*builder) {}
}

// WithAudit wires the online accuracy self-audit into the engine New
// builds: the auditor taps every event, shadows a sampled set of ranges
// with exact counts, and checks the engine's answers against them on each
// Auditor.Audit pass. Incompatible with WithSampling — the audit compares
// exact tapped truth against estimates, and a sampling engine's scaled
// estimates are not bound to the tapped stream.
func WithAudit(a *Auditor) Option {
	return func(b *builder) {
		if a == nil {
			b.errs = append(b.errs, errors.New("rap: WithAudit(nil): auditor must be non-nil"))
			return
		}
		b.audit = a
	}
}

// WithAdmission wires the randomized admission frontend into the engine
// New builds: every cold point must win a coin flip to enter the tree,
// refused mass is ledgered into upper bounds, and the frontend's watchdog
// escalates the admission toll under memory or churn pressure.
// Incompatible with WithSampling — the sampling engine scales estimates
// up, which would scale the unadmitted ledger's meaning away.
func WithAdmission(f *Admission) Option {
	return func(b *builder) {
		if f == nil {
			b.errs = append(b.errs, errors.New("rap: WithAdmission(nil): frontend must be non-nil"))
			return
		}
		b.admission = f
	}
}

// apply folds the options over the default config.
func apply(opts []Option) (*builder, error) {
	b := &builder{cfg: DefaultConfig()}
	for _, o := range opts {
		o(b)
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	return b, nil
}

// NewConfig builds and validates the Config the given options describe,
// for callers constructing engines directly.
func NewConfig(opts ...Option) (Config, error) {
	b, err := apply(opts)
	if err != nil {
		return Config{}, err
	}
	return b.cfg.Validate()
}

// New builds a Profiler from functional options. Engine selection:
// WithSharding picks the sharded engine, WithConcurrent the sharded engine
// at one shard, WithSampling(k>1) the sampling tree, otherwise the plain
// single-goroutine Tree. Combinations that would stack engines
// (sharding+concurrent, sharding+sampling, concurrent+sampling) are
// rejected rather than silently picking one.
func New(opts ...Option) (Profiler, error) {
	b, err := apply(opts)
	if err != nil {
		return nil, err
	}
	cfg, err := b.cfg.Validate()
	if err != nil {
		return nil, err
	}
	sampling := b.sampleK > 1
	modes := 0
	for _, on := range []bool{b.shards > 0, b.concurrent, sampling} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return nil, fmt.Errorf("rap: options select %d engines (sharding=%v concurrent=%v sampling=%v); pick one",
			modes, b.shards > 0, b.concurrent, sampling)
	}
	if b.audit != nil && sampling {
		return nil, errors.New("rap: WithAudit cannot combine with WithSampling: scaled estimates are not bound to the tapped stream")
	}
	if b.admission != nil && sampling {
		return nil, errors.New("rap: WithAdmission cannot combine with WithSampling: scaled estimates cannot absorb the unadmitted ledger")
	}
	var p Profiler
	switch {
	case b.shards > 0:
		p, err = NewSharded(cfg, b.shards)
	case b.concurrent:
		p, err = NewSharded(cfg, 1)
	case sampling:
		p, err = NewSampled(cfg, b.sampleK)
	default:
		p, err = NewTree(cfg)
	}
	if err != nil {
		return nil, err
	}
	if b.admission != nil {
		if err := attachAdmission(b.admission, p, cfg); err != nil {
			return nil, err
		}
	}
	if b.audit != nil {
		if err := attachAudit(b.audit, p, cfg); err != nil {
			return nil, err
		}
	}
	return p, nil
}
