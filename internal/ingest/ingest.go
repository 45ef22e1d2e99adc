// Package ingest is the resilient streaming front end of the profiler: it
// turns the one-shot "drain a source into a tree" model of the CLIs into a
// long-running subsystem that survives slow consumers, flaky sources, and
// process crashes.
//
// N supervised source readers feed S sharded core trees through bounded
// channels. Each source is pinned to one shard, so a source's events are
// applied in stream order and its checkpointed position is always a prefix
// of the stream — the property that makes crash recovery exactly-once.
// Queries aggregate across shards: each shard tree is a lower bound on the
// events it saw with error at most ε·n_i, so the summed estimate is a
// lower bound on the whole stream with error at most ε·Σn_i = ε·n. The
// paper's guarantee survives sharding unchanged.
//
// Overload is explicit: with the Block policy the queues exert lossless
// backpressure on readers; with DropNewest the readers shed load and count
// every dropped event, so the effective error bound ε·n + dropped stays
// honest instead of silently degrading.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rap/internal/admit"
	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/shard"
	"rap/internal/span"
	"rap/internal/trace"
)

// DropPolicy selects what a source reader does when its shard queue is
// full.
type DropPolicy int

const (
	// Block applies lossless backpressure: the reader waits for queue
	// space, slowing the source down to the profiler's pace.
	Block DropPolicy = iota
	// DropNewest sheds load: events that arrive while the queue is full
	// are dropped and counted, trading accuracy (accounted for) against
	// latency under overload.
	DropNewest
)

// ErrStalled is the error a source is retried with when a read exceeds
// ReadTimeout.
var ErrStalled = errors.New("ingest: source read stalled")

// Options configures an Ingestor. The zero value of every field selects a
// sensible default (see withDefaults); the zero Options therefore runs a
// single-shard, blocking, checkpoint-free ingestor over DefaultConfig
// trees.
type Options struct {
	// Tree is the configuration every shard tree is built with. The zero
	// Config selects core.DefaultConfig.
	Tree core.Config

	// Shards is the number of tree shards (default 4). Checkpoints record
	// the shard count; recovery requires it unchanged.
	Shards int

	// QueueLen is the per-shard bounded channel capacity in batches
	// (default 64).
	QueueLen int

	// BatchLen is the most events one source read returns (default 256).
	// Each read fills one of the source's BatchLen-event buffers, crosses
	// from the reader goroutine as one handoff and is queued as one entry;
	// once the entry is applied its buffer goes back to the source's free
	// list for a later read. A read returns what the source has at hand,
	// so a slow or live source hands off short entries at once instead of
	// waiting to fill one.
	BatchLen int

	// Drop selects the overload policy (default Block).
	Drop DropPolicy

	// ReadTimeout, when > 0, bounds how long one source read of up to
	// BatchLen events may take before the source is declared stalled and
	// reopened. The clock runs only while the source is read: time a read
	// spends waiting for queue space under Block does not count. A
	// one-shot source (ReaderSource), which could not be reopened, has no
	// stall timer.
	ReadTimeout time.Duration

	// MaxRetries is how many consecutive failed attempts (open errors,
	// stalls, or read errors with no progress in between) a source gets
	// before it is marked permanently failed (default 5).
	MaxRetries int

	// BackoffBase/BackoffMax shape the exponential retry backoff
	// (defaults 50ms and 5s). Each attempt waits roughly
	// base·2^(attempt-1), capped at max, with ±25% jitter so a fleet of
	// failing sources does not retry in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// CheckpointDir, when set, enables crash-safe checkpointing into that
	// directory. Empty disables checkpointing entirely.
	CheckpointDir string

	// CheckpointEvery is the wall-clock checkpoint cadence (default 10s).
	// It bounds the replay window: after a crash at most this much of the
	// stream is re-read from the sources.
	CheckpointEvery time.Duration

	// SkipFinalCheckpoint suppresses the checkpoint normally flushed when
	// Run winds down. Tests use it to simulate a hard crash.
	SkipFinalCheckpoint bool

	// Logger receives structured operational logs (retries, quarantined
	// checkpoints, failed sources) with per-source fields (source,
	// attempt, backoff, err) — the same labels the metrics registry uses,
	// so logs and metrics can be joined. Default slog.Default().
	Logger *slog.Logger

	// Metrics, when set, registers pipeline metrics on this registry:
	// per-shard tree counters and gauges (splits, merges, nodes, ε·n
	// error budget, merge-batch latency), per-source queue
	// depth/capacity, drops, retries, backoff state, and checkpoint
	// counters/latency.
	Metrics *obs.Registry

	// Audit, when set, runs the online accuracy self-audit over this
	// pipeline: per-shard taps shadow the stream, and periodic passes
	// compare the engine's estimates against exact counts for the sampled
	// ranges. The auditor attaches after checkpoint recovery, so restored
	// mass is pre-audit slack, never fabricated truth. Audit metrics land
	// on Metrics, and violation and near-bound events on Tracer, when
	// Metrics is set.
	Audit *audit.Options

	// AuditEvery is the cadence of periodic audit passes in Run (default
	// 10s). A final pass always runs after the queues drain.
	AuditEvery time.Duration

	// Admission, when set, wires the randomized admission frontend in
	// front of every shard tree: cold points must win a geometric coin
	// flip before they may create structure, and an overload watchdog
	// escalates the odds under arena or churn pressure. Refused weight
	// lands in the trees' unadmitted ledgers (reconciled per source in
	// Stats and preserved across checkpoints) and is folded into the
	// audit's certified budget, so Audit+Admission still verifies the
	// end-to-end bound. The frontend's Logger and Trace default to this
	// Options' Logger and (when Metrics is set) Tracer.
	Admission *admit.Options

	// AdmissionObserveEvery is the cadence at which Run feeds the
	// admission watchdog an engine-wide stats snapshot (default 1s), so
	// it can escalate on arena pressure and — crucially — notice calm and
	// de-escalate even when the gates see no traffic.
	AdmissionObserveEvery time.Duration

	// ReadSnapshots does nothing: every engine query reads an epoch cut
	// as of its call (shard.Engine.Reader).
	//
	// Deprecated: the epoch read path is always on.
	ReadSnapshots bool

	// Tracer, when set, threads request-scoped spans through the pipeline:
	// each enqueued batch becomes a trace whose children cover the
	// queue-wait and shard-apply stages (with a merge-batch child attached
	// when the apply ran merge batches), and each checkpoint becomes a
	// trace with cut and write children. The tracer's sampling policy
	// decides what is kept. A queue entry carries
	// only its head-sampling decision; its spans are built when its apply
	// ends, and only when the trace is sampled, recording is forced, or
	// the batch reached the slow-op threshold, so an unsampled entry
	// allocates nothing for tracing. With Metrics also set,
	// split/merge decisions (tree.split, tree.merge), audit verdicts and
	// admission level changes are recorded on it as zero-duration events.
	Tracer *span.Tracer
}

func (o Options) withDefaults() Options {
	if o.Tree == (core.Config{}) {
		o.Tree = core.DefaultConfig()
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 64
	}
	if o.BatchLen <= 0 {
		o.BatchLen = 256
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10 * time.Second
	}
	if o.AuditEvery <= 0 {
		o.AuditEvery = 10 * time.Second
	}
	if o.AdmissionObserveEvery <= 0 {
		o.AdmissionObserveEvery = time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// batch is one queue entry: a run of events from a single source.
type batch struct {
	src *sourceState

	// buf is the source buffer the run was read into, handed back to the
	// source's free list once the run is applied; events is the run, buf
	// less any prefix a resumed source skipped.
	buf, events []trace.Event

	// enqueuedAt is stamped by enqueue when latency metrics or tracing are
	// enabled, so the drain can observe the queue-wait stage. Zero when
	// both are off: the hot path then pays nothing for the
	// instrumentation.
	enqueuedAt time.Time

	// head is the batch trace's head-sampling decision, taken at enqueue
	// when a Tracer is configured. The trace's spans are built when the
	// apply ends, and only when the tracer would keep them.
	head span.Head
}

// shardQueue is the bounded queue feeding one shard of the engine. The
// engine's per-shard lock guards both the tree and the applied counters
// of every source pinned to this shard, so a checkpoint cut that holds
// every shard lock sees positions exactly consistent with tree contents.
type shardQueue struct {
	idx int
	ch  chan batch
}

// sourceState is the supervision record for one source.
type sourceState struct {
	spec  SourceSpec
	queue *shardQueue

	// consumed is the reader-local stream position: events read from the
	// source and handed off (enqueued or dropped), including the resume
	// base restored from a checkpoint. Only the reader goroutine touches
	// it, so reopening after a failure can skip exactly this many events
	// without racing the appliers.
	consumed uint64

	// applied counts events of this source applied to the shard tree;
	// guarded by the engine's lock on this source's shard. Events the
	// admission gate refuses still count as applied — they advanced the
	// stream position — and are additionally counted in unadmitted.
	applied uint64

	// unadmitted counts events of this source the admission gate refused;
	// guarded like applied, and checkpointed with it so recovery preserves
	// the per-source ledger.
	unadmitted uint64

	// free holds the source's read buffers, each BatchLen events, between
	// uses: the applier returns one after applying its entry and the
	// reader takes one per read. It is bounded, and with room for every
	// buffer a source can have in flight (QueueLen queued, one being
	// applied, one held by pump, one being read) a put never finds it
	// full in steady state.
	free chan []trace.Event

	dropped atomic.Uint64
	retries atomic.Uint64
	failed  atomic.Bool

	// backoffUntil is the unix-nano deadline of the current retry
	// backoff, 0 when the source is not backing off. Exported through
	// SourceStats.Backoff and the rap_ingest_backoff_seconds gauge.
	backoffUntil atomic.Int64

	errMu   sync.Mutex
	lastErr error
}

// backoffRemaining returns how much of the current retry backoff is left.
func (ss *sourceState) backoffRemaining(now time.Time) time.Duration {
	until := ss.backoffUntil.Load()
	if until == 0 {
		return 0
	}
	if d := time.Duration(until - now.UnixNano()); d > 0 {
		return d
	}
	return 0
}

// getBuf returns a whole buffer for the next read: a recycled one when
// the free list has one, a new one otherwise.
func (ss *sourceState) getBuf(batchLen int) []trace.Event {
	select {
	case buf := <-ss.free:
		return buf
	default:
		return make([]trace.Event, batchLen)
	}
}

// putBuf hands a buffer nothing reads any more back to the free list,
// whole whatever window of it was used, or to the GC when the list is
// full.
func (ss *sourceState) putBuf(buf []trace.Event) {
	select {
	case ss.free <- buf[:cap(buf)]:
	default:
	}
}

func (ss *sourceState) noteErr(err error) {
	ss.errMu.Lock()
	ss.lastErr = err
	ss.errMu.Unlock()
}

func (ss *sourceState) lastError() error {
	ss.errMu.Lock()
	defer ss.errMu.Unlock()
	return ss.lastErr
}

// Ingestor runs the sharded, supervised, checkpointed ingest pipeline.
// Tree state lives in a shard.Engine; the ingestor owns the queues,
// supervision, and checkpointing around it.
type Ingestor struct {
	opts    Options
	engine  *shard.Engine
	queues  []*shardQueue
	sources []*sourceState
	log     *slog.Logger
	aud     *audit.Auditor
	adm     *admit.Frontend

	// Per-stage latency histograms, nil unless Metrics is configured.
	hQueueWait *obs.Histogram   // enqueue → drain wait per batch
	hApply     []*obs.Histogram // drain → applied, per shard

	// Adaptive (RAP-tree-backed) companions to the fixed ladders above,
	// nil unless Metrics is configured. Global across shards: the point is
	// adaptive resolution over the latency distribution, and a per-shard
	// split would just dilute each tree's mass.
	aQueueWait *obs.AdaptiveHistogram
	aApply     *obs.AdaptiveHistogram

	// Checkpoint bookkeeping, updated by Checkpoint/loadCheckpoint and
	// exported through Stats and the rap_checkpoint_* metrics.
	ckWritten     atomic.Uint64
	ckFailed      atomic.Uint64
	ckQuarantined atomic.Uint64
	ckLastNano    atomic.Int64 // unix nanos of the last successful write
	ckLastSize    atomic.Int64 // bytes of the last successful write
	ckLastDur     atomic.Int64 // wall nanos of the last successful write
	ckDur         *obs.Histogram
	ckCutDur      *obs.Histogram // shard-lock cut stage of a checkpoint
	ckWriteDur    *obs.Histogram // encode+write+fsync+rename stage
	openedAt      time.Time      // staleness origin before the first checkpoint
}

// Open builds an ingestor over the given sources and, when a checkpoint
// directory is configured, recovers tree state and stream positions from
// the most recent intact checkpoint. A corrupt checkpoint is quarantined
// (renamed aside) and logged, then the previous one is tried; with no
// usable checkpoint the ingestor starts fresh. Open never panics on bad
// checkpoint bytes.
func Open(opts Options, specs []SourceSpec) (*Ingestor, error) {
	opts = opts.withDefaults()
	if len(specs) == 0 {
		return nil, errors.New("ingest: no sources")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" || s.Open == nil {
			return nil, errors.New("ingest: source needs a name and an Open func")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("ingest: duplicate source name %q", s.Name)
		}
		seen[s.Name] = true
	}

	in := &Ingestor{opts: opts, log: opts.Logger, openedAt: time.Now()}
	engine, err := shard.New(opts.Tree, opts.Shards)
	if err != nil {
		return nil, err
	}
	in.engine = engine
	for i := 0; i < opts.Shards; i++ {
		in.queues = append(in.queues, &shardQueue{idx: i, ch: make(chan batch, opts.QueueLen)})
	}
	for i, spec := range specs {
		in.sources = append(in.sources, &sourceState{
			spec:  spec,
			queue: in.queues[i%opts.Shards],
			free:  make(chan []trace.Event, opts.QueueLen+3),
		})
	}

	if opts.CheckpointDir != "" {
		st, err := in.loadCheckpoint()
		if err != nil {
			return nil, err
		}
		if st != nil {
			if err := in.restore(st); err != nil {
				return nil, err
			}
		}
	}
	// Structural events ride on the tracer only beside the metrics plane,
	// the same condition under which the tree hooks are installed.
	var events *span.Tracer
	if opts.Metrics != nil {
		events = opts.Tracer
	}
	// Install the admission frontend before the audit attaches: the gates
	// must already be in place when the auditor reads its baseline, so the
	// mass accounting (baseN + tapN == n + unadmitted) starts consistent.
	if opts.Admission != nil {
		admOpts := *opts.Admission
		if admOpts.Logger == nil {
			admOpts.Logger = opts.Logger
		}
		if admOpts.Trace == nil {
			admOpts.Trace = events
		}
		in.adm = admit.New(admOpts)
		gates := in.adm.Gates(engine.Config().UniverseBits, engine.Shards())
		engine.SetShardAdmitters(func(i int) core.Admitter { return gates[i] })
		if opts.Metrics != nil {
			in.adm.Register(opts.Metrics)
		}
	}
	// Attach the audit after restore so recovered mass is counted as
	// pre-audit slack (baseN), not as stream the taps should have seen.
	if opts.Audit != nil {
		aud := audit.New(*opts.Audit)
		taps, err := aud.Attach(engine.Config(), engine, engine.Shards())
		if err != nil {
			return nil, err
		}
		engine.SetShardTaps(func(i int) core.Tap { return taps[i] })
		aud.Register(opts.Metrics, events)
		in.aud = aud
	}
	// Register metrics after restore so hooks land on the live trees.
	if opts.Metrics != nil {
		in.registerMetrics()
	}
	return in, nil
}

// Auditor returns the accuracy auditor wired into this pipeline, or nil
// when Options.Audit was not set. Callers may run extra Audit passes (the
// rapd /audit endpoint does); passes serialize with the periodic ones.
func (in *Ingestor) Auditor() *audit.Auditor {
	return in.aud
}

// Admission returns the admission frontend wired into this pipeline, or
// nil when Options.Admission was not set.
func (in *Ingestor) Admission() *admit.Frontend {
	return in.adm
}

// registerMetrics wires the three instrumentation surfaces onto
// opts.Metrics: per-shard tree hooks (merge-batch latency, split/merge
// events on opts.Tracer), scrape-time counters and gauges over shard
// Stats and queue state, and checkpoint counters. Scrape-time Funcs take
// the owning shard lock, so an exposition is a consistent-enough
// monitoring view without ever blocking the hot path for longer than one
// scrape.
func (in *Ingestor) registerMetrics() {
	reg := in.opts.Metrics
	eps := in.opts.Tree.Epsilon
	in.engine.SetShardHooks(func(i int) *core.Hooks {
		return treeHooks(reg, in.opts.Tracer, strconv.Itoa(i))
	})
	for i := 0; i < in.engine.Shards(); i++ {
		i := i
		labels := []obs.Label{obs.L("shard", strconv.Itoa(i))}
		treeStat := func(f func(core.Stats) float64) func() float64 {
			return func() float64 { return f(in.engine.ShardStats(i)) }
		}
		reg.CounterFunc("rap_tree_events_total", "Total event weight applied to the shard tree.",
			treeStat(func(st core.Stats) float64 { return float64(st.N) }), labels...)
		reg.CounterFunc(MetricTreeSplits, "Split operations performed.",
			treeStat(func(st core.Stats) float64 { return float64(st.Splits) }), labels...)
		reg.CounterFunc(MetricTreeMerges, "Nodes folded into their parents.",
			treeStat(func(st core.Stats) float64 { return float64(st.Merges) }), labels...)
		reg.CounterFunc(MetricTreeMergeBatches, "Batched merge passes run.",
			treeStat(func(st core.Stats) float64 { return float64(st.MergeBatches) }), labels...)
		reg.CounterFunc("rap_tree_descent_levels_total", "Tree levels walked by update descents below their start anchor.",
			treeStat(func(st core.Stats) float64 { return float64(st.DescentLevels) }), labels...)
		reg.GaugeFunc("rap_tree_nodes", "Live nodes in the shard tree.",
			treeStat(func(st core.Stats) float64 { return float64(st.Nodes) }), labels...)
		reg.GaugeFunc("rap_tree_nodes_max", "High-water mark of live nodes in the shard tree.",
			treeStat(func(st core.Stats) float64 { return float64(st.MaxNodes) }), labels...)
		reg.GaugeFunc("rap_tree_memory_bytes", "Shard tree memory under the paper's 16 B/node cost model.",
			treeStat(func(st core.Stats) float64 { return float64(st.MemoryBytes) }), labels...)
		reg.GaugeFunc("rap_tree_arena_bytes", "Physical node-slab and spill-slab footprint of the shard tree, including growth slack.",
			treeStat(func(st core.Stats) float64 { return float64(st.ArenaBytes) }), labels...)
		reg.GaugeFunc("rap_tree_start_table_bytes", "Descent start table footprint of the shard tree, its rows and deep tier, outside the arena bytes.",
			treeStat(func(st core.Stats) float64 { return float64(st.StartTableBytes) }), labels...)
		reg.GaugeFunc("rap_tree_error_budget", "Current ε·n error budget of the shard tree, in events.",
			treeStat(func(st core.Stats) float64 { return eps * float64(st.N) }), labels...)
	}
	for _, ss := range in.sources {
		ss := ss
		labels := []obs.Label{obs.L("source", ss.spec.Name)}
		reg.GaugeFunc("rap_ingest_queue_depth", "Batches waiting in the source's shard queue.",
			func() float64 { return float64(len(ss.queue.ch)) }, labels...)
		reg.GaugeFunc("rap_ingest_queue_capacity", "Capacity of the source's shard queue, in batches.",
			func() float64 { return float64(cap(ss.queue.ch)) }, labels...)
		reg.CounterFunc("rap_ingest_applied_total", "Events applied to the shard tree from this source.",
			func() float64 {
				var applied uint64
				in.engine.WithShard(ss.queue.idx, func(*core.Tree) { applied = ss.applied })
				return float64(applied)
			}, labels...)
		reg.CounterFunc("rap_ingest_unadmitted_total", "Event weight from this source refused by the admission gate.",
			func() float64 {
				var u uint64
				in.engine.WithShard(ss.queue.idx, func(*core.Tree) { u = ss.unadmitted })
				return float64(u)
			}, labels...)
		reg.CounterFunc("rap_ingest_dropped_total", "Events shed under DropNewest from this source.",
			func() float64 { return float64(ss.dropped.Load()) }, labels...)
		reg.CounterFunc("rap_ingest_retries_total", "Reopen attempts for this source.",
			func() float64 { return float64(ss.retries.Load()) }, labels...)
		reg.GaugeFunc("rap_ingest_failed", "1 when the source has permanently failed.",
			func() float64 {
				if ss.failed.Load() {
					return 1
				}
				return 0
			}, labels...)
		reg.GaugeFunc("rap_ingest_backoff_seconds", "Seconds remaining in the source's current retry backoff.",
			func() float64 { return ss.backoffRemaining(time.Now()).Seconds() }, labels...)
	}
	reg.CounterFunc("rap_checkpoint_written_total", "Checkpoints written successfully.",
		func() float64 { return float64(in.ckWritten.Load()) })
	reg.CounterFunc("rap_checkpoint_failed_total", "Checkpoint writes that failed.",
		func() float64 { return float64(in.ckFailed.Load()) })
	reg.CounterFunc("rap_checkpoint_quarantined_total", "Corrupt checkpoints quarantined on load.",
		func() float64 { return float64(in.ckQuarantined.Load()) })
	reg.GaugeFunc("rap_checkpoint_last_size_bytes", "Size of the last successful checkpoint.",
		func() float64 { return float64(in.ckLastSize.Load()) })
	reg.GaugeFunc("rap_checkpoint_last_age_seconds", "Seconds since the last successful checkpoint; -1 before the first.",
		func() float64 {
			last := in.ckLastNano.Load()
			if last == 0 {
				return -1
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	reg.GaugeFunc("rap_checkpoint_staleness_seconds",
		"Seconds without a durable checkpoint: since the last successful write, or since Open before the first. 0 when checkpointing is disabled. Unlike rap_checkpoint_last_age_seconds this is alertable from startup — it climbs instead of sitting at -1.",
		func() float64 {
			if in.opts.CheckpointDir == "" {
				return 0
			}
			last := in.ckLastNano.Load()
			if last == 0 {
				return time.Since(in.openedAt).Seconds()
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	// The epoch gauges describe the latest cut, which readers make on
	// demand. They pin the current epoch rather than cut one, so a scrape
	// neither moves them nor keeps the epoch's tree from a later cut.
	pub := in.engine.Publisher()
	reg.GaugeFunc("rap_epoch_seq", "Sequence number of the latest read epoch.",
		func() float64 { return float64(pub.Seq()) })
	reg.GaugeFunc("rap_epoch_cut_events", "Admitted event weight at the current epoch's cut.",
		func() float64 {
			e := pub.Acquire()
			defer e.Release()
			return float64(e.CutN())
		})
	reg.GaugeFunc("rap_epoch_age_seconds", "Seconds since the last epoch was cut. A reader cuts only when events arrived since then, so this grows while no reader asks or nothing arrives.",
		func() float64 { return time.Since(pub.LastPublishedAt()).Seconds() })
	reg.GaugeFunc("rap_epoch_pinned_readers", "Readers currently holding a pinned epoch (Reader handles not yet released).",
		func() float64 { return float64(pub.Pinned()) })
	reg.CounterFunc("rap_epoch_published_total", "Epochs cut since start.",
		func() float64 { return float64(pub.Published()) })
	reg.CounterFunc("rap_epoch_retired_total", "Superseded epochs whose reader count drained.",
		func() float64 { return float64(pub.Retired()) })
	in.ckDur = reg.Histogram("rap_checkpoint_seconds", "Wall time of one checkpoint write.", obs.DurationBuckets())
	in.ckCutDur = reg.Duration("rap_checkpoint_cut_seconds",
		"Checkpoint cut stage: wall time holding every shard lock to snapshot trees and positions.")
	in.ckWriteDur = reg.Duration("rap_checkpoint_write_seconds",
		"Checkpoint persist stage: encode, write, fsync, and rename of the checkpoint file.")
	in.hQueueWait = reg.Duration("rap_ingest_queue_wait_seconds",
		"Time a batch spends in its shard queue between enqueue and drain.")
	in.hApply = make([]*obs.Histogram, in.engine.Shards())
	for i := range in.hApply {
		in.hApply[i] = reg.Duration("rap_ingest_apply_seconds",
			"Time to fold one drained batch into the shard tree, including the shard lock wait.",
			obs.L("shard", strconv.Itoa(i)))
	}
	in.aQueueWait = obs.NewAdaptiveHistogram()
	in.aQueueWait.Register(reg, "queue_wait")
	in.aApply = obs.NewAdaptiveHistogram()
	in.aApply.Register(reg, "apply")
}

// Profiles returns the pipeline's adaptive latency histograms by stage
// name, for the /profilez endpoint. Nil until metrics are registered.
func (in *Ingestor) Profiles() map[string]*obs.AdaptiveHistogram {
	if in.aQueueWait == nil {
		return nil
	}
	return map[string]*obs.AdaptiveHistogram{
		"queue_wait": in.aQueueWait,
		"apply":      in.aApply,
	}
}

func (in *Ingestor) restore(st *checkpointState) error {
	if len(st.trees) != in.engine.Shards() {
		return fmt.Errorf("ingest: checkpoint has %d shards, ingestor has %d",
			len(st.trees), in.engine.Shards())
	}
	for i, tr := range st.trees {
		in.engine.AdoptShard(i, tr)
	}
	byName := make(map[string]sourcePos, len(st.sources))
	for _, sp := range st.sources {
		byName[sp.name] = sp
	}
	for _, ss := range in.sources {
		sp, ok := byName[ss.spec.Name]
		if !ok {
			continue // new source since the checkpoint: starts at zero
		}
		ss.applied = sp.applied
		ss.dropped.Store(sp.dropped)
		ss.unadmitted = sp.unadmitted
		ss.consumed = sp.applied + sp.dropped
		delete(byName, ss.spec.Name)
	}
	for name := range byName {
		in.log.Warn("ingest: checkpoint position for unknown source ignored", "source", name)
	}
	return nil
}

// apply folds one batch into the engine under its shard's lock, advancing
// the source's applied position in the same critical section so
// checkpoint cuts stay exact, then hands the batch's buffer back to its
// source. The stage histograms are observed and, when the tracer would
// keep them, the batch's spans built once the apply has ended.
func (in *Ingestor) apply(q *shardQueue, b batch) {
	timed := !b.enqueuedAt.IsZero()
	var start time.Time
	if timed {
		start = time.Now()
	}

	// Only a kept batch pays for stat deltas; the merge-batch child exists
	// to explain a slow apply in a recorded trace, not to census merge
	// batches.
	sampled := b.head.Sampled()
	var mergesBefore, mergesAfter uint64

	in.engine.WithShard(q.idx, func(tr *core.Tree) {
		if sampled {
			mergesBefore = tr.Stats().MergeBatches
		}
		// The tree's ledger delta across this batch is exactly the weight
		// the admission gate refused from it — both reads happen under the
		// same shard lock as the gate, so the attribution is exact.
		before := tr.UnadmittedN()
		for _, e := range b.events {
			tr.AddN(e.Value, e.Weight)
		}
		b.src.applied += uint64(len(b.events))
		b.src.unadmitted += tr.UnadmittedN() - before
		if sampled {
			mergesAfter = tr.Stats().MergeBatches
		}
	})
	b.src.putBuf(b.buf)

	if !timed {
		return
	}
	end := time.Now()
	wait, applyDur := start.Sub(b.enqueuedAt), end.Sub(start)
	if in.hQueueWait != nil {
		in.hQueueWait.Observe(wait.Seconds())
	}
	if in.hApply != nil {
		in.hApply[q.idx].Observe(applyDur.Seconds())
	}
	var qw, ap *span.Span
	if in.opts.Tracer.Keep(b.head, end.Sub(b.enqueuedAt)) {
		qw, ap = in.traceBatch(q, b, start, end, mergesAfter-mergesBefore)
	}
	if in.aQueueWait == nil {
		return
	}
	if c := qw.Context(); qw.Sampled() {
		in.aQueueWait.ObserveExemplar(wait, c.Trace.String(), c.Span.String())
	} else {
		in.aQueueWait.Observe(wait)
	}
	if c := ap.Context(); sampled {
		in.aApply.ObserveExemplar(applyDur, c.Trace.String(), c.Span.String())
	} else {
		in.aApply.Observe(applyDur)
	}
}

// traceBatch builds and ends a kept batch's spans: the ingest.batch root
// from enqueue to the apply's end, a queue_wait child up to the drain, and
// an apply child after it. Merge batches happen during the apply with no
// context of their own, so the merge batches a sampled batch counted
// across it become a merge_batch child of apply, covering the apply
// window. It returns the queue_wait and apply spans, whose IDs the stage
// profiles keep as exemplars.
func (in *Ingestor) traceBatch(q *shardQueue, b batch, drained, end time.Time, merges uint64) (qw, ap *span.Span) {
	tr := in.opts.Tracer
	root := tr.StartRootFrom(b.head, "ingest.batch", b.enqueuedAt)
	qw = tr.StartChildAt(root.Context(), "queue_wait", b.enqueuedAt)
	qw.EndAt(drained)
	ap = tr.StartChildAt(root.Context(), "apply", drained)
	ap.SetAttr("shard", strconv.Itoa(q.idx))
	if merges > 0 {
		mb := tr.StartChildAt(ap.Context(), "merge_batch", drained)
		mb.SetAttr("batches", strconv.FormatUint(merges, 10))
		mb.EndAt(end)
	}
	ap.EndAt(end)
	root.SetAttr("source", b.src.spec.Name)
	root.SetAttr("events", strconv.Itoa(len(b.events)))
	root.EndAt(end)
	return qw, ap
}

// Run drives the pipeline until every source is drained or ctx is
// canceled, then drains the queues, and (unless disabled) flushes a final
// checkpoint. It returns the joined terminal errors of permanently failed
// sources, or the final checkpoint error; a canceled ctx is a clean
// shutdown, not an error. Run must be called at most once per Ingestor.
func (in *Ingestor) Run(ctx context.Context) error {
	var workers sync.WaitGroup
	for _, q := range in.queues {
		workers.Add(1)
		go func(q *shardQueue) {
			defer workers.Done()
			for b := range q.ch {
				in.apply(q, b)
			}
		}(q)
	}

	var readers sync.WaitGroup
	for _, ss := range in.sources {
		readers.Add(1)
		go func(ss *sourceState) {
			defer readers.Done()
			in.supervise(ctx, ss)
		}(ss)
	}

	stopCk := every(in.opts.CheckpointDir != "", in.opts.CheckpointEvery, func() {
		if err := in.Checkpoint(); err != nil {
			in.log.Error("ingest: checkpoint failed", "err", err)
		}
	})
	stopAdm := every(in.adm != nil, in.opts.AdmissionObserveEvery, func() {
		in.adm.Observe(in.engine.Stats())
	})
	stopAudit := every(in.aud != nil, in.opts.AuditEvery, in.auditPass)

	readers.Wait()
	stopCk()
	// Readers are done; close the queues and let the workers drain what
	// was already accepted, so the final checkpoint covers it.
	for _, q := range in.queues {
		close(q.ch)
	}
	workers.Wait()
	stopAdm()
	stopAudit()
	if in.aud != nil {
		// One final pass over the fully drained stream, so even a short
		// run gets at least one complete accuracy verdict.
		in.auditPass()
	}

	var errs []error
	for _, ss := range in.sources {
		if ss.failed.Load() {
			errs = append(errs, fmt.Errorf("ingest: source %q failed permanently: %w",
				ss.spec.Name, ss.lastError()))
		}
	}
	if in.opts.CheckpointDir != "" && !in.opts.SkipFinalCheckpoint {
		if err := in.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("ingest: final checkpoint: %w", err))
		}
	}
	return errors.Join(errs...)
}

// every runs fn on a ticker of period d in its own goroutine while on
// holds, until the returned stop is called. stop waits for an in-flight
// fn, so whatever fn touches is quiet once it returns; with on false,
// every starts nothing and stop is a no-op.
func every(on bool, d time.Duration, fn func()) (stop func()) {
	if !on {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// auditPass runs one audit pass and logs its outcome; a violation is an
// operational emergency (the engine broke its accuracy contract), so it
// logs at error level with the verdict attached.
func (in *Ingestor) auditPass() {
	rep, err := in.aud.Audit()
	if err != nil {
		in.log.Error("ingest: audit pass failed", "err", err)
		return
	}
	if rep.PassViolations > 0 {
		in.log.Error("ingest: accuracy contract violated",
			"violations", rep.PassViolations,
			"max_underestimate", rep.MaxUnderestimate,
			"worst_ratio", rep.WorstRatio)
	}
}

// backoff returns the jittered exponential delay before retry attempt
// (1-based).
func (in *Ingestor) backoff(attempt int) time.Duration {
	d := in.opts.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= in.opts.BackoffMax {
			d = in.opts.BackoffMax
			break
		}
	}
	// ±25% jitter.
	q := d / 4
	if q > 0 {
		d = d - q + rand.N(2*q)
	}
	return d
}

func (in *Ingestor) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// supervise opens and pumps one source, retrying transient failures with
// exponential backoff and declaring the source failed after MaxRetries
// consecutive attempts without progress.
func (in *Ingestor) supervise(ctx context.Context, ss *sourceState) {
	attempts := 0
	for {
		if ctx.Err() != nil {
			return
		}
		src, err := ss.spec.Open()
		if err == nil {
			var progressed bool
			progressed, err = in.pump(ctx, ss, src)
			closeSource(src)
			if err == nil {
				return // clean EOF: source done
			}
			if ctx.Err() != nil {
				return // shutdown, not a source failure
			}
			if progressed {
				attempts = 0
			}
		}
		attempts++
		ss.retries.Add(1)
		ss.noteErr(err)
		if attempts > in.opts.MaxRetries {
			ss.failed.Store(true)
			in.log.Error("ingest: source failed permanently",
				"source", ss.spec.Name, "attempts", attempts, "err", err)
			return
		}
		d := in.backoff(attempts)
		in.log.Warn("ingest: source read failed, retrying",
			"source", ss.spec.Name, "err", err,
			"attempt", attempts, "max_retries", in.opts.MaxRetries, "backoff", d)
		ss.backoffUntil.Store(time.Now().Add(d).UnixNano())
		ok := in.sleep(ctx, d)
		ss.backoffUntil.Store(0)
		if !ok {
			return
		}
	}
}

// pump drains one opened source into the shard queue, skipping the events
// already accounted for by ss.consumed (crash recovery or a mid-stream
// reopen). Reads run in a helper goroutine so a stalled source can be
// detected and abandoned; the helper exits once the source unblocks or is
// closed. Each read of up to BatchLen events lands in a buffer from the
// source's free list, crosses to pump as one slice and becomes one queue
// entry. The stall timer covers only the source: it restarts after each
// handoff, so time blocked in enqueue is never taken for a stall. A
// one-shot source runs without it. pump reports whether any new events
// were handed off, and returns nil only on clean EOF.
func (in *Ingestor) pump(ctx context.Context, ss *sourceState, src trace.Source) (progressed bool, err error) {
	reads := make(chan []trace.Event)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(reads)
		for {
			buf := ss.getBuf(in.opts.BatchLen)
			n := trace.NextBatch(src, buf)
			if n == 0 {
				return
			}
			select {
			case reads <- buf[:n]:
			case <-stop:
				return
			}
		}
	}()

	skip := ss.consumed
	var stallC <-chan time.Time
	var stallT *time.Timer
	if in.opts.ReadTimeout > 0 && !ss.spec.oneShot {
		stallT = time.NewTimer(in.opts.ReadTimeout)
		defer stallT.Stop()
		stallC = stallT.C
	}

	for {
		select {
		case buf, ok := <-reads:
			if !ok {
				return progressed, sourceErr(src)
			}
			evs := buf
			if skip > 0 {
				k := min(skip, uint64(len(evs)))
				skip -= k
				evs = evs[k:]
			}
			if len(evs) == 0 {
				ss.putBuf(buf)
			} else {
				progressed = true
				if !in.enqueue(ctx, ss, buf, evs) {
					return progressed, ctx.Err()
				}
			}
			if stallT != nil {
				stallT.Reset(in.opts.ReadTimeout)
			}
		case <-stallC:
			return progressed, fmt.Errorf("%w after %v", ErrStalled, in.opts.ReadTimeout)
		case <-ctx.Done():
			return progressed, ctx.Err()
		}
	}
}

// enqueue hands the run evs, read into buf, to the source's shard under
// the configured overload policy, advancing the reader-local stream
// position for both delivered and dropped events. A run that is not
// queued gives buf straight back to the free list. It returns false only
// when a Block-policy enqueue was abandoned because ctx ended (those
// events stay uncounted and are replayed on the next run).
func (in *Ingestor) enqueue(ctx context.Context, ss *sourceState, buf, evs []trace.Event) bool {
	b := batch{src: ss, buf: buf, events: evs}
	if in.hQueueWait != nil || in.opts.Tracer != nil {
		b.enqueuedAt = time.Now()
		b.head = in.opts.Tracer.Head()
	}
	n := uint64(len(evs))
	if in.opts.Drop == DropNewest {
		select {
		case ss.queue.ch <- b:
		default:
			ss.dropped.Add(n)
			ss.putBuf(buf)
		}
		ss.consumed += n
		return true
	}
	select {
	case ss.queue.ch <- b:
		ss.consumed += n
		return true
	case <-ctx.Done():
		ss.putBuf(buf)
		return false
	}
}

// sourceErr surfaces a source's terminal error, if it exposes one (as
// trace.Reader and faults.Source do). A source without Err can only end
// cleanly.
func sourceErr(s trace.Source) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

func closeSource(s trace.Source) {
	if c, ok := s.(interface{ Close() error }); ok {
		c.Close()
	}
}

// Estimate returns the summed lower-bound estimate for [lo, hi] across all
// shards. Each shard's estimate undercounts its slice of the stream by at
// most ε·n_i, so the sum undercounts the whole stream by at most ε·N()
// plus Dropped() events.
func (in *Ingestor) Estimate(lo, hi uint64) uint64 {
	return in.engine.Estimate(lo, hi)
}

// N returns the total event weight applied across all shards.
func (in *Ingestor) N() uint64 {
	return in.engine.N()
}

// Engine exposes the underlying sharded engine for richer queries
// (EstimateBounds, HotRanges, merged snapshots).
func (in *Ingestor) Engine() *shard.Engine {
	return in.engine
}

// Dropped returns the total number of events shed under DropNewest.
func (in *Ingestor) Dropped() uint64 {
	var total uint64
	for _, ss := range in.sources {
		total += ss.dropped.Load()
	}
	return total
}

// SourceStats reports one source's supervision state. Offered, Applied
// and Dropped count events, because together they are the source's
// stream position (Offered == Applied + Dropped). Unadmitted counts event
// weight, the unit of the trees' ledgers; for a weight-1 stream the
// events credited to the tree are Applied − Unadmitted.
type SourceStats struct {
	Name       string
	Offered    uint64        // events the reader handed off: Applied + Dropped
	Applied    uint64        // events applied to its shard tree (incl. unadmitted)
	Unadmitted uint64        // event weight refused by the admission gate
	Dropped    uint64        // events shed under DropNewest
	Retries    uint64        // reopen attempts
	Failed     bool          // permanently failed
	LastErr    string        // most recent error, "" if none
	QueueDepth int           // batches waiting in its shard queue
	QueueCap   int           // capacity of its shard queue, in batches
	Backoff    time.Duration // time remaining in the current retry backoff
}

// CheckpointStats reports the checkpoint subsystem's state.
type CheckpointStats struct {
	Enabled      bool
	Written      uint64        // successful checkpoint writes
	Failed       uint64        // failed checkpoint writes
	Quarantined  uint64        // corrupt checkpoints quarantined on load
	LastAt       time.Time     // time of the last successful write; zero if none
	LastSize     int           // bytes of the last successful write
	LastDuration time.Duration // wall time of the last successful write
}

// Age returns how long ago the last successful checkpoint was written,
// or -1 if none has been.
func (c CheckpointStats) Age(now time.Time) time.Duration {
	if c.LastAt.IsZero() {
		return -1
	}
	return now.Sub(c.LastAt)
}

// Stats is a point-in-time view of the whole pipeline.
type Stats struct {
	N            uint64 // total event weight credited to the trees
	Unadmitted   uint64 // weight refused by the admission gates (tree ledgers)
	Nodes        int    // live tree nodes across shards
	MaxNodes     int    // summed per-shard node high-water marks
	MemoryBytes  int    // charged at core.NodeBytes per node
	ArenaBytes   int    // physical node-arena footprint across shards
	Splits       uint64 // split operations across shards
	Merges       uint64 // nodes folded away across shards
	MergeBatches uint64 // batched merge passes across shards
	Dropped      uint64 // events shed under DropNewest
	Checkpoint   CheckpointStats
	Sources      []SourceStats
}

// Stats gathers per-shard and per-source counters. The view is
// monitoring-grade: shards are sampled one at a time, not under a global
// cut.
func (in *Ingestor) Stats() Stats {
	ts := in.engine.Stats()
	st := Stats{
		N:            ts.N,
		Unadmitted:   ts.UnadmittedN,
		Nodes:        ts.Nodes,
		MaxNodes:     ts.MaxNodes,
		MemoryBytes:  ts.MemoryBytes,
		ArenaBytes:   ts.ArenaBytes,
		Splits:       ts.Splits,
		Merges:       ts.Merges,
		MergeBatches: ts.MergeBatches,
	}
	now := time.Now()
	for _, ss := range in.sources {
		s := SourceStats{
			Name:       ss.spec.Name,
			Dropped:    ss.dropped.Load(),
			Retries:    ss.retries.Load(),
			Failed:     ss.failed.Load(),
			QueueDepth: len(ss.queue.ch),
			QueueCap:   cap(ss.queue.ch),
			Backoff:    ss.backoffRemaining(now),
		}
		in.engine.WithShard(ss.queue.idx, func(*core.Tree) {
			s.Applied = ss.applied
			s.Unadmitted = ss.unadmitted
		})
		s.Offered = s.Applied + s.Dropped
		if err := ss.lastError(); err != nil {
			s.LastErr = err.Error()
		}
		st.Dropped += s.Dropped
		st.Sources = append(st.Sources, s)
	}
	st.Checkpoint = CheckpointStats{
		Enabled:      in.opts.CheckpointDir != "",
		Written:      in.ckWritten.Load(),
		Failed:       in.ckFailed.Load(),
		Quarantined:  in.ckQuarantined.Load(),
		LastSize:     int(in.ckLastSize.Load()),
		LastDuration: time.Duration(in.ckLastDur.Load()),
	}
	if nano := in.ckLastNano.Load(); nano != 0 {
		st.Checkpoint.LastAt = time.Unix(0, nano)
	}
	return st
}
