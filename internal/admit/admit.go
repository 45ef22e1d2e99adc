// Package admit is the randomized admission frontend: the deliberate
// graceful-degradation subsystem that protects the RAP tree from
// adversarial cardinality. A flood of never-repeating keys (scrapers,
// spoofed users, randomized attack traffic) forces splits and merge churn
// for mass that never becomes hot, burning arena memory and merge CPU the
// paper's adaptive-range machinery assumes is spent on genuinely skewed
// traffic.
//
// The defense follows the Randomized Admission Policy of Ben Basat et al.
// (arXiv 1612.02962), adapted to the RAP tree's b-adic geometry: an event
// whose exact leaf already exists, or whose b-adic prefix is "warm" per a
// tiny admission sketch, passes straight through; a cold event must win a
// geometric coin flip (1-in-period) before it may create new structure.
// Losers are counted into the tree's unadmitted ledger (core.Tree
// UnadmittedN), which the tree charges to every upper bound and the online
// audit (internal/audit) folds into its certified budget — so the system
// degrades gracefully *and verifiably* under attack instead of melting.
//
// The coin period is not fixed. A watchdog over arena footprint and
// split+merge churn escalates it through explicit degradation levels —
// Normal -> Defensive -> Siege — and doubles it further under sustained
// arena pressure at Siege ("period doubling under pressure"), then
// de-escalates one level at a time with hysteresis once the signals stay
// calm. Level transitions are logged, recorded as always-kept span
// events, and exported as rap_admit_* metrics.
//
// Concurrency contract: per-shard Gates run under their shard's lock and
// never take another lock unconditionally (the controller mutex is only
// TryLock'd from the hot path). The controller never touches a gate's
// sketch — sketch maintenance happens gate-side, keyed off a level epoch
// counter — so there is no lock-order or data-race hazard between the
// ingest path and the watchdog.
package admit

import (
	"log/slog"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
)

// Level is a degradation level of the admission frontend.
type Level int32

const (
	// Normal: baseline admission. Cold points face the base coin period;
	// warm traffic is untouched.
	Normal Level = iota
	// Defensive: sustained churn or arena growth detected; the coin period
	// is raised so cold points must be markedly more persistent to create
	// structure.
	Defensive
	// Siege: the tree is under structural attack (or memory ceiling
	// pressure); the coin period is raised steeply and doubles further
	// while arena pressure persists.
	Siege
)

// String names the level for logs and traces.
func (l Level) String() string {
	switch l {
	case Normal:
		return "normal"
	case Defensive:
		return "defensive"
	case Siege:
		return "siege"
	default:
		return "invalid"
	}
}

// Options parameterize a Frontend. The zero value selects all defaults.
type Options struct {
	// BasePeriod is the geometric coin period at Normal: a cold point is
	// admitted with probability 1/BasePeriod. Rounded up to a power of two
	// and capped at MaxBasePeriod. Default 8.
	BasePeriod uint64

	// ArenaSoftBytes and ArenaHardBytes are the watchdog's memory
	// thresholds over the engine's total arena footprint: soft escalates
	// to Defensive, hard to Siege. Defaults 8 MiB and 32 MiB.
	ArenaSoftBytes int64
	ArenaHardBytes int64

	// Seed derives the per-gate coin RNG streams, so a run is
	// reproducible. Default a fixed published constant.
	Seed uint64

	// Logger, when set, receives level-transition logs.
	Logger *slog.Logger
	// Trace, when set, records level transitions and Siege period
	// doublings as always-kept span events (they must never be sampled
	// away); see recordLevel.
	Trace *span.Tracer
}

// MaxBasePeriod is the largest BasePeriod a Frontend runs with: its Siege
// period, BasePeriod<<siegeShift, is then 2^63 and still fits in 64 bits.
const MaxBasePeriod = 1 << (63 - siegeShift)

func (o Options) withDefaults() Options {
	if o.BasePeriod == 0 {
		o.BasePeriod = 8
	}
	o.BasePeriod = ceilPow2(min(o.BasePeriod, MaxBasePeriod))
	if o.ArenaSoftBytes == 0 {
		o.ArenaSoftBytes = 8 << 20
	}
	if o.ArenaHardBytes == 0 {
		o.ArenaHardBytes = 32 << 20
	}
	if o.Seed == 0 {
		o.Seed = 0x9e3779b97f4a7c15
	}
	return o
}

// The watchdog's clock, windows and hysteresis.
const (
	// maxPeriod caps period doubling under pressure at Siege. A Siege base
	// period BasePeriod<<siegeShift above it is the cap instead.
	maxPeriod = 8192
	// evalEvery is how many events a gate sees between watchdog
	// evaluations it triggers.
	evalEvery = 8192
	// windowOffered is the decision window: the controller judges churn
	// rate over at least this much offered weight.
	windowOffered = 16384
	// startupGraceN suppresses the churn signal (not the arena signal)
	// until this much weight has been offered: early-stream splitting is
	// the adaptive machinery finding the distribution, not an attack.
	startupGraceN = 1 << 17
	// coldGraceN arms the composition signals once this much weight has
	// been offered. It is much shorter than startupGraceN because warmth
	// is observable almost immediately — a benign stream's hot prefixes
	// collect coin wins within the first window — while benign churn
	// takes far longer to settle. One decision window.
	coldGraceN = 1 << 14
	// calmStreak is how many consecutive calm decision windows are needed
	// before de-escalating one level (hysteresis).
	calmStreak = 3
)

// debugEscalate, when non-nil (tests only), observes escalation decisions.
var debugEscalate func(from, to Level, arena int64, rate, coldFrac float64, offered uint64)

// debugWindow, when non-nil (tests only), observes every judged window.
var debugWindow func(offered, admDelta, churnDelta uint64, rate, coldFrac float64)

// Escalation multiplies the base period by 2^shift per level.
const (
	defensiveShift = 3 // Defensive period = BasePeriod * 8
	siegeShift     = 6 // Siege period = BasePeriod * 64 (before doubling)
)

// The admission sketch.
const (
	// warmBits sizes the admission sketch: one saturating byte per
	// warmBits-bit b-adic prefix of the universe (clamped to the universe
	// width), a 16 KiB sketch per shard.
	warmBits = 14
	// warmThreshold is the sketch count at which a prefix is considered
	// warm and its traffic bypasses the coin.
	warmThreshold = 4
	// decayEvery halves the sketch every decayEvery events seen by a gate,
	// so warmth earned long ago expires.
	decayEvery = 1 << 20
)

// The watchdog's thresholds.
const (
	// churnSoft and churnHard are the watchdog's churn thresholds in
	// split operations plus merge passes per 1000 ADMITTED weight (merge
	// passes, not folded nodes — batches fold many nodes at one instant
	// by design, which would spike a per-node signal on benign streams).
	// Admitted, not offered, keeps the signal control-invariant: refusing
	// more cold mass must not flatter the rate, or the watchdog settles
	// into a limit cycle (escalate, look calm because the denominator
	// includes the refused flood, de-escalate, flood again). Per admitted
	// weight the rate only falls when the stream itself turns benign.
	churnSoft = 25
	churnHard = 100
	// deescalateRatio scales the escalation thresholds down for the calm
	// test: to leave a level, signals must sit below ratio x the
	// thresholds that entered it.
	deescalateRatio = 0.5
	// coldCalmFrac is the de-escalation gate on stream composition: a
	// window only counts as calm if less than this fraction of its offered
	// weight was cold (missed the warm-prefix/leaf bypass). A persistent
	// never-repeating flood keeps the cold fraction near 1 regardless of
	// the admission period — churn and arena go quiet at Siege precisely
	// because the gate is refusing the flood, and de-escalating on those
	// signals alone just re-admits it (a limit cycle). Cold fraction is
	// the control-invariant attack signature. Benign phase shifts push it
	// up only until the new hot regions warm.
	coldCalmFrac = 0.5
	// coldSiegeFrac is the composition escalation threshold: a decision
	// window (past coldGraceN) whose cold fraction is at least this goes
	// straight to Siege without waiting for churn or arena damage — a
	// stream that is mostly never-seen-before mass after the sketch has
	// had time to warm is a cardinality attack by definition.
	coldSiegeFrac = 0.75
)

func ceilPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len64(x-1)
}

// Frontend is the shared controller of a set of per-shard admission
// Gates: it owns the degradation level, the current coin period, and the
// watchdog that moves between them. One Frontend wires to exactly one
// engine (one Gates call).
type Frontend struct {
	opts Options
	// periodCap is where Siege doubling stops: maxPeriod, or the Siege
	// base period when that is larger.
	periodCap uint64

	// level, period and levelEpoch are the control outputs the gates read
	// on their hot path; the controller is their only writer.
	level      atomic.Int32
	period     atomic.Uint64
	levelEpoch atomic.Uint64 // bumped on escalation: gates halve their sketch

	levelChanges atomic.Uint64
	levelMax     atomic.Int32

	// ctrlMu serializes watchdog evaluations. Gates only TryLock it (an
	// evaluation already in flight serves them too); Observe locks it
	// plainly, which is safe because external callers hold no shard lock.
	ctrlMu       sync.Mutex
	gates        []*Gate
	lastOffered  uint64
	lastAdmitted uint64
	lastCold     uint64
	lastChurn    uint64
	lastBatches  uint64
	// cooldown skips judgment for one window after a level transition:
	// the transition itself perturbs the signals (an escalation halves the
	// warm sketches, cratering the admitted rate), and judging that
	// transient re-escalates on self-inflicted noise.
	cooldown bool
	// churnWindows counts consecutive windows with an over-threshold
	// churn rate. Benign streams spike churn for one window around each
	// geometric merge pass (threshold-hovering nodes fold and immediately
	// re-split), so churn only escalates when sustained; arena and cold
	// fraction remain immediate.
	churnWindows int
	calmWindows  int
}

// New builds a Frontend from options. Mint its per-shard gates with Gates
// and install them on the engine; drive the watchdog's out-of-band signal
// with Observe.
func New(opts Options) *Frontend {
	f := &Frontend{opts: opts.withDefaults()}
	f.periodCap = max(maxPeriod, f.opts.BasePeriod<<siegeShift)
	f.period.Store(f.opts.BasePeriod)
	return f
}

// Options returns the normalized options the frontend runs with.
func (f *Frontend) Options() Options { return f.opts }

// Level returns the current degradation level.
func (f *Frontend) Level() Level { return Level(f.level.Load()) }

// Period returns the current coin period for cold points.
func (f *Frontend) Period() uint64 { return f.period.Load() }

// periodFor is the base period of a level, before pressure doubling.
func (f *Frontend) periodFor(l Level) uint64 {
	switch l {
	case Defensive:
		return f.opts.BasePeriod << defensiveShift
	case Siege:
		return f.opts.BasePeriod << siegeShift
	default:
		return f.opts.BasePeriod
	}
}

// Gates mints n per-shard admission gates for a tree universe of
// universeBits. Each gate implements core.Admitter; install gate i on
// shard i (or the single gate on a lone tree). A Frontend wires to exactly
// one engine: a second call returns nil.
func (f *Frontend) Gates(universeBits, n int) []*Gate {
	f.ctrlMu.Lock()
	defer f.ctrlMu.Unlock()
	if f.gates != nil || n <= 0 || universeBits <= 0 || universeBits > 64 {
		return nil
	}
	prefixBits := min(warmBits, universeBits)
	gates := make([]*Gate, n)
	for i := range gates {
		gates[i] = &Gate{
			f:            f,
			universeBits: universeBits,
			shift:        uint(universeBits - prefixBits),
			warm:         make([]uint8, 1<<prefixBits),
			rng:          newGateRNG(f.opts.Seed, uint64(i)),
		}
	}
	f.gates = gates
	return gates
}

// Observe feeds the watchdog an engine-wide stats snapshot taken outside
// any shard lock (e.g. from a periodic ticker). It exists because the
// gate-side signal only fires while events flow: after a flood stops,
// Observe is what lets the frontend notice the calm and de-escalate, and
// its arena reading is authoritative where a gate's is a per-shard sample
// from the last structural change.
func (f *Frontend) Observe(st core.Stats) {
	f.ctrlMu.Lock()
	defer f.ctrlMu.Unlock()
	var offered, admitted, cold uint64
	for _, g := range f.gates {
		offered += g.offered.Load()
		admitted += g.admitted.Load()
		cold += g.cold.Load()
	}
	f.evaluateLocked(int64(st.ArenaBytes), st.Splits+st.MergeBatches, st.MergeBatches, offered, admitted, cold, true)
}

// tryEvaluate is the gate-side watchdog trigger: sum the per-gate signals
// and evaluate, unless another evaluation is already in flight.
func (f *Frontend) tryEvaluate() {
	if !f.ctrlMu.TryLock() {
		return
	}
	defer f.ctrlMu.Unlock()
	var offered, admitted, cold, churn, batches uint64
	var arena int64
	for _, g := range f.gates {
		offered += g.offered.Load()
		admitted += g.admitted.Load()
		cold += g.cold.Load()
		churn += g.churn.Load()
		batches += g.batches.Load()
		arena += g.arenaBytes.Load()
	}
	f.evaluateLocked(arena, churn, batches, offered, admitted, cold, false)
}

// evaluateLocked is the degradation state machine. Escalation is
// immediate and jumps straight to the level the signals demand;
// de-escalation steps one level at a time and only after calmStreak
// consecutive windows below deescalateRatio x the entry thresholds
// (hysteresis, so a flood that pulses cannot make the frontend thrash).
// force causes a decision even before a full offered window has
// accumulated (the Observe path, so calm is noticed on an idle stream).
func (f *Frontend) evaluateLocked(arena int64, churnTotal, batchesTotal, offeredTotal, admittedTotal, coldTotal uint64, force bool) {
	// A snapshot restore can move the engine's cumulative counters
	// backward; clamp rather than let the unsigned deltas wrap.
	if churnTotal < f.lastChurn {
		f.lastChurn = churnTotal
	}
	if offeredTotal < f.lastOffered {
		f.lastOffered = offeredTotal
	}
	if admittedTotal < f.lastAdmitted {
		f.lastAdmitted = admittedTotal
	}
	if coldTotal < f.lastCold {
		f.lastCold = coldTotal
	}
	if batchesTotal < f.lastBatches {
		f.lastBatches = batchesTotal
	}
	offDelta := offeredTotal - f.lastOffered
	if !force && offDelta < windowOffered {
		return
	}
	churnDelta := churnTotal - f.lastChurn
	admDelta := admittedTotal - f.lastAdmitted
	coldDelta := coldTotal - f.lastCold
	batchesDelta := batchesTotal - f.lastBatches
	f.lastOffered, f.lastChurn = offeredTotal, churnTotal
	f.lastAdmitted, f.lastCold = admittedTotal, coldTotal
	f.lastBatches = batchesTotal

	// Churn per 1000 ADMITTED weight: structure only changes on credited
	// mass, so this measures how adversarial the mass getting through
	// still is — a rate that refusing more cold points cannot flatter.
	// (admDelta == 0 implies churnDelta == 0: no credit, no splits.)
	var rate float64
	if admDelta > 0 && offeredTotal >= startupGraceN {
		rate = float64(churnDelta) * 1000 / float64(admDelta)
	}

	if f.cooldown {
		// First full window after a transition: refresh the baselines
		// (done above), judge nothing.
		f.cooldown = false
		return
	}

	// Cold fraction of the window's offered weight — the composition
	// signal. Armed after the short coldGraceN, long before the churn
	// signal: benign hot prefixes warm within the first few windows, so a
	// window that is still mostly cold past that point is flood mass.
	var coldFrac float64
	if offDelta > 0 && offeredTotal >= coldGraceN {
		coldFrac = float64(coldDelta) / float64(offDelta)
	}

	churnTarget := Normal
	switch {
	case rate >= churnHard:
		churnTarget = Siege
	case rate >= churnSoft:
		churnTarget = Defensive
	}
	// A window containing a geometric merge pass is structurally noisy by
	// design: the pass folds threshold-hovering nodes that immediately
	// re-split, a transient the tree's own maintenance schedule inflicts
	// on perfectly benign streams. Such windows reset the streak; only
	// churn sustained across merge-free windows escalates.
	if batchesDelta > 0 {
		f.churnWindows = 0
	} else if churnTarget > Normal {
		f.churnWindows++
	} else {
		f.churnWindows = 0
	}
	if f.churnWindows < 3 {
		churnTarget = Normal
	}

	if debugWindow != nil {
		debugWindow(offeredTotal, admDelta, churnDelta, rate, coldFrac)
	}
	target := churnTarget
	switch {
	case arena >= f.opts.ArenaHardBytes || coldFrac >= coldSiegeFrac:
		target = Siege
	case arena >= f.opts.ArenaSoftBytes:
		if target < Defensive {
			target = Defensive
		}
	}

	cur := Level(f.level.Load())
	switch {
	case target > cur:
		if debugEscalate != nil {
			debugEscalate(cur, target, arena, rate, coldFrac, offeredTotal)
		}
		f.calmWindows = 0
		f.cooldown = true
		f.setLevelLocked(target, arena, rate, offeredTotal)
	case target < cur:
		var calm bool
		if cur == Siege {
			calm = arena < int64(deescalateRatio*float64(f.opts.ArenaHardBytes)) && rate < deescalateRatio*churnHard
		} else {
			calm = arena < int64(deescalateRatio*float64(f.opts.ArenaSoftBytes)) && rate < deescalateRatio*churnSoft
		}
		// Composition gate: quiet churn at a high level means the gate is
		// working, not that the attack stopped. Only a window whose offered
		// mass is mostly warm again is evidence the stream turned benign.
		if offDelta > 0 && float64(coldDelta) >= coldCalmFrac*float64(offDelta) {
			calm = false
		}
		if !calm {
			f.calmWindows = 0
			return
		}
		f.calmWindows++
		if f.calmWindows >= calmStreak {
			f.calmWindows = 0
			f.cooldown = true
			f.setLevelLocked(cur-1, arena, rate, offeredTotal)
		}
	default:
		f.calmWindows = 0
		// Period doubling under pressure: Siege's base period is not
		// containing arena growth, so make cold admission geometrically
		// rarer still.
		if cur == Siege && arena >= f.opts.ArenaHardBytes {
			if p := f.period.Load(); p < f.periodCap {
				f.period.Store(p << 1)
				f.recordLevel("admit.period_double", cur, arena, rate, offeredTotal)
			}
		}
	}
}

// setLevelLocked commits a level transition: period reset to the new
// level's base, escalations bump the sketch epoch (gates halve the warmth
// a flood may have accumulated), and the transition is logged, traced,
// and counted.
func (f *Frontend) setLevelLocked(to Level, arena int64, rate float64, offered uint64) {
	from := Level(f.level.Load())
	f.level.Store(int32(to))
	f.period.Store(f.periodFor(to))
	f.levelChanges.Add(1)
	if int32(to) > f.levelMax.Load() {
		f.levelMax.Store(int32(to))
	}
	if to > from {
		f.levelEpoch.Add(1)
	}
	if f.opts.Logger != nil {
		f.opts.Logger.Info("admission level transition",
			"from", from.String(), "to", to.String(),
			"period", f.period.Load(),
			"arena_bytes", arena, "churn_per_1k", rate, "offered", offered)
	}
	f.recordLevel("admit.level", to, arena, rate, offered)
}

// recordLevel records a watchdog decision as an always-kept span event
// carrying the state it was taken on.
func (f *Frontend) recordLevel(name string, level Level, arena int64, rate float64, offered uint64) {
	if f.opts.Trace == nil {
		return
	}
	f.opts.Trace.EventAlways(name,
		span.Attr{Key: "level", Value: level.String()},
		span.Attr{Key: "period", Value: strconv.FormatUint(f.period.Load(), 10)},
		span.Attr{Key: "arena_bytes", Value: strconv.FormatInt(arena, 10)},
		span.Attr{Key: "churn_per_1k", Value: strconv.FormatFloat(rate, 'g', -1, 64)},
		span.Attr{Key: "offered", Value: strconv.FormatUint(offered, 10)},
	)
}

// Stats is a point-in-time summary of the frontend.
type Stats struct {
	Offered      uint64 // weight seen by the gates
	Admitted     uint64 // weight passed through to the tree
	Unadmitted   uint64 // weight refused (the ledger's gate-side mirror)
	Level        Level
	Period       uint64
	LevelChanges uint64
	LevelMax     Level
}

// Stats sums the per-gate counters and samples the control state.
func (f *Frontend) Stats() Stats {
	f.ctrlMu.Lock()
	gates := f.gates
	f.ctrlMu.Unlock()
	st := Stats{
		Level:        Level(f.level.Load()),
		Period:       f.period.Load(),
		LevelChanges: f.levelChanges.Load(),
		LevelMax:     Level(f.levelMax.Load()),
	}
	for _, g := range gates {
		st.Offered += g.offered.Load()
		st.Admitted += g.admitted.Load()
		st.Unadmitted += g.unadmitted.Load()
	}
	return st
}

// WatchdogState is a point-in-time capture of the watchdog's full
// control state — the levers and the hysteresis bookkeeping behind them —
// in the JSON shape diagnostic bundles embed. Stats covers the metrics a
// dashboard wants; this is what a postmortem wants: why the controller
// was (or wasn't) about to move.
type WatchdogState struct {
	Level        string `json:"level"`
	Period       uint64 `json:"period"`
	LevelMax     string `json:"level_max"`
	LevelChanges uint64 `json:"level_changes"`
	LevelEpoch   uint64 `json:"level_epoch"`
	Offered      uint64 `json:"offered"`
	Admitted     uint64 `json:"admitted"`
	Unadmitted   uint64 `json:"unadmitted"`
	Cold         uint64 `json:"cold"`
	ArenaBytes   int64  `json:"arena_bytes"`
	Gates        int    `json:"gates"`
	CalmWindows  int    `json:"calm_windows"`
	ChurnWindows int    `json:"churn_windows"`
	Cooldown     bool   `json:"cooldown"`
}

// WatchdogState samples the controller under its lock.
func (f *Frontend) WatchdogState() WatchdogState {
	f.ctrlMu.Lock()
	defer f.ctrlMu.Unlock()
	st := WatchdogState{
		Level:        Level(f.level.Load()).String(),
		Period:       f.period.Load(),
		LevelMax:     Level(f.levelMax.Load()).String(),
		LevelChanges: f.levelChanges.Load(),
		LevelEpoch:   f.levelEpoch.Load(),
		Gates:        len(f.gates),
		CalmWindows:  f.calmWindows,
		ChurnWindows: f.churnWindows,
		Cooldown:     f.cooldown,
	}
	for _, g := range f.gates {
		st.Offered += g.offered.Load()
		st.Admitted += g.admitted.Load()
		st.Unadmitted += g.unadmitted.Load()
		st.Cold += g.cold.Load()
		st.ArenaBytes += g.arenaBytes.Load()
	}
	return st
}

// Register exports the frontend's state as rap_admit_* metrics.
func (f *Frontend) Register(reg *obs.Registry) {
	reg.CounterFunc("rap_admit_offered_total",
		"Event weight seen by the admission gates.",
		func() float64 { return float64(f.Stats().Offered) })
	reg.CounterFunc("rap_admit_admitted_total",
		"Event weight admitted to the tree.",
		func() float64 { return float64(f.Stats().Admitted) })
	reg.CounterFunc("rap_admit_unadmitted_total",
		"Event weight refused by the admission gates.",
		func() float64 { return float64(f.Stats().Unadmitted) })
	reg.GaugeFunc("rap_admit_level",
		"Current degradation level (0 normal, 1 defensive, 2 siege).",
		func() float64 { return float64(f.level.Load()) })
	reg.GaugeFunc("rap_admit_level_max",
		"Highest degradation level reached since start.",
		func() float64 { return float64(f.levelMax.Load()) })
	reg.GaugeFunc("rap_admit_period",
		"Current geometric coin period for cold points.",
		func() float64 { return float64(f.period.Load()) })
	reg.CounterFunc("rap_admit_level_changes_total",
		"Degradation level transitions since start.",
		func() float64 { return float64(f.levelChanges.Load()) })
}
