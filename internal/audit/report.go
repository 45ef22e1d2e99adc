package audit

import (
	"math"
	"strconv"

	"rap/internal/core"
	"rap/internal/exact"
	"rap/internal/obs"
	"rap/internal/span"
)

// Audit metric names.
const (
	MetricAuditRanges      = "rap_audit_ranges"
	MetricAuditChecks      = "rap_audit_checks_total"
	MetricAuditViolations  = "rap_audit_violations_total"
	MetricAuditRebases     = "rap_audit_rebases_total"
	MetricAuditPasses      = "rap_audit_passes_total"
	MetricAuditMaxUnder    = "rap_audit_max_underestimate"
	MetricAuditWorstRatio  = "rap_audit_worst_ratio"
	MetricAuditCoverage    = "rap_audit_coverage"
	MetricAuditBoundRatio  = "rap_audit_bound_ratio"
	MetricAuditTapMass     = "rap_audit_tap_mass"
	MetricAuditTruthValues = "rap_audit_truth_values"
)

// Span event names emitted by the audit.
const (
	SpanViolation = "audit.violation"
	SpanNearBound = "audit.near_bound"
)

// RatioBuckets is the ladder for the underestimate/(ε·n) ratio histogram:
// ~0.001 up to 2. A healthy profiler keeps all mass at the very bottom;
// anything at or beyond 1 is a contract violation.
func RatioBuckets() []float64 { return obs.ExpBuckets(1.0/1024, 2, 12) }

// RangeReport is one audited range of a Report: the shadow truth beside
// the tree's answers and the verdict of the three soundness checks.
type RangeReport struct {
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
	Kind string `json:"kind"` // "universe" | "sampled"
	// Truth is the exact tapped mass in [Lo, Hi]; Slack bounds the mass
	// that predates this range's adoption: Truth ≤ true ≤ Truth+Slack.
	Truth uint64 `json:"truth"`
	Slack uint64 `json:"slack"`
	// Estimate and High are the tree's EstimateBounds under the cut.
	Estimate uint64 `json:"estimate"`
	High     uint64 `json:"high"`
	// Underestimate is max(0, Truth−Estimate), a lower bound on the true
	// underestimate; Ratio is Underestimate/(ε·n), which the contract
	// keeps strictly below 1.
	Underestimate uint64  `json:"underestimate"`
	Ratio         float64 `json:"ratio"`
	Violation     bool    `json:"violation"`
	Reason        string  `json:"reason,omitempty"`
}

// Report is one audit pass over every audited range, plus running totals.
// Zero violations is the expected steady state; any violation means the
// engine broke the paper's accuracy contract (or its implementation).
type Report struct {
	N uint64 `json:"n"` // mass credited to the tree at the cut
	// UnadmittedN is the weight the admission gate refused: observed by
	// the taps (so part of truth) but never credited to any node. Zero
	// when no admission frontend is wired.
	UnadmittedN uint64  `json:"unadmitted_n"`
	TapN        uint64  `json:"tap_n"`    // mass observed by the taps
	BaseN       uint64  `json:"base_n"`   // pre-attach (or pre-rebase) mass
	Coverage    float64 `json:"coverage"` // fraction of offered mass inside audited ranges
	Epsilon     float64 `json:"epsilon"`
	EpsN        float64 `json:"eps_n"` // the paper's worst-case underestimate, ε·n
	// Budget is the certified underestimate bound the violation check
	// enforces: ε·n + shards·H·(MinSplitCount + max tapped weight) +
	// unadmitted. Refused weight was never credited anywhere, so all of it
	// may be missing from any range's estimate — the admission-adjusted
	// budget charges it in full, which is exactly what lets the audit keep
	// certifying while the frontend degrades under attack. It converges to
	// EpsN where the paper's claim applies (weight-1 streams, no admission
	// pressure, n large against the cold-start guard).
	Budget float64 `json:"budget"`

	Ranges           []RangeReport `json:"ranges"`
	MaxUnderestimate uint64        `json:"max_underestimate"`
	WorstRatio       float64       `json:"worst_ratio"`
	PassViolations   int           `json:"pass_violations"`
	TruthValues      int           `json:"truth_values"` // distinct values in the shadow profilers

	ChecksTotal     uint64 `json:"checks_total"`
	ViolationsTotal uint64 `json:"violations_total"`
	RebasesTotal    uint64 `json:"rebases_total"`
	Passes          uint64 `json:"passes"`

	// Verdict: "ok" (all checks passed), "violated" (at least one check
	// failed this pass), or "rebased" (the tree was replaced or merged
	// out from under the taps; truth was rebased instead of checked).
	Verdict string `json:"verdict"`
}

// Register wires the auditor's metrics into reg and its violation and
// near-bound events into tr, as always-kept span events (either may be
// nil to skip that sink). Call once, before audit traffic. Gauge families
// read from the last completed pass; counters accumulate across passes.
func (a *Auditor) Register(reg *obs.Registry, tr *span.Tracer) {
	a.tracer = tr
	if reg == nil {
		return
	}
	a.mChecks = reg.Counter(MetricAuditChecks,
		"Audited range checks performed.")
	a.mViolations = reg.Counter(MetricAuditViolations,
		"Accuracy contract violations detected; must stay 0 for a correct engine.")
	a.mRebases = reg.Counter(MetricAuditRebases,
		"Audit truth rebases (tree restored, adopted, or merged under the taps).")
	a.mPasses = reg.Counter(MetricAuditPasses,
		"Completed audit passes.")
	a.mRatio = reg.Histogram(MetricAuditBoundRatio,
		"Per-range underestimate/(eps*n) ratio; >= 1 violates the contract.",
		RatioBuckets())
	reg.GaugeFunc(MetricAuditRanges,
		"Audited ranges at the last pass (universe row included).",
		func() float64 {
			if r := a.last.Load(); r != nil {
				return float64(len(r.Ranges))
			}
			return 0
		})
	reg.GaugeFunc(MetricAuditMaxUnder,
		"Largest observed underestimate at the last pass, in events.",
		func() float64 {
			if r := a.last.Load(); r != nil {
				return float64(r.MaxUnderestimate)
			}
			return 0
		})
	reg.GaugeFunc(MetricAuditWorstRatio,
		"Worst underestimate/(eps*n) ratio at the last pass.",
		func() float64 {
			if r := a.last.Load(); r != nil {
				return r.WorstRatio
			}
			return 0
		})
	reg.GaugeFunc(MetricAuditCoverage,
		"Fraction of stream mass inside audited ranges at the last pass.",
		func() float64 {
			if r := a.last.Load(); r != nil {
				return r.Coverage
			}
			return 0
		})
	reg.GaugeFunc(MetricAuditTapMass,
		"Stream mass observed by the audit taps since attach/rebase.",
		func() float64 {
			var n uint64
			for _, t := range a.taps {
				n += t.n.Load()
			}
			return float64(n)
		})
	reg.GaugeFunc(MetricAuditTruthValues,
		"Distinct values held by the exact shadow profilers at the last pass (memory proxy).",
		func() float64 {
			if r := a.last.Load(); r != nil {
				return float64(r.TruthValues)
			}
			return 0
		})
}

// Report returns the report of the last completed Audit pass, or ok=false
// if none has run yet.
func (a *Auditor) Report() (Report, bool) {
	if r := a.last.Load(); r != nil {
		return *r, true
	}
	return Report{}, false
}

// mergedCutter is the cut primitive optionally implemented by the
// estimator: it runs the capture callback while every engine lock is
// held, handing it the tree the checks will query.
type mergedCutter interface {
	MergedTreeCut(capture func(m *core.Tree)) *core.Tree
}

// Audit runs one pass: capture truth under a consistent cut, compare the
// tree's answers for every audited range against it, update metrics and
// the span tracer, and publish the Report. Passes are serialized; drive it
// from a ticker (internal/ingest), an admin endpoint (rapd /audit), or
// directly from tests. It must not be called from inside a tap.
func (a *Auditor) Audit() (Report, error) {
	if a.est == nil {
		return Report{}, ErrNotAttached
	}
	a.auditMu.Lock()
	defer a.auditMu.Unlock()

	var rep Report
	rebased := false
	capture := func(m *core.Tree) {
		a.adoptMu.Lock()
		defer a.adoptMu.Unlock()
		var n, unadm uint64
		if m != nil {
			// A merged cut tree carries the summed unadmitted ledger of the
			// trees it was cut from (Merge adds it), so both reads describe
			// one instant.
			n = m.N()
			unadm = m.UnadmittedN()
		} else {
			n = a.est.N()
			unadm = unadmittedOf(a.est)
		}
		rep.N = n
		rep.UnadmittedN = unadm
		offered := satAdd(n, unadm)
		var tapN uint64
		for _, t := range a.taps {
			tapN += t.n.Load()
		}
		// Mass the taps never saw plus mass they did must equal the tree's
		// credited mass plus the admission gate's refused mass exactly;
		// anything else means the tree was swapped or merged out from
		// under the audit (Restore, AdoptShard, Merge) — rebase rather
		// than compare truth against a different stream. This is also the
		// check that catches a broken admission counter: weight that the
		// gate refused but failed to ledger (or vice versa) breaks the
		// equality permanently.
		if a.resetPending.Load() || a.baseN+tapN != offered {
			a.rebaseLocked(offered)
			rebased = true
			return
		}
		rep.TapN = tapN
		rep.BaseN = a.baseN
		var maxW uint64
		for _, t := range a.taps {
			if t.maxW > maxW {
				maxW = t.maxW
			}
		}
		// The admission-adjusted certified budget: every refused event is
		// missing from exactly the ranges it would have landed in, so the
		// whole ledger is charged on top of the structural bound.
		rep.Budget = a.cfg.Epsilon*float64(n) +
			float64(len(a.taps))*float64(a.cfg.Height())*float64(a.cfg.MinSplitCount+maxW) +
			float64(unadm)
		var covered uint64
		for _, t := range a.taps {
			covered += t.truth.N()
			rep.TruthValues += t.truth.Distinct()
		}
		if offered > 0 {
			rep.Coverage = float64(covered) / float64(offered)
		}
		rs := a.ranges.Load()
		rep.Ranges = make([]RangeReport, 0, len(rs.ranges)+1)
		// The universe row's truth is exact by the equality just checked:
		// every offered event is in the universe, so truth = baseN + tapN
		// = n + unadmitted.
		rep.Ranges = append(rep.Ranges, RangeReport{
			Lo: 0, Hi: a.mask, Kind: "universe", Truth: offered,
		})
		for _, r := range rs.ranges {
			var truth uint64
			for _, t := range a.taps {
				truth += t.truth.RangeCount(r.lo, r.hi)
			}
			rep.Ranges = append(rep.Ranges, RangeReport{
				Lo: r.lo, Hi: r.hi, Kind: "sampled", Truth: truth, Slack: r.slack,
			})
		}
	}

	// Capture under the strongest cut the estimator offers. The cut tree
	// (when there is one) is private to this pass, so the checks below run
	// with no engine lock held.
	var cutTree *core.Tree
	if e, ok := a.est.(mergedCutter); ok {
		cutTree = e.MergedTreeCut(capture)
	} else {
		capture(nil)
	}

	if rebased {
		a.rebases++
		if a.mRebases != nil {
			a.mRebases.Inc()
		}
		a.passes++
		if a.mPasses != nil {
			a.mPasses.Inc()
		}
		rep.Verdict = "rebased"
		a.fillTotals(&rep)
		a.last.Store(&rep)
		return rep, nil
	}

	rep.Epsilon = a.cfg.Epsilon
	rep.EpsN = a.cfg.Epsilon * float64(rep.N)
	for i := range rep.Ranges {
		r := &rep.Ranges[i]
		if cutTree != nil {
			r.Estimate, r.High = cutTree.EstimateBounds(r.Lo, r.Hi)
		} else {
			r.Estimate, r.High = a.est.EstimateBounds(r.Lo, r.Hi)
		}
		a.check(r, rep.N, rep.EpsN, rep.Budget)
		a.checks++
		if a.mChecks != nil {
			a.mChecks.Inc()
		}
		if a.mRatio != nil {
			a.mRatio.Observe(r.Ratio)
		}
		if r.Violation {
			rep.PassViolations++
			a.violations++
			if a.mViolations != nil {
				a.mViolations.Inc()
			}
		}
		if r.Underestimate > rep.MaxUnderestimate {
			rep.MaxUnderestimate = r.Underestimate
		}
		if r.Ratio > rep.WorstRatio {
			rep.WorstRatio = r.Ratio
		}
	}
	rep.Verdict = "ok"
	if rep.PassViolations > 0 {
		rep.Verdict = "violated"
	}
	a.passes++
	if a.mPasses != nil {
		a.mPasses.Inc()
	}
	a.fillTotals(&rep)
	a.last.Store(&rep)
	return rep, nil
}

// check applies the three soundness checks to one range row (see the
// package comment for why each can only fire on a genuine contract
// break) and records violation / near-bound events on the span tracer.
// The ratio reported (and near-bound gated) is against the paper's ε·n;
// the violation itself is against the certified budget.
func (a *Auditor) check(r *RangeReport, n uint64, epsN, budget float64) {
	if r.Truth > r.Estimate {
		r.Underestimate = r.Truth - r.Estimate
	}
	if epsN > 0 {
		r.Ratio = float64(r.Underestimate) / epsN
	}
	switch {
	case r.Truth > r.High:
		r.Violation = true
		r.Reason = "exact truth exceeds upper bound"
	case r.Estimate > satAdd(r.Truth, r.Slack):
		r.Violation = true
		r.Reason = "estimate exceeds any possible true count"
	case float64(r.Underestimate) > budget:
		r.Violation = true
		r.Reason = "underestimate exceeds certified budget"
	}
	if a.tracer == nil || (!r.Violation && r.Ratio < DefaultNearRatio) {
		return
	}
	attrs := []span.Attr{
		{Key: "lo", Value: strconv.FormatUint(r.Lo, 10)},
		{Key: "hi", Value: strconv.FormatUint(r.Hi, 10)},
		{Key: "truth", Value: strconv.FormatUint(r.Truth, 10)},
		{Key: "estimate", Value: strconv.FormatUint(r.Estimate, 10)},
		{Key: "high", Value: strconv.FormatUint(r.High, 10)},
		{Key: "eps_n", Value: strconv.FormatFloat(epsN, 'g', -1, 64)},
		{Key: "n", Value: strconv.FormatUint(n, 10)},
	}
	if !r.Violation {
		a.tracer.EventAlways(SpanNearBound, attrs...)
		return
	}
	a.tracer.EventAlways(SpanViolation, append(attrs, span.Attr{Key: "reason", Value: r.Reason})...)
}

func (a *Auditor) fillTotals(rep *Report) {
	rep.ChecksTotal = a.checks
	rep.ViolationsTotal = a.violations
	rep.RebasesTotal = a.rebases
	rep.Passes = a.passes
}

// rebaseLocked restarts the audit epoch at stream mass n: all truth and
// every sampled range is dropped, and mass up to n becomes pre-audit
// (baseN). Called with adoptMu held, under the cut, so no tap can be
// mid-flight on a cut-capable engine.
func (a *Auditor) rebaseLocked(n uint64) {
	a.baseN = n
	for _, t := range a.taps {
		t.n.Store(0)
		t.truth = exact.New()
		t.maxW = 0
	}
	a.ranges.Store(&rangeSet{})
	a.full.Store(false)
	a.resetPending.Store(false)
}

// satAdd is a+b saturating at the top of uint64.
func satAdd(x, y uint64) uint64 {
	if s := x + y; s >= x {
		return s
	}
	return math.MaxUint64
}
