package flight

import "time"

// BuiltinConfig parameterises the stock rule set.
type BuiltinConfig struct {
	// CheckpointEvery is the configured checkpoint cadence; the staleness
	// rule warns at 3× and goes critical at 10×. Zero disables the rule.
	CheckpointEvery time.Duration
	// DropNewest is set when ingest sheds events at a full queue (rapd
	// -drop newest). Only then does the queue_saturation rule fire, at
	// 0.8 and 0.95 fill: a full queue is the step before counted drops.
	// Under Block a full queue is lossless backpressure and the normal
	// state of a replay, so the rule stays listed but never leaves ok.
	DropNewest bool
}

// BuiltinRules returns the stock alert rules over the engine's own
// signals: certified-accuracy violations, admission escalation,
// checkpoint staleness, queue saturation under DropNewest, arena growth,
// and stage p99 latency. The audit rule latches at crit by construction —
// the violation counter is monotone, so once the certificate is broken
// the alert stays lit for the life of the process, matching the audit's
// own till-death verdict semantics.
func BuiltinRules(cfg BuiltinConfig) []Rule {
	// Zero levels disable the queue rule under Block.
	var queueWarn, queueCrit float64
	if cfg.DropNewest {
		queueWarn, queueCrit = 0.8, 0.95
	}
	rules := []Rule{
		{
			Name:   "audit_violations",
			Help:   "The online audit certified an estimate outside the paper's error budget.",
			Kind:   Threshold,
			Series: "rap_audit_violations_total",
			Agg:    AggSum,
			// Any violation at all is critical: the counter is monotone,
			// 0.5 separates zero from one-or-more.
			Warn: 0.5,
			Crit: 0.5,
		},
		{
			Name:   "admission_level",
			Help:   "Admission control escalated: warn at Defensive, crit at Siege.",
			Kind:   Threshold,
			Series: "rap_admit_level",
			Agg:    AggMax,
			Warn:   0.5,
			Crit:   1.5,
			// The watchdog has its own hysteresis and cooldown; mirror it
			// promptly rather than stacking a second damper on top.
			ClearRatio: 1,
		},
		{
			Name:   "queue_saturation",
			Help:   "Ingest queue fill fraction; fires only when a full queue sheds events (-drop newest).",
			Kind:   Ratio,
			Series: "rap_ingest_queue_depth",
			Denom:  "rap_ingest_queue_capacity",
			Agg:    AggMax,
			Warn:   queueWarn,
			Crit:   queueCrit,
		},
		{
			Name:       "arena_growth",
			Help:       "Sustained tree arena growth in bytes/s.",
			Kind:       Rate,
			Series:     "rap_tree_arena_bytes",
			Agg:        AggSum,
			Warn:       8 << 20,
			Crit:       64 << 20,
			RateWindow: 30 * time.Second,
		},
		{
			Name:   "profile_p99",
			Help:   "Adaptive-profile p99 latency of the slowest pipeline stage, seconds.",
			Kind:   Threshold,
			Series: "rap_profile_p99_seconds",
			Agg:    AggMax,
			// The top of the profile universe is ~1.07s, so crit means a
			// stage pegged the scale.
			Warn: 0.25,
			Crit: 1,
		},
	}
	if cfg.CheckpointEvery > 0 {
		rules = append(rules, Rule{
			Name:   "checkpoint_staleness",
			Help:   "Seconds since the last durable checkpoint.",
			Kind:   Threshold,
			Series: "rap_checkpoint_staleness_seconds",
			Agg:    AggMax,
			Warn:   3 * cfg.CheckpointEvery.Seconds(),
			Crit:   10 * cfg.CheckpointEvery.Seconds(),
		})
	}
	return rules
}
