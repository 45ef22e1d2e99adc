package experiments

import (
	"fmt"
	"io"

	"rap/internal/admit"
	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/trace"
	"rap/internal/workload"
)

// AdversarialRun is one profiling run under the key-flood attack stream,
// with or without the randomized admission frontend in front of the tree.
type AdversarialRun struct {
	Admission bool `json:"admission"`

	N           uint64 `json:"n"`            // weight credited to the tree
	UnadmittedN uint64 `json:"unadmitted_n"` // weight refused by the gate

	Splits         uint64 `json:"splits"`
	Merges         uint64 `json:"merges"`
	Churn          uint64 `json:"churn"` // Splits + Merges: structural work done
	PeakArenaBytes uint64 `json:"peak_arena_bytes"`
	FinalNodes     int    `json:"final_nodes"`

	// Audit outcome over the same offered stream: the certified bound must
	// hold whether or not admission refused part of it.
	AuditRanges     int    `json:"audit_ranges"`
	ViolationsTotal uint64 `json:"violations_total"`

	// Admission-run only: where the watchdog ended up.
	FinalLevel   string `json:"final_level,omitempty"`
	LevelMax     string `json:"level_max,omitempty"`
	LevelChanges uint64 `json:"level_changes,omitempty"`
	FinalPeriod  uint64 `json:"final_period,omitempty"`
}

// AdversarialResult is the before/after comparison the hardening is
// judged by: the same deterministic flood-mix stream profiled twice, and
// the structural-work and memory ratios between the undefended and the
// defended run.
type AdversarialResult struct {
	Events    uint64  `json:"events"`
	FloodFrac float64 `json:"flood_frac"`

	Off AdversarialRun `json:"off"`
	On  AdversarialRun `json:"on"`

	ChurnReduction float64 `json:"churn_reduction"` // Off.Churn / On.Churn
	ArenaReduction float64 `json:"arena_reduction"` // Off.Peak / On.Peak
}

// adversarialStream builds the attack stream: a deterministic
// never-repeating key flood carrying adversarialFloodFrac of the events,
// mixed over gzip's modeled load-value stream as the benign carrier. The
// flood share is high enough that the undefended run's structural work is
// attack-dominated — the defended run's churn should sit near the benign
// carrier's own floor, so the ratio measures how much attack work the
// gate refuses.
const adversarialFloodFrac = 0.98

func adversarialStream(o Options) (trace.Source, error) {
	b, err := workload.ByName("gzip")
	if err != nil {
		return nil, err
	}
	carrier := b.Values(o.Seed, o.Events)
	return workload.FloodMix(o.Seed, adversarialFloodFrac, carrier), nil
}

// adversarialOnce profiles o.Events from the flood mix into a fresh
// audited tree, optionally behind an admission gate, and collects the
// run's structural-work, memory, ledger, and audit outcomes.
func adversarialOnce(o Options, admission bool) (AdversarialRun, error) {
	run := AdversarialRun{Admission: admission}
	cfg := valueConfig(0.01)
	t, err := core.New(cfg)
	if err != nil {
		return run, err
	}

	var fe *admit.Frontend
	if admission {
		fe = admit.New(admit.Options{Seed: o.Seed})
		t.SetAdmitter(fe.Gates(cfg.UniverseBits, 1)[0])
	}

	aud := audit.New(audit.Options{Seed: o.Seed})
	taps, err := aud.Attach(cfg, t, 1)
	if err != nil {
		return run, err
	}
	t.SetTap(taps[0])

	src, err := adversarialStream(o)
	if err != nil {
		return run, err
	}

	var peakArena int
	for fed := uint64(0); fed < o.Events; fed++ {
		e, ok := src.Next()
		if !ok {
			break
		}
		t.AddN(e.Value, e.Weight)
		// Peak arena is what an operator provisions for; sample it often
		// enough to catch the between-merge-batch high-water mark.
		if fed&4095 == 0 {
			if ab := t.ArenaBytes(); ab > peakArena {
				peakArena = ab
			}
		}
		// Mid-stream audit passes exercise the certified bound while the
		// structure is still churning, not just at the settled end.
		if fed > 0 && fed%(o.Events/4+1) == 0 {
			if _, err := aud.Audit(); err != nil {
				return run, err
			}
		}
	}
	if fe != nil {
		fe.Observe(t.Stats()) // final watchdog evaluation over the settled tree
	}
	rep, err := aud.Audit()
	if err != nil {
		return run, err
	}

	st := t.Stats()
	if ab := t.ArenaBytes(); ab > peakArena {
		peakArena = ab
	}
	run.N = st.N
	run.UnadmittedN = st.UnadmittedN
	run.Splits = st.Splits
	run.Merges = st.Merges
	run.Churn = st.Splits + st.Merges
	run.PeakArenaBytes = uint64(peakArena)
	run.FinalNodes = st.Nodes
	run.AuditRanges = len(rep.Ranges)
	run.ViolationsTotal = rep.ViolationsTotal
	if fe != nil {
		fs := fe.Stats()
		run.FinalLevel = fs.Level.String()
		run.LevelMax = fs.LevelMax.String()
		run.LevelChanges = fs.LevelChanges
		run.FinalPeriod = fs.Period
	}
	return run, nil
}

// Adversarial runs the adversarial-cardinality hardening experiment: the
// same deterministic key-flood mix profiled without and with the
// randomized admission frontend, comparing structural churn (split+merge
// operations — the attack's amplification target) and peak arena
// footprint, and checking that the audit certifies both runs.
func Adversarial(o Options) (AdversarialResult, error) {
	r := AdversarialResult{Events: o.Events, FloodFrac: adversarialFloodFrac}
	var err error
	if r.Off, err = adversarialOnce(o, false); err != nil {
		return r, err
	}
	if r.On, err = adversarialOnce(o, true); err != nil {
		return r, err
	}
	if r.On.Churn > 0 {
		r.ChurnReduction = float64(r.Off.Churn) / float64(r.On.Churn)
	}
	if r.On.PeakArenaBytes > 0 {
		r.ArenaReduction = float64(r.Off.PeakArenaBytes) / float64(r.On.PeakArenaBytes)
	}
	return r, nil
}

// Print renders the before/after table.
func (r AdversarialResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== Adversarial key flood (%.0f%% flood over gzip values, %d events) ==\n",
		r.FloodFrac*100, r.Events)
	fmt.Fprintf(w, "  %-12s %12s %12s %10s %10s %10s %12s %10s\n",
		"admission", "credited", "refused", "splits", "merges", "churn", "peak-arena", "violations")
	for _, run := range []AdversarialRun{r.Off, r.On} {
		name := "off"
		if run.Admission {
			name = "on"
		}
		fmt.Fprintf(w, "  %-12s %12d %12d %10d %10d %10d %12d %10d\n",
			name, run.N, run.UnadmittedN, run.Splits, run.Merges, run.Churn,
			run.PeakArenaBytes, run.ViolationsTotal)
	}
	fmt.Fprintf(w, "  churn reduction %.1fx, peak-arena reduction %.1fx\n",
		r.ChurnReduction, r.ArenaReduction)
	if r.On.FinalLevel != "" {
		fmt.Fprintf(w, "  watchdog: level max %s, final %s (period %d, %d transitions)\n",
			r.On.LevelMax, r.On.FinalLevel, r.On.FinalPeriod, r.On.LevelChanges)
	}
}
