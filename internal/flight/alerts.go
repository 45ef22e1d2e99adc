package flight

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rap/internal/obs"
)

// State is an alert's severity: the classic ok → warn → crit ladder.
type State int

const (
	StateOK State = iota
	StateWarn
	StateCrit
)

func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StateCrit:
		return "crit"
	default:
		return "ok"
	}
}

// RuleKind selects what an alert rule evaluates.
type RuleKind int

const (
	// Threshold compares the current value of the selected series.
	Threshold RuleKind = iota
	// Rate compares the per-second derivative over RateWindow.
	Rate
	// Ratio compares Series/Denom, matched per label set.
	Ratio
)

func (k RuleKind) String() string {
	switch k {
	case Rate:
		return "rate"
	case Ratio:
		return "ratio"
	default:
		return "threshold"
	}
}

// Agg folds multiple matching series (e.g. per-shard labels) into the one
// value the thresholds compare against.
type Agg int

const (
	AggMax Agg = iota
	AggSum
)

// Rule is one alert rule. Series (and Denom, for ratios) select recorded
// series the way /vars does: by full key or by family name across all
// label sets. A level fires when the value rises to its threshold; a zero
// Warn or Crit disables that level. ClearRatio sets the hysteresis band:
// once fired at a level, the alert only clears when the value falls below
// threshold×ClearRatio, so a value dithering on the line does not flap.
// Transitions commit on the scrape that calls for them.
type Rule struct {
	Name       string
	Help       string
	Kind       RuleKind
	Series     string
	Denom      string
	Agg        Agg
	Warn       float64
	Crit       float64
	RateWindow time.Duration
	ClearRatio float64
}

// MarshalJSON renders the rule for /alerts and bundles. Disabled levels
// normalise to +Inf, which encoding/json rejects — jsonValue strings
// them instead.
func (ru Rule) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name       string    `json:"name"`
		Help       string    `json:"help,omitempty"`
		Kind       string    `json:"kind"`
		Series     string    `json:"series"`
		Denom      string    `json:"denom,omitempty"`
		Warn       jsonValue `json:"warn"`
		Crit       jsonValue `json:"crit"`
		RateWindow string    `json:"rate_window,omitempty"`
	}{
		ru.Name, ru.Help, ru.Kind.String(), ru.Series, ru.Denom,
		jsonValue(ru.Warn), jsonValue(ru.Crit), durString(ru.RateWindow),
	})
}

func durString(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return d.String()
}

// UnmarshalJSON parses the wire shape MarshalJSON emits, so rapdiag can
// decode alerts.json from a bundle.
func (ru *Rule) UnmarshalJSON(b []byte) error {
	var w struct {
		Name       string    `json:"name"`
		Help       string    `json:"help"`
		Kind       string    `json:"kind"`
		Series     string    `json:"series"`
		Denom      string    `json:"denom"`
		Warn       jsonValue `json:"warn"`
		Crit       jsonValue `json:"crit"`
		RateWindow string    `json:"rate_window"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*ru = Rule{
		Name: w.Name, Help: w.Help, Series: w.Series, Denom: w.Denom,
		Warn: float64(w.Warn), Crit: float64(w.Crit),
	}
	switch w.Kind {
	case "rate":
		ru.Kind = Rate
	case "ratio":
		ru.Kind = Ratio
	}
	if w.RateWindow != "" {
		ru.RateWindow, _ = time.ParseDuration(w.RateWindow)
	}
	return nil
}

func (ru Rule) withDefaults() Rule {
	if ru.ClearRatio <= 0 || ru.ClearRatio > 1 {
		ru.ClearRatio = 0.9
	}
	if ru.RateWindow <= 0 {
		ru.RateWindow = 30 * time.Second
	}
	if ru.Warn == 0 {
		ru.Warn = math.Inf(1)
	}
	if ru.Crit == 0 {
		ru.Crit = math.Inf(1)
	}
	return ru
}

// alert is one rule's runtime. state, transitions, value, and since are
// atomics so the registry's Func instruments can export them without
// taking the engine lock (Func instruments run under the registry lock,
// and the engine evaluates right after a scrape — atomics sever any
// ordering between the two).
type alert struct {
	rule        Rule
	state       atomic.Int64
	transitions atomic.Uint64
	sinceNano   atomic.Int64
	valueBits   atomic.Uint64

	reason string // guarded by the engine lock
}

// AlertStatus is one alert's externally visible state, the /alerts and
// bundle document row.
type AlertStatus struct {
	Rule        Rule      `json:"rule"`
	State       string    `json:"state"`
	Value       jsonValue `json:"value"`
	Since       time.Time `json:"since"`
	Transitions uint64    `json:"transitions"`
	Reason      string    `json:"reason,omitempty"`
}

// Engine evaluates alert rules against every recorder frame. Build it
// with NewEngine, add rules, then call Register to export
// rap_alert_state and rap_alert_transitions_total.
type Engine struct {
	rec *Recorder

	mu     sync.Mutex
	alerts []*alert

	// firing counts the alerts not ok. step moves it, under mu, whenever
	// it stores a state on either side of ok, so AnyFiring is one load.
	firing atomic.Int64
}

// NewEngine builds an engine over rec and subscribes it to rec's
// scrapes; every Scrape evaluates every rule once.
func NewEngine(rec *Recorder, rules ...Rule) *Engine {
	e := &Engine{rec: rec}
	for _, ru := range rules {
		e.Add(ru)
	}
	rec.Subscribe(e.Eval)
	return e
}

// Add installs one rule. Add before Register so the rule's series are
// exported.
func (e *Engine) Add(ru Rule) {
	a := &alert{rule: ru.withDefaults(), reason: "no data"}
	e.mu.Lock()
	e.alerts = append(e.alerts, a)
	e.mu.Unlock()
}

// Register exports per-rule state and transition metrics on reg.
func (e *Engine) Register(reg *obs.Registry) {
	e.mu.Lock()
	alerts := append([]*alert(nil), e.alerts...)
	e.mu.Unlock()
	for _, a := range alerts {
		a := a
		reg.GaugeFunc("rap_alert_state",
			"Alert state per rule: 0 ok, 1 warn, 2 crit.",
			func() float64 { return float64(a.state.Load()) },
			obs.L("rule", a.rule.Name))
		reg.CounterFunc("rap_alert_transitions_total",
			"Alert state transitions per rule, both directions.",
			func() float64 { return float64(a.transitions.Load()) },
			obs.L("rule", a.rule.Name))
	}
}

// Eval evaluates every rule against one frame. It is the recorder's
// subscriber; tests may call it directly with synthetic frames.
func (e *Engine) Eval(f Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.alerts {
		value, ok := e.value(a.rule, f)
		if !ok {
			a.reason = "no data"
			continue
		}
		a.valueBits.Store(math.Float64bits(value))
		e.step(a, value, f.UnixNano)
	}
}

// value computes the rule's scalar for this frame.
func (e *Engine) value(ru Rule, f Frame) (float64, bool) {
	switch ru.Kind {
	case Rate:
		series := e.rec.Query(ru.Series, ru.RateWindow, time.Unix(0, f.UnixNano))
		vals := make([]float64, 0, len(series))
		for _, s := range series {
			if len(s.Points) >= 2 {
				vals = append(vals, s.Rate)
			}
		}
		return fold(ru.Agg, vals)
	case Ratio:
		vals := make([]float64, 0, 4)
		for key, num := range f.Values {
			rest, ok := matchKey(key, ru.Series)
			if !ok {
				continue
			}
			denom, ok := f.Values[ru.Denom+rest]
			if !ok || denom == 0 {
				continue
			}
			vals = append(vals, num/denom)
		}
		return fold(ru.Agg, vals)
	default:
		vals := make([]float64, 0, 4)
		for key, v := range f.Values {
			if _, ok := matchKey(key, ru.Series); ok {
				vals = append(vals, v)
			}
		}
		return fold(ru.Agg, vals)
	}
}

// matchKey reports whether key selects the family sel, returning the
// label remainder ("{...}" or "") used to align ratio denominators.
func matchKey(key, sel string) (rest string, ok bool) {
	if key == sel {
		return "", true
	}
	if strings.HasPrefix(key, sel+"{") {
		return key[len(sel):], true
	}
	return "", false
}

func fold(agg Agg, vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	out := vals[0]
	for _, v := range vals[1:] {
		if agg == AggSum {
			out += v
		} else {
			out = math.Max(out, v)
		}
	}
	if math.IsNaN(out) {
		return 0, false
	}
	return out, true
}

// step runs one alert's state machine: hysteresis decides the desired
// state, and a change commits at once. Called under e.mu.
func (e *Engine) step(a *alert, value float64, nowNano int64) {
	cur := State(a.state.Load())
	desired := desiredState(a.rule, cur, value)
	a.reason = ""
	if desired == cur {
		return
	}
	a.state.Store(int64(desired))
	switch {
	case cur == StateOK:
		e.firing.Add(1)
	case desired == StateOK:
		e.firing.Add(-1)
	}
	a.transitions.Add(1)
	a.sinceNano.Store(nowNano)
}

// desiredState applies thresholds with hysteresis: a level that has fired
// stays lit until the value retreats past the clear band, so dithering on
// the threshold does not flap the alert.
func desiredState(ru Rule, cur State, value float64) State {
	critOn := levelOn(value, ru.Crit, ru.ClearRatio, cur >= StateCrit)
	warnOn := levelOn(value, ru.Warn, ru.ClearRatio, cur >= StateWarn)
	switch {
	case critOn:
		return StateCrit
	case warnOn:
		return StateWarn
	default:
		return StateOK
	}
}

func levelOn(value, threshold, clearRatio float64, lit bool) bool {
	if math.IsInf(threshold, 0) {
		return false
	}
	if lit {
		threshold *= clearRatio
	}
	return value >= threshold
}

// Snapshot returns every alert's current status, sorted by rule name.
func (e *Engine) Snapshot() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.alerts))
	for _, a := range e.alerts {
		out = append(out, AlertStatus{
			Rule:        a.rule,
			State:       State(a.state.Load()).String(),
			Value:       jsonValue(math.Float64frombits(a.valueBits.Load())),
			Since:       time.Unix(0, a.sinceNano.Load()),
			Transitions: a.transitions.Load(),
			Reason:      a.reason,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return out
}

// AnyFiring reports whether any alert is not ok. It takes no lock and
// allocates nothing — one atomic load, cheap enough for the per-entry
// force-sampling checks on the ingest path.
func (e *Engine) AnyFiring() bool { return e.firing.Load() > 0 }

// Firing returns the alerts not currently ok, worst first.
func (e *Engine) Firing() []AlertStatus {
	all := e.Snapshot()
	out := all[:0]
	for _, a := range all {
		if a.State != "ok" {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].State < out[j].State }) // "crit" < "warn"
	return out
}

// ServeHTTP serves the alert table as JSON at /alerts.
func (e *Engine) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Alerts []AlertStatus `json:"alerts"`
	}{e.Snapshot()})
}
