package flight

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rap/internal/obs"
)

// frame builds a synthetic scrape frame at second i.
func frame(i int, values map[string]float64) Frame {
	return Frame{UnixNano: at(i).UnixNano(), Values: values}
}

func newTestEngine(t *testing.T, rules ...Rule) *Engine {
	t.Helper()
	reg := obs.NewRegistry()
	rec := NewRecorder(reg, Options{})
	return NewEngine(rec, rules...)
}

func stateOf(t *testing.T, e *Engine, rule string) AlertStatus {
	t.Helper()
	for _, a := range e.Snapshot() {
		if a.Rule.Name == rule {
			return a
		}
	}
	t.Fatalf("rule %q not found", rule)
	return AlertStatus{}
}

// TestThresholdLadder walks a value up and down through warn and crit and
// checks the state ladder, transition counting, and hysteresis.
func TestThresholdLadder(t *testing.T) {
	e := newTestEngine(t, Rule{
		Name: "r", Kind: Threshold, Series: "x",
		Warn: 10, Crit: 20, ClearRatio: 0.8,
	})
	steps := []struct {
		v    float64
		want string
	}{
		{5, "ok"},
		{10, "warn"}, // at warn threshold
		{9, "warn"},  // hysteresis: clear needs < 8
		{7.9, "ok"},  // below 0.8×10
		{25, "crit"}, // straight to crit
		{17, "crit"}, // hysteresis: crit clears below 16
		{15, "warn"}, // crit cleared, warn band (lit) holds >= 8
		{3, "ok"},
	}
	for i, s := range steps {
		e.Eval(frame(i, map[string]float64{"x": s.v}))
		if got := stateOf(t, e, "r"); got.State != s.want {
			t.Fatalf("step %d (v=%v): state %s, want %s", i, s.v, got.State, s.want)
		}
	}
	// ok→warn, warn→ok, ok→crit, crit→warn, warn→ok = 5 transitions.
	if got := stateOf(t, e, "r").Transitions; got != 5 {
		t.Errorf("transitions = %d, want 5", got)
	}
}

// TestAnyFiringMatchesScan moves four rules through ok, warn and crit
// with readers calling AnyFiring throughout, and after every evaluation
// holds AnyFiring's counter to a scan of every alert's state. Run under
// -race, it also checks the counter needs no lock against Eval.
func TestAnyFiringMatchesScan(t *testing.T) {
	var rules []Rule
	for i := range 4 {
		name := fmt.Sprintf("r%d", i)
		rules = append(rules, Rule{Name: name, Kind: Threshold, Series: name, Warn: 10, Crit: 20, ClearRatio: 1})
	}
	e := newTestEngine(t, rules...)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.AnyFiring()
				}
			}
		}()
	}
	levels := []float64{0, 15, 25, 5}
	for i := range 200 {
		values := make(map[string]float64)
		for r := range rules {
			values[rules[r].Name] = levels[(i/(r+1))%len(levels)]
		}
		e.Eval(frame(i, values))
		scan := false
		for _, a := range e.Snapshot() {
			scan = scan || a.State != "ok"
		}
		if got := e.AnyFiring(); got != scan {
			close(stop)
			readers.Wait()
			t.Fatalf("frame %d: AnyFiring = %v, a scan of the alerts says %v", i, got, scan)
		}
	}
	close(stop)
	readers.Wait()
}

// TestAnyFiringLockFree holds the engine lock and requires AnyFiring to
// return: the ingest path's force-sampling check must never wait for an
// evaluation in progress.
func TestAnyFiringLockFree(t *testing.T) {
	e := newTestEngine(t, Rule{Name: "r", Kind: Threshold, Series: "x", Crit: 10})
	e.Eval(frame(0, map[string]float64{"x": 50}))
	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan bool)
	go func() { done <- e.AnyFiring() }()
	select {
	case firing := <-done:
		if !firing {
			t.Fatal("AnyFiring = false with a crit alert")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AnyFiring blocked on the engine lock")
	}
}

// TestRatioRule checks per-label alignment of numerator and denominator.
func TestRatioRule(t *testing.T) {
	e := newTestEngine(t, Rule{
		Name: "sat", Kind: Ratio,
		Series: "depth", Denom: "cap", Agg: AggMax, Warn: 0.8, Crit: 0.95,
	})
	e.Eval(frame(0, map[string]float64{
		`depth{q="a"}`: 10, `cap{q="a"}`: 100, // 0.10
		`depth{q="b"}`: 90, `cap{q="b"}`: 100, // 0.90 -> max
	}))
	got := stateOf(t, e, "sat")
	if got.State != "warn" {
		t.Fatalf("state = %s, want warn", got.State)
	}
	if v := float64(got.Value); v != 0.9 {
		t.Fatalf("value = %v, want 0.9", v)
	}
	// Zero denominator is skipped, not a division.
	e2 := newTestEngine(t, Rule{Name: "sat", Kind: Ratio, Series: "d", Denom: "c", Warn: 0.5})
	e2.Eval(frame(0, map[string]float64{"d": 5, "c": 0}))
	if got := stateOf(t, e2, "sat"); got.Reason != "no data" {
		t.Fatalf("zero denom reason = %q, want no data", got.Reason)
	}
}

// TestRateRule drives a counter through the recorder and checks the rate
// rule fires on its derivative.
func TestRateRule(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("ctr", "")
	rec := NewRecorder(reg, Options{})
	e := NewEngine(rec, Rule{
		Name: "growth", Kind: Rate, Series: "ctr", Agg: AggSum,
		Warn: 50, RateWindow: 10 * time.Second, ClearRatio: 1,
	})
	// 10/s for 10s: under warn.
	for i := 0; i < 10; i++ {
		c.Add(10)
		rec.Scrape(at(i))
	}
	if got := stateOf(t, e, "growth").State; got != "ok" {
		t.Fatalf("slow growth state = %s, want ok", got)
	}
	// 100/s: over warn.
	for i := 10; i < 20; i++ {
		c.Add(100)
		rec.Scrape(at(i))
	}
	if got := stateOf(t, e, "growth").State; got != "warn" {
		t.Fatalf("fast growth state = %s, want warn", got)
	}
	// Counter stops: rate decays back to ok.
	for i := 20; i < 35; i++ {
		rec.Scrape(at(i))
	}
	if got := stateOf(t, e, "growth").State; got != "ok" {
		t.Fatalf("idle state = %s, want ok", got)
	}
}

// TestMissingSeriesRetainsState: an alert whose series vanishes keeps its
// last state and says why.
func TestMissingSeriesRetainsState(t *testing.T) {
	e := newTestEngine(t, Rule{Name: "r", Kind: Threshold, Series: "x", Crit: 1, ClearRatio: 1})
	e.Eval(frame(0, map[string]float64{"x": 5}))
	if got := stateOf(t, e, "r").State; got != "crit" {
		t.Fatalf("state = %s, want crit", got)
	}
	e.Eval(frame(1, map[string]float64{"other": 0}))
	got := stateOf(t, e, "r")
	if got.State != "crit" || got.Reason != "no data" {
		t.Fatalf("after vanish: %s/%q, want crit/no data", got.State, got.Reason)
	}
}

// TestEngineMetricsAndHTTP checks rap_alert_state/transitions exposition
// and the /alerts document shape.
func TestEngineMetricsAndHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(reg, Options{})
	e := NewEngine(rec, Rule{Name: "r", Kind: Threshold, Series: "x", Warn: 1, ClearRatio: 1})
	e.Register(reg)
	e.Eval(frame(0, map[string]float64{"x": 5}))

	var state, trans float64
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			if s.Labels["rule"] != "r" {
				continue
			}
			switch f.Name {
			case "rap_alert_state":
				state = s.Value
			case "rap_alert_transitions_total":
				trans = s.Value
			}
		}
	}
	if state != 1 || trans != 1 {
		t.Fatalf("exported state=%v transitions=%v, want 1/1", state, trans)
	}

	srv := httptest.NewServer(e)
	defer srv.Close()
	var doc struct {
		Alerts []AlertStatus `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/alerts")), &doc); err != nil {
		t.Fatalf("/alerts not JSON: %v", err)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].State != "warn" {
		t.Fatalf("/alerts = %+v", doc.Alerts)
	}
}

// TestQueueSaturationFollowsDropPolicy: under Block a full queue is
// lossless backpressure and the rule stays ok; under DropNewest a filling
// queue is the step before counted drops and the rule fires.
func TestQueueSaturationFollowsDropPolicy(t *testing.T) {
	for _, tc := range []struct {
		dropNewest bool
		fill       float64
		want       string
	}{
		{false, 1, "ok"},
		{true, 0.5, "ok"},
		{true, 0.85, "warn"},
		{true, 1, "crit"},
	} {
		var rule Rule
		for _, r := range BuiltinRules(BuiltinConfig{DropNewest: tc.dropNewest}) {
			if r.Name == "queue_saturation" {
				rule = r
			}
		}
		if rule.Name == "" {
			t.Fatalf("DropNewest=%v: queue_saturation not listed", tc.dropNewest)
		}
		e := newTestEngine(t, rule)
		e.Eval(frame(0, map[string]float64{
			`rap_ingest_queue_depth{source="a"}`:    64 * tc.fill,
			`rap_ingest_queue_capacity{source="a"}`: 64,
		}))
		if got := stateOf(t, e, "queue_saturation").State; got != tc.want {
			t.Errorf("DropNewest=%v, fill %v: %s, want %s", tc.dropNewest, tc.fill, got, tc.want)
		}
	}
}

// TestBuiltinRules sanity-checks the stock set: audit latches crit on any
// violation, admission maps levels to states, staleness follows cadence.
func TestBuiltinRules(t *testing.T) {
	rules := BuiltinRules(BuiltinConfig{CheckpointEvery: time.Second})
	byName := map[string]Rule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	for _, want := range []string{
		"audit_violations", "admission_level", "queue_saturation",
		"arena_growth", "checkpoint_staleness",
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("builtin rule %q missing", want)
		}
	}
	e := newTestEngine(t, byName["audit_violations"], byName["admission_level"], byName["checkpoint_staleness"])
	e.Eval(frame(0, map[string]float64{
		"rap_audit_violations_total":       1,
		"rap_admit_level":                  2,
		"rap_checkpoint_staleness_seconds": 4,
	}))
	if got := stateOf(t, e, "audit_violations").State; got != "crit" {
		t.Errorf("audit with violation: %s, want crit", got)
	}
	if got := stateOf(t, e, "admission_level").State; got != "crit" {
		t.Errorf("admission at Siege: %s, want crit", got)
	}
	if got := stateOf(t, e, "checkpoint_staleness").State; got != "warn" {
		t.Errorf("staleness 4×cadence: %s, want warn", got)
	}
	e.Eval(frame(1, map[string]float64{
		"rap_audit_violations_total":       1,
		"rap_admit_level":                  0,
		"rap_checkpoint_staleness_seconds": 0.5,
	}))
	if got := stateOf(t, e, "audit_violations").State; got != "crit" {
		t.Errorf("audit must latch: %s, want crit", got)
	}
	if got := stateOf(t, e, "admission_level").State; got != "ok" {
		t.Errorf("admission back to Normal: %s, want ok", got)
	}
	if got := stateOf(t, e, "checkpoint_staleness").State; got != "ok" {
		t.Errorf("fresh checkpoint: %s, want ok", got)
	}
	if cs := byName["checkpoint_staleness"]; cs.Warn != 3 || cs.Crit != 10 {
		t.Errorf("staleness thresholds = %v/%v, want 3/10", cs.Warn, cs.Crit)
	}
}
