package flight

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rap/internal/obs"
)

// Options configures a Recorder. Zero values select the defaults noted on
// each field.
type Options struct {
	// Every is the scrape cadence. Default 1s.
	Every time.Duration
	// Depth is how many frames the ring retains — Depth × Every of
	// history. Default 900 (15 min at 1 s).
	Depth int
}

func (o Options) withDefaults() Options {
	if o.Every <= 0 {
		o.Every = time.Second
	}
	if o.Depth <= 0 {
		o.Depth = 900
	}
	return o
}

// blockFrames is how many frames share one delta block, clamped to the
// ring's Depth. Larger blocks compress better but evict in coarser steps.
const blockFrames = 30

// SeriesMeta identifies one recorded series. Key is the exposition-style
// identity (`name` or `name{k="v",...}`); Name is the family name the key
// was derived from — for histogram-derived series (`x_p99`) it is the
// derived name, so queries can select whole derived families.
type SeriesMeta struct {
	Key    string            `json:"key"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Point is one recorded observation.
type Point struct {
	UnixNano int64   `json:"t"`
	Value    float64 `json:"v"`
}

// Series is one series' history inside a query window, with the window
// aggregates precomputed so callers (alert rules, /statusz sparklines)
// don't re-derive them.
type Series struct {
	SeriesMeta
	Points []Point `json:"points"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	// Rate is (Last-First)/window-span in per-second units — the
	// derivative estimate rate and ratio alert rules consume. Zero when
	// the window holds fewer than two points.
	Rate float64 `json:"rate"`
}

// Frame is one scrape as seen by subscribers (the alert engine): every
// series' value keyed by series identity.
type Frame struct {
	UnixNano int64
	Values   map[string]float64
}

// Recorder scrapes a Registry on a cadence into a bounded ring of
// delta-compressed frames. All exported methods are safe for concurrent
// use. The scrape path takes no locks shared with the ingest hot path —
// it reads the registry through Snapshot like any other scraper.
type Recorder struct {
	reg *obs.Registry
	opt Options

	mu     sync.Mutex
	dict   map[string]int // series key -> dense id
	meta   []SeriesMeta   // indexed by id
	blocks []*block       // oldest first; last is the open block
	last   []uint64       // previous frame's bits, XOR base within a block
	frames int            // total frames across blocks
	subs   []func(Frame)

	// Exported via Func instruments, which run under the registry lock —
	// atomics keep them from ever touching r.mu.
	scrapes     atomic.Uint64
	ringBytes   atomic.Int64
	seriesGauge atomic.Int64
	frameGauge  atomic.Int64
}

// NewRecorder builds a Recorder over reg. Call Register to export the
// recorder's own metrics and Start (or Scrape) to begin recording.
func NewRecorder(reg *obs.Registry, opt Options) *Recorder {
	return &Recorder{reg: reg, opt: opt.withDefaults(), dict: make(map[string]int)}
}

// Register exports the recorder's self-metrics on reg.
func (r *Recorder) Register(reg *obs.Registry) {
	reg.CounterFunc("rap_flight_scrapes_total",
		"Registry scrapes recorded by the flight recorder.",
		func() float64 { return float64(r.scrapes.Load()) })
	reg.GaugeFunc("rap_flight_bytes",
		"Bytes held by the flight recorder's frame ring.",
		func() float64 { return float64(r.ringBytes.Load()) })
	reg.GaugeFunc("rap_flight_series",
		"Distinct series the flight recorder tracks.",
		func() float64 { return float64(r.seriesGauge.Load()) })
	reg.GaugeFunc("rap_flight_frames",
		"Frames currently retained in the ring.",
		func() float64 { return float64(r.frameGauge.Load()) })
}

// Subscribe registers fn to run after every scrape with the flattened
// frame. Subscribers run on the scrape goroutine, outside the recorder
// lock; a slow subscriber delays the next scrape, not queries.
func (r *Recorder) Subscribe(fn func(Frame)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// Start scrapes on the configured cadence until the returned stop
// function is called. Stop waits for an in-flight scrape to finish.
func (r *Recorder) Start() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(r.opt.Every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				r.Scrape(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// Scrape takes one sample of the registry: flattens the snapshot into
// (key, value) samples, appends a delta-compressed frame to the ring, and
// notifies subscribers. Lock order is registry-then-recorder: Snapshot
// completes before r.mu is taken, so the recorder's own GaugeFuncs (which
// run under the registry lock) can never deadlock against a scrape.
func (r *Recorder) Scrape(now time.Time) {
	samples := flatten(r.reg.Snapshot())

	r.mu.Lock()
	vals := make([]uint64, len(r.meta), len(r.meta)+8)
	copy(vals, r.last) // carry forward, in case a series ever skips a frame
	for _, s := range samples {
		id, ok := r.dict[s.meta.Key]
		if !ok {
			id = len(r.meta)
			r.dict[s.meta.Key] = id
			r.meta = append(r.meta, s.meta)
			vals = append(vals, 0)
		}
		vals[id] = math.Float64bits(s.value)
	}

	var cur *block
	var base []uint64
	if n := len(r.blocks); n > 0 && r.blocks[n-1].frames() < min(blockFrames, r.opt.Depth) {
		cur = r.blocks[n-1]
		base = r.last
	} else {
		cur = &block{}
		r.blocks = append(r.blocks, cur)
	}
	cur.appendFrame(now.UnixNano(), vals, base)
	r.last = vals
	r.frames++

	// Evict whole oldest blocks once the ring exceeds its depth. The open
	// block is never the oldest unless it is the only one.
	for r.frames > r.opt.Depth && len(r.blocks) > 1 {
		r.frames -= r.blocks[0].frames()
		r.blocks = r.blocks[1:]
	}

	var bytes int64
	for _, b := range r.blocks {
		bytes += int64(b.sizeBytes())
	}
	r.ringBytes.Store(bytes)
	r.seriesGauge.Store(int64(len(r.meta)))
	r.frameGauge.Store(int64(r.frames))
	subs := r.subs
	r.mu.Unlock()

	r.scrapes.Add(1)
	if len(subs) > 0 {
		f := Frame{UnixNano: now.UnixNano(), Values: make(map[string]float64, len(samples))}
		for _, s := range samples {
			f.Values[s.meta.Key] = s.value
		}
		for _, fn := range subs {
			fn(f)
		}
	}
}

// Query returns the history of every series matching sel inside the
// trailing window ending at now. sel matches a full series key, a family
// name (all label sets), or "" for everything; window <= 0 means the
// whole ring.
func (r *Recorder) Query(sel string, window time.Duration, now time.Time) []Series {
	cutoff := int64(math.MinInt64)
	if window > 0 {
		cutoff = now.Add(-window).UnixNano()
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	ids := make([]int, 0, 8)
	for id, m := range r.meta {
		if sel == "" || m.Key == sel || m.Name == sel || strings.HasPrefix(m.Key, sel+"{") {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	out := make([]Series, len(ids))
	for i, id := range ids {
		out[i] = Series{SeriesMeta: r.meta[id]}
	}
	for _, b := range r.blocks {
		b.decode(func(t int64, vals []uint64) {
			if t < cutoff {
				return
			}
			for i, id := range ids {
				if id >= len(vals) {
					continue // series not yet registered at this frame
				}
				v := math.Float64frombits(vals[id])
				s := &out[i]
				if len(s.Points) == 0 {
					s.Min, s.Max, s.First = v, v, v
				} else {
					s.Min = math.Min(s.Min, v)
					s.Max = math.Max(s.Max, v)
				}
				s.Last = v
				s.Points = append(s.Points, Point{UnixNano: t, Value: v})
			}
		})
	}
	for i := range out {
		s := &out[i]
		if n := len(s.Points); n >= 2 {
			span := float64(s.Points[n-1].UnixNano-s.Points[0].UnixNano) / float64(time.Second)
			if span > 0 {
				s.Rate = (s.Last - s.First) / span
			}
		}
	}
	return out
}

// Keys returns every recorded series key, sorted.
func (r *Recorder) Keys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.meta))
	for _, m := range r.meta {
		keys = append(keys, m.Key)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// ServeHTTP serves windowed series queries: /vars?name=X&window=30s
// returns the matching histories as JSON; without a name it returns the
// key inventory.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	name := req.URL.Query().Get("name")
	if name == "" {
		json.NewEncoder(w).Encode(struct {
			Every string   `json:"scrape_every"`
			Depth int      `json:"depth_frames"`
			Keys  []string `json:"keys"`
		}{r.opt.Every.String(), r.opt.Depth, r.Keys()})
		return
	}
	window := time.Duration(0)
	if ws := req.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad window %q: %v", ws, err), http.StatusBadRequest)
			return
		}
		window = d
	}
	series := r.Query(name, window, time.Now())
	if series == nil {
		series = []Series{}
	}
	json.NewEncoder(w).Encode(struct {
		Name   string   `json:"name"`
		Window string   `json:"window,omitempty"`
		Series []Series `json:"series"`
	}{name, windowString(window), series})
}

func windowString(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return d.String()
}

type sample struct {
	meta  SeriesMeta
	value float64
}

// flatten turns a registry snapshot into flat (key, value) samples.
// Counters, gauges, and funcs map 1:1; each histogram series derives
// five: _count, _sum, and interpolated _p50/_p95/_p99, so latency
// quantiles are recorded (and alertable) as plain series.
func flatten(snap []obs.FamilySnapshot) []sample {
	out := make([]sample, 0, len(snap)*2)
	for _, f := range snap {
		hist := f.Kind == obs.KindHistogram.String()
		for _, s := range f.Series {
			if !hist {
				out = append(out, sample{meta: seriesMeta(f.Name, s.Labels), value: s.Value})
				continue
			}
			out = append(out,
				sample{meta: seriesMeta(f.Name+"_count", s.Labels), value: float64(s.Count)},
				sample{meta: seriesMeta(f.Name+"_sum", s.Labels), value: s.Sum},
				sample{meta: seriesMeta(f.Name+"_p50", s.Labels), value: obs.QuantileFromBuckets(s.Buckets, 0.50)},
				sample{meta: seriesMeta(f.Name+"_p95", s.Labels), value: obs.QuantileFromBuckets(s.Buckets, 0.95)},
				sample{meta: seriesMeta(f.Name+"_p99", s.Labels), value: obs.QuantileFromBuckets(s.Buckets, 0.99)},
			)
		}
	}
	return out
}

// seriesMeta builds the exposition-style key name{k="v",...} with label
// keys sorted, matching Snapshot's deterministic ordering.
func seriesMeta(name string, labels map[string]string) SeriesMeta {
	m := SeriesMeta{Key: name, Name: name, Labels: labels}
	if len(labels) == 0 {
		return m
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	sb.WriteByte('}')
	m.Key = sb.String()
	return m
}
