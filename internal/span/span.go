// Package span is the zero-dependency request-scoped tracing subsystem of
// the profiler: trace/span identifiers, parent links, wall-clock timing
// with attributes, a bounded lock-free span ring, and W3C traceparent
// propagation (see propagate.go) so one operation — a snapshot shipment, a
// /v1 query — can be followed across processes.
//
// The design mirrors the obs package's split between hot-path updates and
// scrape-time collection. Starting a span is an allocation and a couple of
// atomic increments; the keep/drop decision is deferred to End, where the
// duration is known, so the sampler can combine three policies:
//
//   - head-based rate: 1 in SampleRate roots is recorded with all of its
//     children, giving an unbiased latency census at bounded cost;
//   - slow-op promotion: any span whose duration reaches SlowThreshold is
//     recorded (and logged in the slow-op ring) even when its trace lost
//     the head coin — tail latency is exactly what sampling would hide;
//   - forced recording: while the Force hook reports true (the daemon
//     wires it to "any alert firing"), every span is recorded, so the
//     minutes that matter are traced at 100%.
//
// Point-in-time decisions — a tree split or merge, an audit verdict, an
// admission level change — are recorded through the same sampler as
// zero-duration root spans (Event, EventAlways), so one ring, one sampler
// and one endpoint serve both timed operations and structural events.
//
// Recorded spans land in a fixed-size ring of atomic pointers — writers
// never block each other or readers — and are exported as JSONL over
// /spans, in diagnostic bundles, and to offline analysis via rapdiag.
package span

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rap/internal/obs"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// operation.
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits, the traceparent form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the span ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits, the traceparent form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context identifies one position in one trace: enough to parent a child
// span or to propagate the trace across a process boundary. Sampled
// carries the head-based decision with the trace, so a downstream process
// records the spans an upstream one decided to keep.
type Context struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero — the W3C validity rule.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Attr is one key/value annotation on a span. Values are strings; callers
// format numbers themselves (spans are for humans and JSONL, not math).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed operation within a trace. It is created by a Tracer,
// annotated with SetAttr, and finished exactly once with End; only End
// decides whether the span is recorded. A nil *Span is a valid no-op
// receiver for every method, so call sites need no tracer-enabled checks.
type Span struct {
	tr     *Tracer
	ctx    Context
	parent SpanID
	name   string
	start  time.Time
	forced bool // recording forced at start (alert firing)

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Record is the exported, JSON-stable form of a finished span — the
// /spans JSONL row.
type Record struct {
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentID   string `json:"parent_id,omitempty"`
	Name       string `json:"name"`
	StartNano  int64  `json:"start_unix_nano"`
	DurationNs int64  `json:"duration_ns"`
	Sampled    bool   `json:"sampled"`        // won the head coin (vs slow/forced promotion)
	Slow       bool   `json:"slow,omitempty"` // reached the slow-op threshold
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Options configures a Tracer. Zero values select the defaults noted per
// field.
type Options struct {
	// SampleRate keeps 1 in SampleRate root spans (with their children)
	// and Event records. 1 keeps everything; 0 selects the default 100
	// (1%).
	SampleRate uint64
	// Capacity is the span ring size. Default 4096.
	Capacity int
	// SlowThreshold promotes any span at least this long into the ring and
	// the slow-op log regardless of sampling. 0 selects the default 100ms;
	// negative disables promotion.
	SlowThreshold time.Duration
	// Force, when set and returning true, records every span finished
	// while it holds — the "always-on for ops that trip an alert" policy.
	// It is consulted once per root start and once per span end; it must
	// be cheap and safe for concurrent use.
	Force func() bool
}

func (o Options) withDefaults() Options {
	if o.SampleRate == 0 {
		o.SampleRate = 100
	}
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 100 * time.Millisecond
	}
	return o
}

// slowCapacity is the slow-op log size: slow spans and EventAlways
// records.
const slowCapacity = 64

// Tracer creates spans and owns the recorded-span ring. All methods are
// safe for concurrent use.
type Tracer struct {
	opt      Options
	roots    atomic.Uint64 // roots and events started: the head-sampling counter
	children atomic.Uint64 // child spans started

	// ring is the bounded lock-free store of finished, kept spans: a
	// writer claims the next slot with one atomic add and publishes the
	// record with one atomic store. Readers see a consistent recent
	// window without ever blocking a writer; a torn window (a slot being
	// overwritten mid-read) yields either the old or the new record,
	// never garbage.
	ring []atomic.Pointer[Record]
	pos  atomic.Uint64

	slowMu   sync.Mutex
	slowLog  []Record // ring, oldest at slowNext once full
	slowNext int

	recorded atomic.Uint64
	slow     atomic.Uint64
	forced   atomic.Uint64
}

// New builds a Tracer.
func New(opt Options) *Tracer {
	opt = opt.withDefaults()
	return &Tracer{
		opt:  opt,
		ring: make([]atomic.Pointer[Record], opt.Capacity),
	}
}

// newIDs returns a fresh random trace ID. math/rand/v2's global generator
// is goroutine-safe and unseedable-from-outside, which is exactly right:
// IDs need uniqueness, not secrecy.
func newTraceID() TraceID {
	var t TraceID
	putU64(t[:8], rand.Uint64())
	putU64(t[8:], rand.Uint64())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for {
		putU64(s[:], rand.Uint64())
		if !s.IsZero() {
			return s
		}
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(7-i)))
	}
}

// StartRoot begins a new trace: a root span with a fresh trace ID. The
// head-based sampling decision is taken here and inherited by children.
func (tr *Tracer) StartRoot(name string) *Span {
	return tr.StartRootAt(name, time.Now())
}

// StartRootAt is StartRoot with an explicit start time, for call sites
// that stamped the clock before deciding to trace.
func (tr *Tracer) StartRootAt(name string, start time.Time) *Span {
	return tr.StartRootFrom(tr.Head(), name, start)
}

// Head is a root span's head-sampling decision taken apart from the span:
// whether its trace won the head coin, and whether Force held when it
// started. An operation that learns only when it ends whether its spans
// would be kept (a queue entry) carries a Head instead of a Span, and
// builds its spans with StartRootFrom only when Keep holds.
type Head struct {
	sampled, forced bool
}

// Sampled reports what Span.Sampled would for the root built from h.
func (h Head) Sampled() bool { return h.sampled || h.forced }

// Head takes a root's head-sampling decision, exactly as StartRoot does,
// without building the span. It counts as a started root. A nil Tracer
// returns the zero Head, which nothing keeps.
func (tr *Tracer) Head() Head {
	if tr == nil {
		return Head{}
	}
	n := tr.roots.Add(1)
	return Head{
		sampled: n%tr.opt.SampleRate == 0,
		forced:  tr.opt.Force != nil && tr.opt.Force(),
	}
}

// Keep reports whether the root built from h and lasting dur would be
// recorded when it ends now: the EndAt decision, with Force consulted
// now. A trace's other spans lie within its root and inherit its coin, so
// when Keep is false none of them would be recorded either.
func (tr *Tracer) Keep(h Head, dur time.Duration) bool {
	if tr == nil {
		return false
	}
	return h.Sampled() ||
		(tr.opt.SlowThreshold > 0 && dur >= tr.opt.SlowThreshold) ||
		(tr.opt.Force != nil && tr.opt.Force())
}

// StartRootFrom builds, at start, the root span of a new trace whose
// head decision h was taken earlier by Head; the head coin does not
// advance again.
func (tr *Tracer) StartRootFrom(h Head, name string, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	return &Span{
		tr: tr,
		ctx: Context{
			Trace:   newTraceID(),
			Span:    newSpanID(),
			Sampled: h.sampled,
		},
		name:   name,
		start:  start,
		forced: h.forced,
	}
}

// StartChild begins a span inside an existing trace — a local parent's or
// one propagated from another process via traceparent. The parent's
// sampled flag is inherited: a sampled trace keeps all of its spans.
func (tr *Tracer) StartChild(parent Context, name string) *Span {
	return tr.StartChildAt(parent, name, time.Now())
}

// StartChildAt is StartChild with an explicit start time, so a span can
// cover an interval that began before the call (queue wait).
func (tr *Tracer) StartChildAt(parent Context, name string, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.children.Add(1)
	return &Span{
		tr: tr,
		ctx: Context{
			Trace:   parent.Trace,
			Span:    newSpanID(),
			Sampled: parent.Sampled,
		},
		parent: parent.Span,
		name:   name,
		start:  start,
	}
}

// Context returns the span's trace position, for parenting children or
// encoding a traceparent. The zero Context is returned from a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// Sampled reports whether this span's trace won the head-based coin (or
// recording was forced at start). Call sites use it to skip work that only
// matters for kept traces (extra attributes, stat deltas).
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	return s.ctx.Sampled || s.forced
}

// SetAttr annotates the span. Safe to call concurrently with End (the
// attribute may or may not make the recorded span, as with any race).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span at time.Now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at the given time and applies the recording
// decision: kept when the trace is sampled, recording is forced (at start
// or right now), or the span reached the slow-op threshold. Later calls
// are no-ops.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	tr := s.tr
	dur := end.Sub(s.start)
	slow := tr.opt.SlowThreshold > 0 && dur >= tr.opt.SlowThreshold
	forced := s.forced || (tr.opt.Force != nil && tr.opt.Force())
	if !s.ctx.Sampled && !forced && !slow {
		return
	}
	rec := &Record{
		TraceID:    s.ctx.Trace.String(),
		SpanID:     s.ctx.Span.String(),
		Name:       s.name,
		StartNano:  s.start.UnixNano(),
		DurationNs: dur.Nanoseconds(),
		Sampled:    s.ctx.Sampled,
		Slow:       slow,
		Attrs:      attrs,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if forced && !s.ctx.Sampled {
		tr.forced.Add(1)
	}
	tr.store(rec)
	if slow {
		tr.slow.Add(1)
		tr.logSlow(rec)
	}
}

// Event records a zero-duration root span: a point-in-time decision such
// as a tree split, rather than a timed operation. It wins or loses the
// head coin like any root; a lost coin costs one atomic increment — no
// clock read, no allocation, no Force call — so hooks running under a
// shard lock can report every decision. attrs runs only for a kept event.
func (tr *Tracer) Event(name string, attrs func() []Attr) {
	if tr == nil || tr.roots.Add(1)%tr.opt.SampleRate != 0 {
		return
	}
	tr.store(eventRecord(name, true, attrs()))
}

// EventAlways records a zero-duration root span that sampling must never
// drop: an audit verdict, an admission level change. While Force holds,
// every span is recorded and the ring can wrap in under a second, so the
// event is also kept in the slow-op log, where only other rare records
// compete for its slot.
func (tr *Tracer) EventAlways(name string, attrs ...Attr) {
	if tr == nil {
		return
	}
	rec := eventRecord(name, tr.roots.Add(1)%tr.opt.SampleRate == 0, attrs)
	tr.store(rec)
	tr.logSlow(rec)
}

// eventRecord builds the record of a zero-duration root span stamped now.
func eventRecord(name string, sampled bool, attrs []Attr) *Record {
	return &Record{
		TraceID:   newTraceID().String(),
		SpanID:    newSpanID().String(),
		Name:      name,
		StartNano: time.Now().UnixNano(),
		Sampled:   sampled,
		Attrs:     attrs,
	}
}

// store publishes a kept record into the ring, overwriting the oldest.
func (tr *Tracer) store(rec *Record) {
	tr.recorded.Add(1)
	i := tr.pos.Add(1) - 1
	tr.ring[i%uint64(len(tr.ring))].Store(rec)
}

// logSlow appends a copy of rec to the slow-op log.
func (tr *Tracer) logSlow(rec *Record) {
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	if len(tr.slowLog) < slowCapacity {
		tr.slowLog = append(tr.slowLog, *rec)
	} else {
		tr.slowLog[tr.slowNext] = *rec
		tr.slowNext = (tr.slowNext + 1) % len(tr.slowLog)
	}
}

// Started returns the total spans started, events included.
func (tr *Tracer) Started() uint64 { return tr.roots.Load() + tr.children.Load() }

// Recorded returns the total spans kept in the ring (including ones the
// ring has since overwritten).
func (tr *Tracer) Recorded() uint64 { return tr.recorded.Load() }

// Evicted returns how many recorded spans the ring has overwritten.
func (tr *Tracer) Evicted() uint64 {
	if n := tr.pos.Load(); n > uint64(len(tr.ring)) {
		return n - uint64(len(tr.ring))
	}
	return 0
}

// Spans returns the retained spans ordered oldest-first by start time.
// The read is lock-free: a concurrent writer may replace a slot mid-scan,
// yielding its old or new record — both are real spans.
func (tr *Tracer) Spans() []Record {
	out := make([]Record, 0, len(tr.ring))
	for i := range tr.ring {
		if r := tr.ring[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNano < out[j].StartNano })
	return out
}

// SlowOps returns the slow-op log oldest-first: every retained span that
// reached the slow threshold, regardless of sampling, and every
// EventAlways record.
func (tr *Tracer) SlowOps() []Record {
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	out := make([]Record, 0, len(tr.slowLog))
	out = append(out, tr.slowLog[tr.slowNext:]...)
	out = append(out, tr.slowLog[:tr.slowNext]...)
	return out
}

// WriteJSONL writes the retained spans oldest-first, one JSON object per
// line — the bundle and offline-analysis format.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range tr.Spans() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP exposes the span ring as application/jsonl. Query params:
// ?trace=<32 hex> filters to one trace, ?name=<prefix> to a span-name
// prefix, ?slow=1 to slow-promoted spans, ?limit=N caps the newest rows.
func (tr *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spans := tr.Spans()
	if t := q.Get("trace"); t != "" {
		kept := spans[:0]
		for _, s := range spans {
			if s.TraceID == t {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if p := q.Get("name"); p != "" {
		kept := spans[:0]
		for _, s := range spans {
			if len(s.Name) >= len(p) && s.Name[:len(p)] == p {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if q.Get("slow") == "1" {
		kept := spans[:0]
		for _, s := range spans {
			if s.Slow {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
			return
		}
		if n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("X-Span-Recorded", strconv.FormatUint(tr.Recorded(), 10))
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return
		}
	}
}

// Register exports the tracer's self-metrics on reg.
func (tr *Tracer) Register(reg *obs.Registry) {
	reg.CounterFunc("rap_span_started_total", "Spans and events started (before any sampling decision).",
		func() float64 { return float64(tr.Started()) })
	reg.CounterFunc("rap_span_recorded_total", "Spans kept in the span ring (head-sampled, slow-promoted, forced, or always-kept events).",
		func() float64 { return float64(tr.recorded.Load()) })
	reg.CounterFunc("rap_span_slow_total", "Spans promoted for reaching the slow-op threshold.",
		func() float64 { return float64(tr.slow.Load()) })
	reg.CounterFunc("rap_span_forced_total", "Unsampled spans recorded because the force hook (alerts firing) held.",
		func() float64 { return float64(tr.forced.Load()) })
	reg.CounterFunc("rap_span_evicted_total", "Recorded spans the ring overwrote before any export read them.",
		func() float64 { return float64(tr.Evicted()) })
	reg.GaugeFunc("rap_span_sample_rate", "Configured head sampling rate: 1 in this many root spans is kept.",
		func() float64 { return float64(tr.opt.SampleRate) })
}
