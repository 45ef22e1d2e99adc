// Package trace defines the event-stream plumbing between profile sources
// (instrumented programs, workload models, trace files) and profile
// consumers (the RAP tree, baselines, the hardware pipeline model).
//
// An event is a single profiled identifier — a PC, a load value, a memory
// address — with a weight for coalesced duplicates. The package also
// implements the Stage-0 event buffer of the paper's hardware design
// (Figure 4): a small buffer that pre-processes points "by combining
// identical events", which the paper observes cuts the throughput demand
// on the RAP engine by about 10x for code profiling.
package trace

// Event is one profiled occurrence. Weight is 1 for raw events and the
// duplicate count for coalesced ones.
type Event struct {
	Value  uint64
	Weight uint64
}

// Source yields a stream of events. Next returns ok=false when the stream
// is exhausted.
type Source interface {
	Next() (Event, bool)
}

// BatchSource is a Source that can hand over many events per call.
// NextBatch fills a prefix of dst, which must not be empty, and returns its
// length. It may block only for its first event: whatever follows is what
// the source already has at hand. It returns 0 only at the end of the
// stream, which it reports the way Next does.
type BatchSource interface {
	Source
	NextBatch(dst []Event) int
}

// NextBatch reads up to len(dst) events from src into dst and returns how
// many it read, 0 only at the end of the stream. A BatchSource fills dst
// natively; any other source yields one event per call, so a source that
// blocks between events is never held back to fill a batch.
func NextBatch(src Source, dst []Event) int {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(dst)
	}
	e, ok := src.Next()
	if !ok {
		return 0
	}
	dst[0] = e
	return 1
}

// SliceSource yields the given values in order, each with weight 1.
type SliceSource struct {
	values []uint64
	pos    int
}

// NewSliceSource wraps values as a Source without copying.
func NewSliceSource(values []uint64) *SliceSource {
	return &SliceSource{values: values}
}

// Next implements Source.
func (s *SliceSource) Next() (Event, bool) {
	if s.pos >= len(s.values) {
		return Event{}, false
	}
	v := s.values[s.pos]
	s.pos++
	return Event{Value: v, Weight: 1}, true
}

// NextBatch implements BatchSource.
func (s *SliceSource) NextBatch(dst []Event) int {
	n := min(len(dst), len(s.values)-s.pos)
	for i, v := range s.values[s.pos : s.pos+n] {
		dst[i] = Event{Value: v, Weight: 1}
	}
	s.pos += n
	return n
}

// FuncSource adapts a generator function to the Source interface. The
// function must not block, and must keep returning false once it has.
type FuncSource func() (uint64, bool)

// Next implements Source.
func (f FuncSource) Next() (Event, bool) {
	v, ok := f()
	if !ok {
		return Event{}, false
	}
	return Event{Value: v, Weight: 1}, true
}

// NextBatch implements BatchSource, calling the generator until dst is
// full or the stream ends.
func (f FuncSource) NextBatch(dst []Event) int {
	for i := range dst {
		v, ok := f()
		if !ok {
			return i
		}
		dst[i] = Event{Value: v, Weight: 1}
	}
	return len(dst)
}

// Limit caps a source at n events. The result is a BatchSource, batching
// natively when src does.
func Limit(src Source, n uint64) Source {
	return &limitSource{src: src, left: n}
}

type limitSource struct {
	src  Source
	left uint64
}

func (l *limitSource) Next() (Event, bool) {
	if l.left == 0 {
		return Event{}, false
	}
	l.left--
	return l.src.Next()
}

func (l *limitSource) NextBatch(dst []Event) int {
	if l.left < uint64(len(dst)) {
		dst = dst[:l.left]
	}
	if len(dst) == 0 {
		return 0
	}
	n := NextBatch(l.src, dst)
	l.left -= uint64(n)
	return n
}

// Collect drains src into a slice of events (for tests and small traces).
func Collect(src Source) []Event {
	var out []Event
	for {
		e, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}
