// Package faults provides deterministic fault-injecting wrappers around
// io.Reader and trace.Source. The resilient ingest subsystem
// (internal/ingest) promises to survive truncated streams, stalled reads,
// transient I/O errors, and corrupted bytes; these wrappers exist so tests
// can prove each of those recovery paths actually runs, rather than
// trusting that error-handling code which has never executed is correct.
//
// All injection points are positional (byte offsets, event ordinals) so
// failures reproduce exactly; nothing here uses randomness.
package faults

import (
	"io"
	"time"

	"rap/internal/trace"
)

// Reader wraps an io.Reader with byte-level fault injection. The zero
// value of every knob disables that fault, so &Reader{R: r} is a
// transparent wrapper. Offsets count bytes delivered from the underlying
// reader, starting at zero.
type Reader struct {
	R io.Reader

	// TruncateAt, when > 0, ends the stream with a clean io.EOF once that
	// many bytes have been delivered — a file cut short.
	TruncateAt int64

	// FailAt, when FailErr is non-nil, returns FailErr once the offset
	// reaches FailAt. If FailOnce is set the error fires a single time and
	// the stream continues afterwards (a transient error); otherwise every
	// subsequent Read fails (a hard error).
	FailAt   int64
	FailErr  error
	FailOnce bool

	// MaxRead, when > 0, caps the bytes returned per Read call,
	// exercising short-read handling in consumers.
	MaxRead int

	// StallAt/StallFor, when StallFor > 0, sleep once when the offset
	// reaches StallAt before continuing — a hung NFS mount in miniature.
	StallAt  int64
	StallFor time.Duration

	// CorruptAt lists byte offsets whose delivered byte is XORed with
	// CorruptMask (0 means 0xFF, so listing an offset always corrupts).
	CorruptAt   []int64
	CorruptMask byte

	off     int64
	failed  bool
	stalled bool
}

// Read implements io.Reader with the configured faults applied.
func (f *Reader) Read(p []byte) (int, error) {
	if f.TruncateAt > 0 && f.off >= f.TruncateAt {
		return 0, io.EOF
	}
	if f.FailErr != nil && f.off >= f.FailAt {
		if !f.failed {
			f.failed = true
			return 0, f.FailErr
		}
		if !f.FailOnce {
			return 0, f.FailErr
		}
	}
	if f.StallFor > 0 && !f.stalled && f.off >= f.StallAt {
		f.stalled = true
		time.Sleep(f.StallFor)
	}

	limit := len(p)
	if f.MaxRead > 0 && limit > f.MaxRead {
		limit = f.MaxRead
	}
	if f.TruncateAt > 0 && int64(limit) > f.TruncateAt-f.off {
		limit = int(f.TruncateAt - f.off)
	}
	if f.FailErr != nil && !f.failed && f.off < f.FailAt && int64(limit) > f.FailAt-f.off {
		limit = int(f.FailAt - f.off)
	}
	if limit <= 0 {
		limit = 1
	}

	n, err := f.R.Read(p[:limit])
	for _, at := range f.CorruptAt {
		if at >= f.off && at < f.off+int64(n) {
			mask := f.CorruptMask
			if mask == 0 {
				mask = 0xff
			}
			p[at-f.off] ^= mask
		}
	}
	f.off += int64(n)
	return n, err
}

// Source wraps a trace.Source with event-level fault injection. Ordinals
// count events delivered from the underlying source, starting at zero. The
// zero value of every knob disables that fault.
type Source struct {
	S trace.Source

	// FailAfter/FailErr: after delivering FailAfter events, Next returns
	// ok=false and Err reports FailErr — a source that dies mid-stream.
	FailAfter uint64
	FailErr   error

	// StallEvery/StallFor: sleep StallFor before every StallEvery-th
	// event (1-based), modelling a source that intermittently hangs. With
	// StallEvery == 0 and StallFor > 0, every event stalls.
	StallEvery uint64
	StallFor   time.Duration

	// CorruptEvery/CorruptXOR: XOR the value of every CorruptEvery-th
	// event (1-based) with CorruptXOR — silent data corruption rather
	// than a visible error.
	CorruptEvery uint64
	CorruptXOR   uint64

	n   uint64
	err error
}

// Next implements trace.Source.
func (s *Source) Next() (trace.Event, bool) {
	if s.err != nil {
		return trace.Event{}, false
	}
	if s.FailErr != nil && s.n >= s.FailAfter {
		s.err = s.FailErr
		return trace.Event{}, false
	}
	if s.StallFor > 0 && (s.StallEvery == 0 || (s.n+1)%s.StallEvery == 0) {
		time.Sleep(s.StallFor)
	}
	e, ok := s.S.Next()
	if !ok {
		s.err = sourceErr(s.S)
		return trace.Event{}, false
	}
	s.n++
	if s.CorruptEvery > 0 && s.n%s.CorruptEvery == 0 {
		e.Value ^= s.CorruptXOR
	}
	return e, true
}

// NextBatch implements trace.BatchSource with the faults Next injects, at
// the same ordinals: a batch ends before FailAfter is passed and before
// the next stalled event, so a stall always blocks a read for its first
// event, as the BatchSource contract allows.
func (s *Source) NextBatch(dst []trace.Event) int {
	if s.err != nil {
		return 0
	}
	if s.FailErr != nil {
		if s.n >= s.FailAfter {
			s.err = s.FailErr
			return 0
		}
		dst = dst[:min(uint64(len(dst)), s.FailAfter-s.n)]
	}
	if s.StallFor > 0 {
		next := s.n + 1 // ordinal of the first event of this batch
		if s.StallEvery == 0 || next%s.StallEvery == 0 {
			time.Sleep(s.StallFor)
		}
		// The next stalled ordinal after this batch's first event.
		stall := next + 1
		if s.StallEvery > 0 {
			stall = (next/s.StallEvery + 1) * s.StallEvery
		}
		dst = dst[:min(uint64(len(dst)), stall-next)]
	}
	n := trace.NextBatch(s.S, dst)
	if n == 0 {
		s.err = sourceErr(s.S)
		return 0
	}
	for i := range dst[:n] {
		s.n++
		if s.CorruptEvery > 0 && s.n%s.CorruptEvery == 0 {
			dst[i].Value ^= s.CorruptXOR
		}
	}
	return n
}

// Err returns the injected (or underlying) stream error, nil on clean EOF.
func (s *Source) Err() error { return s.err }

// sourceErr surfaces the underlying source's error, if it exposes one.
func sourceErr(s trace.Source) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}
