package trace_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"rap/internal/faults"
	"rap/internal/trace"
	"rap/internal/workload"
)

// plainSource hides every method but Next, so trace.NextBatch must take
// its one-event fallback.
type plainSource struct{ src trace.Source }

func (p plainSource) Next() (trace.Event, bool) { return p.src.Next() }

// drainBatches reads src through trace.NextBatch with dst lengths cycling
// through lens, and returns the events and the length of every read.
func drainBatches(t *testing.T, src trace.Source, lens []int) (events []trace.Event, reads []int) {
	t.Helper()
	for i := 0; ; i++ {
		dst := make([]trace.Event, lens[i%len(lens)])
		n := trace.NextBatch(src, dst)
		if n < 0 || n > len(dst) {
			t.Fatalf("NextBatch filled %d of %d slots", n, len(dst))
		}
		if n == 0 {
			return events, reads
		}
		events = append(events, dst[:n]...)
		reads = append(reads, n)
	}
}

func encode(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func counter(limit uint64) trace.FuncSource {
	var i uint64
	return func() (uint64, bool) {
		if i >= limit {
			return 0, false
		}
		i++
		return i * 7, true
	}
}

// TestNextBatchMatchesNext checks every native NextBatch, and the
// fallback, against Next on the same stream: same events in the same
// order, full reads where the source has the events at hand, and one
// event per read for a source that only has Next.
func TestNextBatchMatchesNext(t *testing.T) {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i * i)
	}
	events := make([]trace.Event, 300)
	for i := range events {
		events[i] = trace.Event{Value: uint64(i) << (i % 60), Weight: uint64(i%5 + 1)}
	}
	data := encode(t, events)
	const (
		full    = iota // every read but the last fills dst
		one            // every read yields one event: the fallback
		partial        // reads end where the buffer does
	)
	for _, tc := range []struct {
		name  string
		open  func() trace.Source
		reads int
	}{
		{"slice", func() trace.Source { return trace.NewSliceSource(vals) }, full},
		{"func", func() trace.Source { return counter(1000) }, full},
		{"limit-func", func() trace.Source { return trace.Limit(counter(1<<40), 777) }, full},
		{"limit-short", func() trace.Source { return trace.Limit(trace.NewSliceSource(vals), 5000) }, full},
		{"limit-plain", func() trace.Source { return trace.Limit(plainSource{trace.NewSliceSource(vals)}, 500) }, one},
		{"plain", func() trace.Source { return plainSource{trace.NewSliceSource(vals)} }, one},
		{"reader", func() trace.Source { return trace.NewReader(bytes.NewReader(data)) }, partial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := trace.Collect(tc.open())
			for _, lens := range [][]int{{1}, {3, 64}, {256}, {4096}} {
				got, reads := drainBatches(t, tc.open(), lens)
				if len(got) != len(want) {
					t.Fatalf("lens %v: NextBatch read %d events, Next %d", lens, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("lens %v: event %d = %v, Next gave %v", lens, i, got[i], want[i])
					}
				}
				for i, n := range reads {
					switch {
					case tc.reads == full && i < len(reads)-1 && n != lens[i%len(lens)]:
						t.Fatalf("lens %v: read %d returned %d events with more at hand", lens, i, n)
					case tc.reads == one && n != 1:
						t.Fatalf("lens %v: fallback read %d returned %d events, want 1", lens, i, n)
					}
				}
			}
		})
	}
	// A buffered reader hands over what it holds: far fewer reads than
	// events once the buffer is full of whole events.
	_, reads := drainBatches(t, trace.NewReader(bytes.NewReader(data)), []int{256})
	if len(reads) > 3 {
		t.Fatalf("300 buffered events took %d reads of up to 256: %v", len(reads), reads)
	}
}

// referenceDecode decodes a whole in-memory trace one binary.Uvarint at
// a time: the events, and whether the trace ends in an error rather than
// a clean end between events.
func referenceDecode(data []byte) (events []trace.Event, failed bool) {
	if len(data) < 5 || string(data[:5]) != "RAPS\x01" {
		return nil, true
	}
	for data = data[5:]; len(data) > 0; {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return events, true
		}
		w, kw := binary.Uvarint(data[k:])
		if kw <= 0 {
			return events, true
		}
		events = append(events, trace.Event{Value: v, Weight: w})
		data = data[k+kw:]
	}
	return events, false
}

// FuzzReaderNextBatch checks that batched decoding is exactly Next's: for
// any bytes, read sizes and dst lengths, NextBatch yields the events Next
// yields and ends with the same Err. Next itself is held to a reference
// that decodes the whole input one binary.Uvarint at a time, however the
// reads split it.
func FuzzReaderNextBatch(f *testing.F) {
	var valid bytes.Buffer
	w := trace.NewWriter(&valid)
	for i := uint64(0); i < 200; i++ {
		w.Write(trace.Event{Value: i * 0x9e3779b97f4a7c15, Weight: i%3 + 1})
	}
	w.Write(trace.Event{Value: math.MaxUint64, Weight: math.MaxUint64})
	w.Flush()
	f.Add(valid.Bytes(), uint8(0), []byte{255})
	f.Add(valid.Bytes(), uint8(7), []byte{1, 2, 3})
	f.Add(valid.Bytes()[:valid.Len()-3], uint8(3), []byte{16})
	overflow := append([]byte("RAPS\x01\x05\x01"), bytes.Repeat([]byte{0xff}, 11)...)
	f.Add(overflow, uint8(2), []byte{8})
	f.Add([]byte("RAPS\x02"), uint8(0), []byte{4})
	f.Add([]byte("junk"), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, maxRead uint8, lens []byte) {
		reader := func() *trace.Reader {
			return trace.NewReader(&faults.Reader{R: bytes.NewReader(data), MaxRead: int(maxRead)})
		}
		ref := reader()
		want := trace.Collect(ref)
		refEvents, refFailed := referenceDecode(data)
		if len(want) != len(refEvents) || (ref.Err() != nil) != refFailed {
			t.Fatalf("Next decoded %d events (err %v), the reference %d (failed %v)",
				len(want), ref.Err(), len(refEvents), refFailed)
		}
		for i := range want {
			if want[i] != refEvents[i] {
				t.Fatalf("event %d = %v, the reference decoded %v", i, want[i], refEvents[i])
			}
		}

		sizes := []int{1}
		if len(lens) > 0 {
			sizes = sizes[:0]
			for _, b := range lens {
				sizes = append(sizes, int(b)%300+1)
			}
		}
		rd := reader()
		got, _ := drainBatches(t, rd, sizes)
		if len(got) != len(want) {
			t.Fatalf("NextBatch decoded %d events, Next %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %v, Next decoded %v", i, got[i], want[i])
			}
		}
		if (rd.Err() == nil) != (ref.Err() == nil) ||
			(rd.Err() != nil && rd.Err().Error() != ref.Err().Error()) {
			t.Fatalf("NextBatch ended with Err %v, Next with %v", rd.Err(), ref.Err())
		}
	})
}

// BenchmarkReaderNextBatch times decoding the way rapd's pump reads: an
// in-memory trace of gzip load values (seed 1) drained through NextBatch
// in 256-event reads. It reports ns/event beside the root TreeAdd rows.
func BenchmarkReaderNextBatch(b *testing.B) {
	const n = 1 << 20
	bench, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	src := bench.Values(1, n)
	for range n {
		e, _ := src.Next()
		if err := w.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	dst := make([]trace.Event, 256)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		r := trace.NewReader(bytes.NewReader(data))
		got := 0
		for k := r.NextBatch(dst); k > 0; k = r.NextBatch(dst) {
			got += k
		}
		if got != n || r.Err() != nil {
			b.Fatalf("decoded %d of %d events, err %v", got, n, r.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}
