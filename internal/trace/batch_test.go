package trace_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
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

func encode(t testing.TB, events []trace.Event) []byte {
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

// widthValues are the shortest and longest value of each varint width
// from 1 to 10 bytes.
func widthValues() []uint64 {
	var vals []uint64
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		lo := uint64(1) << (7 * (n - 1))
		hi := lo<<7 - 1
		if n == 1 {
			lo = 0
		}
		if n == binary.MaxVarintLen64 {
			hi = math.MaxUint64
		}
		vals = append(vals, lo, hi)
	}
	return vals
}

// padding returns whole events that encode to exactly p bytes: events of
// one-byte varints, two bytes each, led by a three-byte event when p is
// odd. No event is one byte long, so p must not be 1.
func padding(p int) []trace.Event {
	var pad []trace.Event
	if p%2 == 1 {
		pad = append(pad, trace.Event{Value: 200, Weight: 1})
		p -= 3
	}
	for ; p > 0; p -= 2 {
		pad = append(pad, trace.Event{Value: uint64(p), Weight: 1})
	}
	return pad
}

// windowOffsets are padding lengths that put the next event at each
// offset 0–15 of a 16-byte window; offset 1 takes 17 bytes.
var windowOffsets = []int{0, 17, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// decodeBoth reads data through NextBatch in 256-event reads and through
// Next, returning both event lists and both readers' errors.
func decodeBoth(t *testing.T, data []byte) (batch, next []trace.Event, batchErr, nextErr error) {
	t.Helper()
	rb := trace.NewReader(bytes.NewReader(data))
	batch, _ = drainBatches(t, rb, []int{256})
	rn := trace.NewReader(bytes.NewReader(data))
	next = trace.Collect(rn)
	return batch, next, rb.Err(), rn.Err()
}

// TestDecodeEveryWidthAtEveryOffset places one event of every value width
// (its shortest and longest value) and of weights 0, 1, 127, 128 and
// 2^63 at each offset 0–15 of a 16-byte window, followed by 0–15 bytes
// of events, so each decodes both in the word loop and a byte at a time
// at the end of the buffer. NextBatch and Next must both decode the
// stream exactly as referenceDecode does.
func TestDecodeEveryWidthAtEveryOffset(t *testing.T) {
	for _, v := range widthValues() {
		for _, w := range []uint64{0, 1, 127, 128, 1 << 63} {
			for _, lead := range windowOffsets {
				for _, trail := range windowOffsets {
					events := append(padding(lead), trace.Event{Value: v, Weight: w})
					data := encode(t, append(events, padding(trail)...))
					want, failed := referenceDecode(data)
					if failed {
						t.Fatalf("reference failed on a valid stream % x", data)
					}
					batch, next, batchErr, nextErr := decodeBoth(t, data)
					if !slices.Equal(batch, want) || !slices.Equal(next, want) || batchErr != nil || nextErr != nil {
						t.Fatalf("value %#x weight %#x, %d bytes before, %d after: NextBatch %v (err %v), Next %v (err %v), want %v",
							v, w, lead, trail, batch, batchErr, next, nextErr, want)
					}
				}
			}
		}
	}
}

// TestDecodeMalformedAtEveryOffset puts an 11-byte run of continuation
// bytes, and a varint whose 10th byte is 2, as a value and as a weight at
// each offset 0–15 of a 16-byte window, with nothing or 16 bytes of
// events behind it, and ends streams 8 and 9 bytes into a 10-byte weight
// after an 8-byte value, a weight too near the end for the word loop to
// read. NextBatch and Next must decode the events before each and then
// report the error text of the byte-at-a-time path, which a reader fed
// one byte per read takes for every event.
func TestDecodeMalformedAtEveryOffset(t *testing.T) {
	run11 := bytes.Repeat([]byte{0x80}, 11)
	tenth2 := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	value8 := binary.AppendUvarint(nil, 1<<56-1)
	weight10 := binary.AppendUvarint(nil, 1<<63)
	for _, tc := range []struct {
		name   string
		bad    []byte
		trails []int
	}{
		{"value of 11 continuation bytes", run11, []int{0, 16}},
		{"value with a 10th byte of 2", append(bytes.Clone(tenth2), 0x01), []int{0, 16}},
		{"weight of 11 continuation bytes", append([]byte{0x05}, run11...), []int{0, 16}},
		{"weight with a 10th byte of 2", append([]byte{0x05}, tenth2...), []int{0, 16}},
		{"end 8 bytes into a 10-byte weight", append(bytes.Clone(value8), weight10[:8]...), []int{0}},
		{"end 9 bytes into a 10-byte weight", append(bytes.Clone(value8), weight10[:9]...), []int{0}},
	} {
		for _, lead := range windowOffsets {
			for _, trail := range tc.trails {
				data := append(encode(t, padding(lead)), tc.bad...)
				data = append(data, encode(t, padding(trail))[5:]...)
				want, failed := referenceDecode(data)
				ref := trace.NewReader(&faults.Reader{R: bytes.NewReader(data), MaxRead: 1})
				if got := trace.Collect(ref); !failed || !slices.Equal(got, want) || ref.Err() == nil {
					t.Fatalf("%s: byte-at-a-time reader decoded %v (err %v), the reference %v (failed %v)",
						tc.name, got, ref.Err(), want, failed)
				}
				batch, next, batchErr, nextErr := decodeBoth(t, data)
				for path, got := range map[string]struct {
					events []trace.Event
					err    error
				}{"NextBatch": {batch, batchErr}, "Next": {next, nextErr}} {
					if !slices.Equal(got.events, want) || got.err == nil || got.err.Error() != ref.Err().Error() {
						t.Fatalf("%s, %d bytes before, %d after: %s decoded %v (err %v), want %v (err %v)",
							tc.name, lead, trail, path, got.events, got.err, want, ref.Err())
					}
				}
			}
		}
	}
}

// TestDecodeLoopCoverage reads 1M events of each stream shape from memory
// through NextBatch in 256-event reads and counts the events decoded a
// byte at a time, outside the word loop. Only the last bytes of each
// 64 KiB refill and the event straddling it may leave the loop: at most
// 0.1% of the events. A loop that left on a 9- or 10-byte value, handing
// the rest of its batch to binary.Uvarint, decodes every event right
// and fails only here.
func TestDecodeLoopCoverage(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			data := encodeSource(t, shape.src(shapeEvents), shapeEvents)
			r := trace.NewReader(bytes.NewReader(data))
			dst := make([]trace.Event, 256)
			got := 0
			for k := r.NextBatch(dst); k > 0; k = r.NextBatch(dst) {
				got += k
			}
			if got != shapeEvents || r.Err() != nil {
				t.Fatalf("decoded %d of %d events, err %v", got, shapeEvents, r.Err())
			}
			slow := trace.SlowEvents(r)
			t.Logf("%d of %d events decoded a byte at a time", slow, got)
			if slow > shapeEvents/1000 {
				t.Fatalf("%d of %d events left the word loop, more than 0.1%%", slow, got)
			}
		})
	}
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
	// Long valid streams mixing every width, read whole (maxRead 0) so
	// most of each decodes in the word loop: values of every width with
	// weight 1, then every pairing of value and weight widths.
	vals := widthValues()
	var oneWeight, everyWeight []trace.Event
	for i := range 40 * len(vals) {
		oneWeight = append(oneWeight, trace.Event{Value: vals[i%len(vals)], Weight: 1})
		everyWeight = append(everyWeight, trace.Event{Value: vals[i%len(vals)], Weight: vals[(i/len(vals)+i)%len(vals)]})
	}
	f.Add(encode(f, oneWeight), uint8(0), []byte{255})
	f.Add(encode(f, everyWeight), uint8(0), []byte{255, 0, 17})
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

// shapes are the streams rapd's benchmark replays, 1M events of each:
// gzip load values (replay-gzip), the same with every other event a
// never-repeating 64-bit key (replay-flood, half its values 9 or 10
// bytes long), and mcf load addresses (live-mix).
var shapes = []struct {
	name string
	src  func(n uint64) trace.Source
}{
	{"gzip-values", func(n uint64) trace.Source { return benchmark("gzip").Values(1, n) }},
	{"flood-mix", func(n uint64) trace.Source {
		return workload.FloodMix(1, 0.5, benchmark("gzip").Values(1, n))
	}},
	{"mcf-addresses", func(n uint64) trace.Source {
		loads := benchmark("mcf").Loads(1, n)
		return trace.FuncSource(func() (uint64, bool) { return loads.Next().Addr, true })
	}},
}

const shapeEvents = 1 << 20

func benchmark(name string) workload.Benchmark {
	b, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// encodeSource writes the first n events of src as a trace.
func encodeSource(tb testing.TB, src trace.Source, n int) []byte {
	events := make([]trace.Event, n)
	for i := range events {
		events[i], _ = src.Next()
	}
	return encode(tb, events)
}

// BenchmarkReaderNextBatch times decoding the way rapd's pump reads: an
// in-memory trace of each stream shape drained through NextBatch in
// 256-event reads. It reports ns/event beside the root TreeAdd rows.
func BenchmarkReaderNextBatch(b *testing.B) {
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			data := encodeSource(b, shape.src(shapeEvents), shapeEvents)
			dst := make([]trace.Event, 256)
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				r := trace.NewReader(bytes.NewReader(data))
				got := 0
				for k := r.NextBatch(dst); k > 0; k = r.NextBatch(dst) {
					got += k
				}
				if got != shapeEvents || r.Err() != nil {
					b.Fatalf("decoded %d of %d events, err %v", got, shapeEvents, r.Err())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/shapeEvents, "ns/event")
		})
	}
}
