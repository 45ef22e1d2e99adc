package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]uint64{1, 2, 3})
	got := Collect(src)
	if len(got) != 3 || got[0] != (Event{1, 1}) || got[2] != (Event{3, 1}) {
		t.Fatalf("Collect = %v", got)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded an event")
	}
}

func TestFuncSource(t *testing.T) {
	i := 0
	src := FuncSource(func() (uint64, bool) {
		i++
		return uint64(i), i <= 4
	})
	if got := Collect(src); len(got) != 4 {
		t.Fatalf("FuncSource yielded %d events, want 4", len(got))
	}
}

func TestLimit(t *testing.T) {
	src := FuncSource(func() (uint64, bool) { return 7, true })
	got := Collect(Limit(src, 10))
	if len(got) != 10 {
		t.Fatalf("Limit(10) yielded %d", len(got))
	}
	if got := Collect(Limit(NewSliceSource([]uint64{1}), 10)); len(got) != 1 {
		t.Fatalf("Limit past exhaustion yielded %d", len(got))
	}
}

func TestCoalescingBufferMergesWindow(t *testing.T) {
	vals := []uint64{1, 1, 1, 2, 2, 3, 4, 4}
	b := NewCoalescingBuffer(NewSliceSource(vals), 8)
	got := Collect(b)
	want := []Event{{1, 3}, {2, 2}, {3, 1}, {4, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	if f := b.CompressionFactor(); f != 2 {
		t.Fatalf("compression factor %v, want 2", f)
	}
	if b.EventsIn() != 8 || b.EventsOut() != 4 {
		t.Fatalf("in/out = %d/%d", b.EventsIn(), b.EventsOut())
	}
}

func TestCoalescingBufferWindowBoundary(t *testing.T) {
	// Same value across two windows is emitted twice: coalescing is
	// within a buffer window only, matching a real hardware buffer.
	vals := []uint64{9, 9, 9, 9}
	b := NewCoalescingBuffer(NewSliceSource(vals), 2)
	got := Collect(b)
	if len(got) != 2 || got[0] != (Event{9, 2}) || got[1] != (Event{9, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestCoalescingBufferPreservesWeight(t *testing.T) {
	f := func(vals []byte, capSeed uint8) bool {
		capacity := int(capSeed)%64 + 1
		u := make([]uint64, len(vals))
		var want uint64
		for i, v := range vals {
			u[i] = uint64(v % 8) // force duplicates
			want++
		}
		b := NewCoalescingBuffer(NewSliceSource(u), capacity)
		var got uint64
		for {
			e, ok := b.Next()
			if !ok {
				break
			}
			got += e.Weight
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingBufferHighLocality(t *testing.T) {
	// A code-like stream (tight loop over a few blocks) must compress by
	// roughly the window size over the distinct count — the paper's
	// "factor of 10" observation.
	var vals []uint64
	for i := 0; i < 10_000; i++ {
		vals = append(vals, uint64(i%16))
	}
	b := NewCoalescingBuffer(NewSliceSource(vals), 1024)
	Collect(b)
	if f := b.CompressionFactor(); f < 32 {
		t.Fatalf("high-locality stream compressed only %.1fx", f)
	}
}

func TestCoalescingBufferPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewCoalescingBuffer(NewSliceSource(nil), 0)
}

func TestBinaryRoundTrip(t *testing.T) {
	events := []Event{{0, 1}, {1 << 40, 3}, {^uint64(0), 1}, {42, 1 << 30}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got := Collect(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(events) {
		t.Fatalf("round trip %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], events[i])
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if got := Collect(r); len(got) != 0 || r.Err() != nil {
		t.Fatalf("empty trace: %v, err %v", got, r.Err())
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE\x01"),
		"bad version": []byte("RAPS\x09"),
	} {
		r := NewReader(bytes.NewReader(data))
		if _, ok := r.Next(); ok || r.Err() == nil {
			t.Errorf("%s: reader accepted garbage", name)
		}
	}
}

func TestReaderTruncatedEvent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Event{Value: 300, Weight: 5})
	w.Flush()
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-1]))
	if _, ok := r.Next(); ok {
		t.Fatal("truncated event decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

// A trace cut off mid-event — whether inside the value varint, between
// value and weight, or inside the weight varint — must surface a decode
// error through Err, never end as a clean EOF: an ingest daemon relies on
// the distinction to tell "stream done" from "stream damaged, retry".
func TestReaderTruncationMidEventIsError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Multi-byte varints on both sides so every cut lands mid-event.
	w.Write(Event{Value: 1 << 40, Weight: 1 << 20})
	w.Flush()
	full := buf.Bytes()
	const header = 5 // magic + version
	if len(full) <= header+2 {
		t.Fatalf("test event encoded too small: %d bytes", len(full))
	}
	for cut := header + 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() == nil {
			t.Fatalf("trace cut to %d/%d bytes ended as clean EOF", cut, len(full))
		}
	}
	// Sanity: the uncut trace is a clean EOF.
	r := NewReader(bytes.NewReader(full))
	if got := Collect(r); len(got) != 1 || r.Err() != nil {
		t.Fatalf("full trace: %d events, err %v", len(got), r.Err())
	}
}

// FuzzUvarint holds the word-at-a-time varint steps to binary.Uvarint at
// every position of the input, followed first by zero bytes and then by
// 0xff bytes, as decodeBuffered sees a varint with more bytes buffered
// behind it: what the steps decode must be what binary.Uvarint decodes,
// and they may reject only what binary.Uvarint rejects. The corpus has
// the shortest and longest varint of each length from 1 to 10 bytes,
// alone and padded, a 10th byte that overflows, and an 11-byte run of
// continuation bytes.
func FuzzUvarint(f *testing.F) {
	pad := bytes.Repeat([]byte{0x81}, 9)
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		lo := uint64(1) << (7 * (n - 1))
		hi := lo<<7 - 1
		if n == 1 {
			lo = 0
		}
		if n == binary.MaxVarintLen64 {
			hi = ^uint64(0)
		}
		for _, x := range []uint64{lo, hi} {
			enc := binary.AppendUvarint(nil, x)
			f.Add(enc)
			f.Add(append(enc, pad...))
		}
	}
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02, 0x00))
	f.Add(bytes.Repeat([]byte{0x80}, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fill := range []byte{0x00, 0xff} {
			padded := append(bytes.Clone(data), bytes.Repeat([]byte{fill}, binary.MaxVarintLen64)...)
			for i := range data {
				win := padded[i:]
				v, k := uvarint(win)
				wv, wk := binary.Uvarint(win)
				if k > 0 && (v != wv || k != wk) || k == 0 && wk > 0 {
					t.Fatalf("word steps on % x = (%d, %d), binary.Uvarint = (%d, %d)", win, v, k, wv, wk)
				}
			}
		}
	})
}

// uvarint decodes the varint at the start of b, which holds at least 10
// bytes, in decodeBuffered's steps: length 0 for an overflow.
func uvarint(b []byte) (uint64, int) {
	v, k := uvarintWord(binary.LittleEndian.Uint64(b))
	if k > 8 {
		v, k = uvarintLong(v, b[8], b[9])
	}
	return v, k
}

func TestTextRoundTrip(t *testing.T) {
	events := []Event{{0xdead, 2}, {0, 1}, {1 << 50, 7}}
	var sb strings.Builder
	if err := WriteText(&sb, &staticSource{events: events}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("text round trip %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], events[i])
		}
	}
}

func TestReadTextBadLine(t *testing.T) {
	if _, err := ReadText(strings.NewReader("zzz not hex\n")); err == nil {
		t.Fatal("ReadText accepted garbage line")
	}
}

type staticSource struct {
	events []Event
	pos    int
}

func (s *staticSource) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}
