package faults

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"rap/internal/trace"
)

var errBoom = errors.New("boom")

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestReaderTransparent(t *testing.T) {
	data := payload(1000)
	got, err := io.ReadAll(&Reader{R: bytes.NewReader(data)})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("transparent wrapper changed the stream: err=%v", err)
	}
}

func TestReaderTruncate(t *testing.T) {
	got, err := io.ReadAll(&Reader{R: bytes.NewReader(payload(1000)), TruncateAt: 137})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 137 {
		t.Fatalf("read %d bytes, want 137", len(got))
	}
}

func TestReaderShortReads(t *testing.T) {
	f := &Reader{R: bytes.NewReader(payload(64)), MaxRead: 3}
	buf := make([]byte, 64)
	n, err := f.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("short read returned n=%d err=%v, want 3", n, err)
	}
	rest, err := io.ReadAll(f)
	if err != nil || len(rest) != 61 {
		t.Fatalf("remainder %d bytes err=%v, want 61", len(rest), err)
	}
}

func TestReaderTransientFail(t *testing.T) {
	f := &Reader{R: bytes.NewReader(payload(100)), FailAt: 40, FailErr: errBoom, FailOnce: true}
	var got []byte
	buf := make([]byte, 16)
	sawErr := false
	for {
		n, err := f.Read(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, errBoom) {
			if sawErr {
				t.Fatal("transient error fired twice")
			}
			sawErr = true
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawErr {
		t.Fatal("transient error never fired")
	}
	if !bytes.Equal(got, payload(100)) {
		t.Fatalf("stream with transient error lost bytes: got %d", len(got))
	}
}

func TestReaderHardFail(t *testing.T) {
	f := &Reader{R: bytes.NewReader(payload(100)), FailAt: 10, FailErr: errBoom}
	got, err := io.ReadAll(f)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d bytes before hard failure, want 10", len(got))
	}
}

func TestReaderStallOnce(t *testing.T) {
	f := &Reader{R: bytes.NewReader(payload(32)), StallAt: 8, StallFor: 30 * time.Millisecond}
	start := time.Now()
	got, err := io.ReadAll(f)
	if err != nil || len(got) != 32 {
		t.Fatalf("stalling reader: %d bytes, err=%v", len(got), err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("stream finished in %v, stall never happened", d)
	}
}

func TestReaderCorrupt(t *testing.T) {
	data := payload(64)
	f := &Reader{R: bytes.NewReader(data), CorruptAt: []int64{5, 50}, MaxRead: 7}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		want := data[i]
		if i == 5 || i == 50 {
			want ^= 0xff
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestSourceFailAfter(t *testing.T) {
	src := &Source{
		S:         trace.NewSliceSource([]uint64{1, 2, 3, 4, 5}),
		FailAfter: 3,
		FailErr:   errBoom,
	}
	var got []uint64
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, e.Value)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d events before failure, want 3", len(got))
	}
	if !errors.Is(src.Err(), errBoom) {
		t.Fatalf("Err = %v, want boom", src.Err())
	}
	// Failed sources stay failed.
	if _, ok := src.Next(); ok {
		t.Fatal("source delivered events after failing")
	}
}

func TestSourceCleanEOF(t *testing.T) {
	src := &Source{S: trace.NewSliceSource([]uint64{1, 2})}
	if got := trace.Collect(src); len(got) != 2 || src.Err() != nil {
		t.Fatalf("clean source: %d events, err %v", len(got), src.Err())
	}
}

func TestSourcePropagatesUnderlyingErr(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Write(trace.Event{Value: 1 << 40, Weight: 2})
	w.Flush()
	cut := buf.Bytes()[:buf.Len()-1]
	src := &Source{S: trace.NewReader(bytes.NewReader(cut))}
	trace.Collect(src)
	if src.Err() == nil {
		t.Fatal("underlying truncation error not propagated")
	}
}

func TestSourceStallAndCorrupt(t *testing.T) {
	vals := []uint64{10, 20, 30, 40}
	src := &Source{
		S:            trace.NewSliceSource(vals),
		StallEvery:   2,
		StallFor:     10 * time.Millisecond,
		CorruptEvery: 3,
		CorruptXOR:   0xff,
	}
	start := time.Now()
	got := trace.Collect(src)
	if len(got) != 4 || src.Err() != nil {
		t.Fatalf("collected %d events, err %v", len(got), src.Err())
	}
	if got[2].Value != 30^0xff {
		t.Fatalf("event 3 value %#x, want corrupted %#x", got[2].Value, 30^0xff)
	}
	if got[0].Value != 10 || got[1].Value != 20 || got[3].Value != 40 {
		t.Fatalf("uncorrupted events changed: %v", got)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("two stalls finished in %v", d)
	}
}

// TestSourceNextBatchMatchesNext pins NextBatch to Next for every fault:
// the same events, corrupted at the same ordinals, ending with the same
// Err, and no read of several events holding a stalled ordinal past its
// first.
func TestSourceNextBatchMatchesNext(t *testing.T) {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, v := range vals {
		w.Write(trace.Event{Value: v, Weight: 1})
	}
	w.Flush()
	torn := buf.Bytes()[:buf.Len()-1]
	for _, tc := range []struct {
		name string
		src  func() *Source
	}{
		{"clean", func() *Source { return &Source{S: trace.NewSliceSource(vals)} }},
		{"fail", func() *Source { return &Source{S: trace.NewSliceSource(vals), FailAfter: 700, FailErr: errBoom} }},
		{"fail-at-0", func() *Source { return &Source{S: trace.NewSliceSource(vals), FailErr: errBoom} }},
		{"stall", func() *Source {
			return &Source{S: trace.NewSliceSource(vals), StallEvery: 301, StallFor: time.Millisecond}
		}},
		{"stall-1", func() *Source {
			return &Source{S: trace.NewSliceSource(vals[:20]), StallEvery: 1, StallFor: time.Microsecond}
		}},
		{"stall-all", func() *Source {
			return &Source{S: trace.NewSliceSource(vals[:20]), StallFor: time.Microsecond}
		}},
		{"corrupt", func() *Source {
			return &Source{S: trace.NewSliceSource(vals), CorruptEvery: 7, CorruptXOR: 0xf0}
		}},
		{"all", func() *Source {
			return &Source{S: trace.NewSliceSource(vals), FailAfter: 650, FailErr: errBoom,
				StallEvery: 250, StallFor: time.Millisecond, CorruptEvery: 3, CorruptXOR: 1 << 40}
		}},
		{"torn-reader", func() *Source {
			return &Source{S: trace.NewReader(bytes.NewReader(torn)), CorruptEvery: 5, CorruptXOR: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.src()
			want := trace.Collect(ref)
			for _, size := range []int{1, 7, 256, 2048} {
				src := tc.src()
				var got []trace.Event
				for {
					dst := make([]trace.Event, size)
					n := src.NextBatch(dst)
					if n == 0 {
						break
					}
					if src.StallFor > 0 {
						for ord := uint64(len(got)) + 2; ord <= uint64(len(got)+n); ord++ {
							if src.StallEvery == 0 || ord%src.StallEvery == 0 {
								t.Fatalf("size %d: a read of %d events passed stalled event %d", size, n, ord)
							}
						}
					}
					got = append(got, dst[:n]...)
				}
				if len(got) != len(want) {
					t.Fatalf("size %d: NextBatch yielded %d events, Next %d", size, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("size %d: event %d = %v, Next gave %v", size, i, got[i], want[i])
					}
				}
				if (src.Err() == nil) != (ref.Err() == nil) ||
					(src.Err() != nil && src.Err().Error() != ref.Err().Error()) {
					t.Fatalf("size %d: Err %v, Next ended with %v", size, src.Err(), ref.Err())
				}
			}
		})
	}
}
