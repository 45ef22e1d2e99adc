package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Binary trace file format: the magic "RAPS", a version byte, then one
// uvarint pair (value, weight) per event. Compact, streamable, and
// self-describing enough for the cmd tools to exchange traces.

const (
	fileMagic   = "RAPS"
	fileVersion = 1
)

// Writer encodes events to an io.Writer in the binary trace format.
type Writer struct {
	w      *bufio.Writer
	opened bool
}

// NewWriter returns a trace writer over w. The header is written on the
// first event (or on Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (tw *Writer) header() error {
	if tw.opened {
		return nil
	}
	tw.opened = true
	if _, err := tw.w.WriteString(fileMagic); err != nil {
		return err
	}
	return tw.w.WriteByte(fileVersion)
}

// Write appends one event.
func (tw *Writer) Write(e Event) error {
	if err := tw.header(); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], e.Value)
	n += binary.PutUvarint(buf[n:], e.Weight)
	_, err := tw.w.Write(buf[:n])
	return err
}

// Flush writes any buffered data (and the header, if no event was ever
// written) to the underlying writer.
func (tw *Writer) Flush() error {
	if err := tw.header(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader decodes a binary trace stream. It implements Source; decode
// errors surface through Err after Next returns ok=false.
type Reader struct {
	r      *bufio.Reader
	opened bool
	err    error
}

// readBufSize is the Reader's buffer: the default pipe capacity, so a
// producer writing through a pipe can fill it in one read, and one refill
// serves thousands of events.
const readBufSize = 64 << 10

// NewReader returns a trace reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, readBufSize)}
}

func (tr *Reader) open() error {
	if tr.opened {
		return nil
	}
	tr.opened = true
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr.r, magic); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic) != fileMagic {
		return errors.New("trace: bad magic, not a RAP trace file")
	}
	ver, err := tr.r.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != fileVersion {
		return fmt.Errorf("trace: unsupported version %d", ver)
	}
	return nil
}

// Next implements Source. An event whose bytes are all buffered is
// decoded in place; otherwise the slow path reads byte by byte, refilling
// the buffer and reporting truncation and malformed varints.
func (tr *Reader) Next() (Event, bool) {
	if tr.err != nil {
		return Event{}, false
	}
	if err := tr.open(); err != nil {
		tr.err = err
		return Event{}, false
	}
	var one [1]Event
	if tr.decodeBuffered(one[:]) == 1 {
		return one[0], true
	}
	v, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			tr.err = fmt.Errorf("trace: reading value: %w", err)
		}
		return Event{}, false
	}
	w, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = fmt.Errorf("trace: truncated event: %w", err)
		return Event{}, false
	}
	return Event{Value: v, Weight: w}, true
}

// NextBatch implements BatchSource. The first event goes through Next,
// which reads the header, refills the buffer and reports errors; the rest
// are the whole events already buffered, decoded in place.
func (tr *Reader) NextBatch(dst []Event) int {
	e, ok := tr.Next()
	if !ok {
		return 0
	}
	dst[0] = e
	return 1 + tr.decodeBuffered(dst[1:])
}

// decodeBuffered decodes up to len(dst) whole events from the bytes
// already buffered and consumes them. An incomplete or malformed varint
// ends it untouched, so the slow path in Next reads or reports it exactly
// as it would have without the fast path.
func (tr *Reader) decodeBuffered(dst []Event) int {
	// Peek and Discard stay within the buffered bytes, so neither fails.
	buf, _ := tr.r.Peek(tr.r.Buffered())
	n, off := 0, 0
	for n < len(dst) {
		v, k := uvarint(buf[off:])
		if k <= 0 {
			break
		}
		w, kw := uvarint(buf[off+k:])
		if kw <= 0 {
			break
		}
		dst[n] = Event{Value: v, Weight: w}
		n++
		off += k + kw
	}
	_, _ = tr.r.Discard(off)
	return n
}

// uvarint is binary.Uvarint a word at a time. With 8 bytes at hand it
// loads them as one little-endian word and finds the terminating byte
// (the first whose continuation bit is clear) from the trailing zeros of
// the inverted continuation bits; the bytes past it are masked off before
// packing. A 9- or 10-byte varint, a window too short for the word, and
// malformed input take binary.Uvarint, which returns what it always has
// for them.
func uvarint(b []byte) (uint64, int) {
	if len(b) >= 8 {
		x := binary.LittleEndian.Uint64(b)
		if stop := ^x & 0x8080808080808080; stop != 0 {
			end := bits.TrailingZeros64(stop) // bit 7 of the last byte
			return pack7(x & (^uint64(0) >> (63 - end))), end/8 + 1
		}
	}
	return binary.Uvarint(b)
}

// pack7 joins the 7-bit groups of x's eight bytes, low byte first, into
// 56 bits, dropping each byte's top bit, in three mask-and-shift steps:
// pairs of bytes into 14-bit lanes, pairs of those into 28-bit lanes, and
// the two halves into one.
func pack7(x uint64) uint64 {
	x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
	x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
	return x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
}

// Err returns the first decode error encountered, or nil on clean EOF.
func (tr *Reader) Err() error { return tr.err }

// WriteText renders events as "hexvalue weight" lines, the
// post-processing-friendly ASCII form.
func WriteText(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if _, err := fmt.Fprintf(bw, "%x %d\n", e.Value, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the WriteText format.
func ReadText(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		var e Event
		if _, err := fmt.Sscanf(txt, "%x %d", &e.Value, &e.Weight); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
