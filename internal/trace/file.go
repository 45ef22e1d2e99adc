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
	slow   uint64 // events decoded a byte at a time, outside the word loop
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

// Next implements Source: a NextBatch of one event.
func (tr *Reader) Next() (Event, bool) {
	var one [1]Event
	ok := tr.NextBatch(one[:]) == 1
	return one[0], ok
}

// NextBatch implements BatchSource. The whole events already buffered
// decode in place. When none is, one event is read byte by byte,
// refilling the buffer and reporting truncation and malformed varints,
// and the whole events buffered behind it follow.
func (tr *Reader) NextBatch(dst []Event) int {
	if tr.err != nil {
		return 0
	}
	if err := tr.open(); err != nil {
		tr.err = err
		return 0
	}
	if n := tr.decodeBuffered(dst); n > 0 {
		return n
	}
	v, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			tr.err = fmt.Errorf("trace: reading value: %w", err)
		}
		return 0
	}
	w, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = fmt.Errorf("trace: truncated event: %w", err)
		return 0
	}
	tr.slow++
	dst[0] = Event{Value: v, Weight: w}
	return 1 + tr.decodeBuffered(dst[1:])
}

// decodeBuffered decodes up to len(dst) whole events from the bytes
// already buffered and consumes them. While 16 bytes or more remain, it
// decodes each event from word loads with no call per varint: a value of
// 1–10 bytes from one 8-byte load and at most two byte loads, and a
// weight from one byte load, or by the value's steps when it is longer
// than a byte. The last bytes, a long weight too near their end for a
// word, and malformed input fall to binary.Uvarint, a byte at a time. An
// incomplete or malformed varint stops it untouched, so the byte-at-a-time
// read in NextBatch reads or reports it exactly as it would have without
// the word loop.
func (tr *Reader) decodeBuffered(dst []Event) int {
	// Peek and Discard stay within the buffered bytes, so neither fails.
	buf, _ := tr.r.Peek(tr.r.Buffered())
	n, off := 0, 0
	for ; n < len(dst) && len(buf)-off >= 16; n++ {
		v, k := uvarintWord(binary.LittleEndian.Uint64(buf[off:]))
		if k > 8 {
			if v, k = uvarintLong(v, buf[off+8], buf[off+9]); k == 0 {
				break
			}
		}
		p := off + k
		w, kw := uint64(buf[p]), 1
		if w >= 0x80 {
			if len(buf)-p < 10 {
				break
			}
			if w, kw = uvarintWord(binary.LittleEndian.Uint64(buf[p:])); kw > 8 {
				if w, kw = uvarintLong(w, buf[p+8], buf[p+9]); kw == 0 {
					break
				}
			}
		}
		dst[n] = Event{Value: v, Weight: w}
		off = p + kw
	}
	for ; n < len(dst); n++ {
		v, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			break
		}
		w, kw := binary.Uvarint(buf[off+k:])
		if kw <= 0 {
			break
		}
		dst[n] = Event{Value: v, Weight: w}
		off += k + kw
		tr.slow++
	}
	_, _ = tr.r.Discard(off)
	return n
}

// uvarintWord decodes the varint that starts the little-endian word x.
// It finds the terminating byte (the first whose continuation bit is
// clear) from the trailing zeros of the inverted continuation bits and
// masks off the bytes past it before packing, returning the value and
// its length. When all eight bytes continue it returns their 56 bits and
// length 9, which uvarintLong completes.
func uvarintWord(x uint64) (uint64, int) {
	stop := ^x & 0x8080808080808080
	k := 9
	if stop != 0 {
		k = bits.TrailingZeros64(stop)/8 + 1
	}
	return pack7(x & (stop ^ (stop - 1))), k
}

// uvarintLong completes a varint whose first eight bytes packed to v,
// given its 9th and 10th bytes: the value and a length of 9 or 10, or
// length 0 where binary.Uvarint reports an overflow (a 10th byte above
// 1, or one that continues).
func uvarintLong(v uint64, b8, b9 byte) (uint64, int) {
	if b8 < 0x80 {
		return v | uint64(b8)<<56, 9
	}
	if b9 > 1 {
		return 0, 0
	}
	return v | uint64(b8&0x7f)<<56 | uint64(b9)<<63, 10
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
