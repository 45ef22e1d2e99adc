package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// NewReader returns a trace reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
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

// Next implements Source.
func (tr *Reader) Next() (Event, bool) {
	if tr.err != nil {
		return Event{}, false
	}
	if err := tr.open(); err != nil {
		tr.err = err
		return Event{}, false
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
// are the whole events already buffered, decoded in place. An incomplete
// or malformed varint ends the batch untouched, so the next Next call
// reads or reports it exactly as it would have without batching.
func (tr *Reader) NextBatch(dst []Event) int {
	e, ok := tr.Next()
	if !ok {
		return 0
	}
	dst[0] = e
	// Peek and Discard stay within the buffered bytes, so neither fails.
	buf, _ := tr.r.Peek(tr.r.Buffered())
	n, off := 1, 0
	for n < len(dst) {
		v, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			break
		}
		w, kw := binary.Uvarint(buf[off+k:])
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
