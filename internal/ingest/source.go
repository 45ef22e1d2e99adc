package ingest

import (
	"fmt"
	"io"
	"os"
	"sync"

	"rap/internal/trace"
)

// SourceSpec describes one recoverable event source. Open must return a
// fresh stream positioned at the beginning; the supervisor resumes after a
// failure or a restart by reopening and skipping the events already
// accounted for. A source whose Open cannot restart from the beginning (a
// pipe, a socket) still works, but loses the events between the last
// checkpoint and the crash — see ReaderSource.
type SourceSpec struct {
	Name string
	Open func() (trace.Source, error)

	// oneShot marks a source that cannot be opened a second time. It runs
	// without the ReadTimeout stall timer: abandoning a read that is only
	// waiting for its producer would leave nothing to retry with. Only
	// ReaderSource sets it.
	oneShot bool
}

// fileSource pairs a trace.Reader with the file it reads so the
// supervisor's close-on-abandon unblocks and releases it.
type fileSource struct {
	*trace.Reader
	f *os.File
}

func (s *fileSource) Close() error { return s.f.Close() }

// FileSource is a spec for a binary trace file (trace.Writer format). The
// file is reopened from the start on every attempt, so it is fully
// replayable: crash recovery is lossless.
func FileSource(name, path string) SourceSpec {
	return SourceSpec{
		Name: name,
		Open: func() (trace.Source, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			return &fileSource{Reader: trace.NewReader(f), f: f}, nil
		},
	}
}

// ReaderSource is a spec over a one-shot byte stream (stdin, a pipe) in
// the binary trace format. The stream can be opened exactly once; a
// reopen attempt fails, so after a mid-stream error the source exhausts
// its retries and is marked failed rather than silently restarting a
// stream that cannot be rewound. An idle producer is not an error: the
// source is one-shot, so it waits for input however long it pauses.
// Events between the last checkpoint and a crash are lost (and that loss
// is visible as a position the stream can no longer satisfy).
func ReaderSource(name string, r io.Reader) SourceSpec {
	var once sync.Once
	return SourceSpec{
		Name:    name,
		oneShot: true,
		Open: func() (trace.Source, error) {
			var src trace.Source
			once.Do(func() { src = trace.NewReader(r) })
			if src == nil {
				return nil, fmt.Errorf("ingest: source %q is a one-shot stream and cannot be reopened", name)
			}
			return src, nil
		},
	}
}

// GeneratorSource is a spec over a deterministic generator: Open rebuilds
// the source from scratch on every attempt (fn must return an equivalent
// stream each time, e.g. a seeded workload model), which makes it fully
// replayable like a file.
func GeneratorSource(name string, fn func() trace.Source) SourceSpec {
	return SourceSpec{
		Name: name,
		Open: func() (trace.Source, error) { return fn(), nil },
	}
}
