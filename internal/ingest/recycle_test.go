package ingest

import (
	"context"
	"fmt"
	"testing"

	"rap/internal/core"
	"rap/internal/trace"
)

// seqSource yields n events whose values encode (source id, sequence
// number) as id<<32 | seq. Reads vary in size — full, a few events, one —
// so recycled buffers are refilled to different depths.
type seqSource struct {
	id, pos, n uint64
	calls      int
}

func (s *seqSource) Next() (trace.Event, bool) {
	var e [1]trace.Event
	return e[0], s.NextBatch(e[:]) == 1
}

func (s *seqSource) NextBatch(dst []trace.Event) int {
	k := len(dst)
	switch s.calls % 3 {
	case 1:
		k = 1 + s.calls%len(dst)
	case 2:
		k = 1
	}
	s.calls++
	k = int(min(uint64(k), s.n-s.pos))
	for i := range dst[:k] {
		dst[i] = trace.Event{Value: s.id<<32 | s.pos, Weight: 1}
		s.pos++
	}
	return k
}

func seqSpec(id, n uint64) SourceSpec {
	return GeneratorSource(fmt.Sprintf("seq%d", id), func() trace.Source {
		return &seqSource{id: id, n: n}
	})
}

// orderTap records, per source, the sequence numbers its shard applied,
// and every break in order. It runs under the shard lock, and each source
// is pinned to one shard, so a source's record is only touched there.
type orderTap struct {
	next   map[uint64]uint64 // next expected sequence number per source
	seen   map[uint64]uint64
	gaps   map[uint64]uint64
	broken []string
}

func (o *orderTap) Tap(p, _ uint64) {
	id, seq := p>>32, p&(1<<32-1)
	switch want, ok := o.next[id]; {
	case ok && seq < want:
		o.broken = append(o.broken, fmt.Sprintf("source %d: seq %d after %d", id, seq, want-1))
	case ok && seq > want:
		o.gaps[id] += seq - want
	}
	o.next[id] = seq + 1
	o.seen[id]++
}

func (o *orderTap) TreeReplaced() {}

// TestRecycledBuffersKeepOrder checks that a read buffer goes back to its
// source's free list only once nothing reads it: 3 sources over 2
// shards, under Block and under DropNewest with a queue of 2, each
// source's events reach its shard in order with no repeats, and under
// Block with no gaps. A buffer recycled while still queued would be
// refilled under the applier and show up here as repeated or reordered
// events (and as a data race under -race). Source 0 resumes from a
// checkpoint 10 events into the stream, so its first read is trimmed by
// the skip; the free list must get that whole buffer back, not the
// trimmed run.
func TestRecycledBuffersKeepOrder(t *testing.T) {
	const n, resumeAt, batchLen = 20_000, 10, 64
	for _, drop := range []DropPolicy{Block, DropNewest} {
		t.Run(fmt.Sprintf("drop=%d", drop), func(t *testing.T) {
			dir := t.TempDir()
			first := testOptions(2)
			first.Tree = core.DefaultConfig()
			first.CheckpointDir = dir
			first.BatchLen = batchLen
			in, err := Open(first, []SourceSpec{seqSpec(0, resumeAt)})
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			opts := first
			opts.Drop = drop
			opts.QueueLen = 4
			if drop == DropNewest {
				opts.QueueLen = 2
			}
			in, err = Open(opts, []SourceSpec{seqSpec(0, n), seqSpec(1, n), seqSpec(2, n)})
			if err != nil {
				t.Fatal(err)
			}
			taps := make([]*orderTap, in.engine.Shards())
			in.engine.SetShardTaps(func(i int) core.Tap {
				taps[i] = &orderTap{next: map[uint64]uint64{0: resumeAt}, seen: map[uint64]uint64{}, gaps: map[uint64]uint64{}}
				return taps[i]
			})
			if err := in.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			st := in.Stats()
			for id, src := range in.sources {
				tap := taps[src.queue.idx]
				for _, b := range tap.broken {
					t.Error(b)
				}
				ss := st.Sources[id]
				offered := uint64(n)
				if id == 0 {
					offered -= resumeAt
				}
				applied := ss.Applied
				if id == 0 {
					applied -= resumeAt // recovered from the first run
				}
				if got := tap.seen[uint64(id)]; got != applied || applied+ss.Dropped != offered {
					t.Errorf("source %d: tap saw %d, applied %d, dropped %d, want applied+dropped = %d",
						id, got, applied, ss.Dropped, offered)
				}
				if drop == Block && (tap.gaps[uint64(id)] != 0 || tap.next[uint64(id)] != n) {
					t.Errorf("source %d under Block: %d events skipped, last seq %d, want none skipped through %d",
						id, tap.gaps[uint64(id)], tap.next[uint64(id)]-1, n-1)
				}
				t.Logf("source %d: applied %d, dropped %d, %d buffers free", id, applied, ss.Dropped, len(src.free))
				for len(src.free) > 0 {
					if buf := <-src.free; len(buf) != batchLen {
						t.Errorf("source %d: free list holds a %d-event buffer, want whole %d-event buffers", id, len(buf), batchLen)
					}
				}
			}
		})
	}
}
