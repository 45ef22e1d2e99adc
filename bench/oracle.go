package main

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"

	"rap/internal/core"
	"rap/internal/ingest"
)

// rapdShards is rapd's default shard count; the oracle reopens its
// checkpoints with the same count.
const rapdShards = 4

// oracle checks rapd's answers against exact truth. With a single source
// every epoch cut is a prefix of the stream, so each answer is checked
// against the truth of exactly the prefix it describes.
type oracle struct {
	in    *input
	admit bool
	cfg   core.Config
	// slack is the cold-start part of the certified underestimate budget,
	// shards·H·(MinSplitCount+1) for weight-1 events (see internal/audit):
	// it dominates ε·n only while the stream is short.
	slack      float64
	violations []string
}

func newOracle(in *input, admit bool) *oracle {
	cfg, err := core.DefaultConfig().Validate()
	if err != nil {
		panic(err) // the default configuration is valid by construction
	}
	return &oracle{
		in:    in,
		admit: admit,
		cfg:   cfg,
		slack: float64(rapdShards * cfg.Height() * int(cfg.MinSplitCount+1)),
	}
}

func (o *oracle) fail(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// budget is the certified bound on truth − estimate for a b-adic range
// after n events.
func (o *oracle) budget(n uint64) float64 {
	return o.cfg.Epsilon*float64(n) + o.slack
}

// prefixes maps each answer to the stream prefix its epoch describes, or
// -1 where that is unknown. Without admission the cut is the prefix. With
// admission the cut counts admitted events only; /v1/stats adds the
// refused mass, and other answers from the same epoch inherit that prefix.
func (o *oracle) prefixes(answers []answer) []int64 {
	p := make([]int64, len(answers))
	bySeq := map[uint64]int64{}
	for i, a := range answers {
		p[i] = -1
		if !a.ok {
			continue
		}
		if !o.admit {
			p[i] = int64(a.cut)
		} else if a.kind == qStats {
			p[i] = int64(a.cut + a.unadm)
			bySeq[a.seq] = p[i]
		}
	}
	for i, a := range answers {
		if p[i] < 0 && a.ok {
			if v, ok := bySeq[a.seq]; ok {
				p[i] = v
			}
		}
	}
	return p
}

// checkAnswers checks one daemon run's answers, in response order, and
// returns the freshness of each answer that arrived while the stream was
// still being written and whose prefix is known and non-empty: its
// response time minus the time the newest event it reflects was written.
func (o *oracle) checkAnswers(answers []answer, fl *feedLog) []time.Duration {
	var fresh []time.Duration
	var lastSeq, lastCut uint64
	prefix := o.prefixes(answers)
	for i, a := range answers {
		if !a.ok {
			continue
		}
		if a.seq < lastSeq || a.cut < lastCut {
			o.fail("answer %d (%s): epoch went backwards: seq %d cut %d after seq %d cut %d",
				i, a.kind, a.seq, a.cut, lastSeq, lastCut)
		}
		lastSeq, lastCut = max(lastSeq, a.seq), max(lastCut, a.cut)
		// The most events rapd can have seen when it answered: every chunk
		// whose write had begun.
		seen := o.writtenBy(fl, a.done)
		p := prefix[i]
		if p > int64(seen) || (p < 0 && a.cut > seen) {
			o.fail("answer %d (%s): epoch reflects %d events but only %d were written", i, a.kind, max(p, int64(a.cut)), seen)
			continue
		}
		if p > 0 && !a.done.After(fl.done[len(fl.done)-1]) {
			fresh = append(fresh, a.done.Sub(fl.done[o.in.chunkOf(uint64(p))]))
		}
		if a.kind != qEstimate {
			continue
		}
		r := o.in.ranges[a.rng]
		if p < 0 {
			// Admission hides the exact prefix; it lies between the
			// admitted cut and everything written, and truth only grows
			// with the prefix, so these one-sided checks are sound.
			if hi := o.in.truth.count(a.rng, int(a.cut)); hi > a.high {
				o.fail("answer %d: [%#x,%#x] truth at cut %d is %d > high %d", i, r.Lo, r.Hi, a.cut, hi, a.high)
			}
			if lo := o.in.truth.count(a.rng, int(seen)); a.low > lo {
				o.fail("answer %d: [%#x,%#x] low %d > truth %d of all %d written events", i, r.Lo, r.Hi, a.low, lo, seen)
			}
			continue
		}
		o.checkRange(fmt.Sprintf("answer %d at prefix %d", i, p), a.rng, uint64(p), a.est, a.low, a.high)
	}
	return fresh
}

// writtenBy counts the events whose write had started by t.
func (o *oracle) writtenBy(fl *feedLog, t time.Time) uint64 {
	k := sort.Search(len(fl.start), func(i int) bool {
		return fl.start[i].IsZero() || fl.start[i].After(t)
	})
	if k == 0 {
		return 0
	}
	return uint64(o.in.chunks[k-1].evEnd)
}

// checkRange checks one answer for check range r against the truth of
// the first p events: low ≤ truth ≤ high always, and without admission
// estimate ≤ truth ≤ estimate + budget.
func (o *oracle) checkRange(what string, r int, p, est, low, high uint64) {
	truth := o.in.truth.count(r, int(p))
	cr := o.in.ranges[r]
	if truth < low || truth > high {
		o.fail("%s: [%#x,%#x] truth %d outside bounds [%d,%d]", what, cr.Lo, cr.Hi, truth, low, high)
	}
	if o.admit {
		return
	}
	if est > truth {
		o.fail("%s: [%#x,%#x] estimate %d above truth %d", what, cr.Lo, cr.Hi, est, truth)
	} else if float64(truth-est) > o.budget(p) {
		o.fail("%s: [%#x,%#x] underestimate %d exceeds budget %.0f", what, cr.Lo, cr.Hi, truth-est, o.budget(p))
	}
}

// checkCheckpoint reopens the checkpoint rapd wrote on exit and checks it
// holds exactly the whole stream: the mass ledger, and every check range
// against final truth.
func (o *oracle) checkCheckpoint(dir string) {
	opts := ingest.Options{
		Shards:        rapdShards,
		CheckpointDir: dir,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	ig, err := ingest.Open(opts, []ingest.SourceSpec{ingest.ReaderSource("stdin", strings.NewReader(""))})
	if err != nil {
		o.fail("reopen checkpoint: %v", err)
		return
	}
	events := uint64(len(o.in.values))
	eng := ig.Engine()
	n, unadm := ig.N(), eng.UnadmittedN()
	st := ig.Stats()
	if st.Checkpoint.Quarantined > 0 {
		o.fail("checkpoint: %d corrupt checkpoint files quarantined", st.Checkpoint.Quarantined)
	}
	if len(st.Sources) != 1 || st.Sources[0].Applied != events || st.Dropped != 0 {
		o.fail("checkpoint: source ledger %+v, want %d applied and none dropped", st.Sources, events)
	}
	if n+unadm != events {
		o.fail("checkpoint: n %d + unadmitted %d != %d events written", n, unadm, events)
	}
	if !o.admit && unadm != 0 {
		o.fail("checkpoint: %d events unadmitted without admission", unadm)
	}
	for r := range o.in.ranges {
		cr := o.in.ranges[r]
		low, high := eng.EstimateBounds(cr.Lo, cr.Hi)
		o.checkRange("checkpoint", r, events, eng.Estimate(cr.Lo, cr.Hi), low, high)
	}
}
