package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"rap/internal/trace"
	"rap/internal/workload"
)

// A workload is one stream the benchmark writes to `rapd -stdin`. A
// replay writes a burst of events as fast as rapd reads them (throughput),
// then a short tail paced like live-mix; a live workload is paced
// throughout. The timed open-loop /v1 mix runs only beside the paced
// part: under a saturating burst, query latency is scheduler noise.
// README.md says why each workload exists.
type workloadSpec struct {
	name   string
	replay bool // starts with an unthrottled burst
	admit  bool // -admit: epoch cuts then count admitted mass only
	// auditEvery, when set, runs the accuracy self-audit at this cadence.
	auditEvery time.Duration
	// ckEvery is rapd's checkpoint cadence (0: the daemon default).
	ckEvery time.Duration
	gen     func(seed uint64, n int) []uint64
}

const (
	liveRate       = 400e3 // events/s of every paced feed, live-mix's rate
	queryQPS       = 400   // rate of the timed /v1 mix
	burstChunk     = 1024  // events per write of an unthrottled burst
	burstShare     = 5     // a burst holds liveRate·seconds/burstShare events
	tailShare      = 12    // a replay's paced tail lasts seconds/tailShare (see endToEnd)
	liveReps       = 3     // a live workload is split into this many daemon runs
	minReplayReps  = 3     // a replay repeats at least this often
	numCheckRanges = 32    // ranges checked against exact truth
	truthBlock     = 256   // events per prefix-count block of the truth index
	setupProbes    = 30    // extra spawns per run that only measure set-up
	layerChunk     = 256   // events per AddSamples call, the ingest batch length
	levelSamples   = 4096  // events whose descent depth is measured
)

var workloads = []workloadSpec{
	{
		name:   "replay-gzip",
		replay: true,
		gen: func(seed uint64, n int) []uint64 {
			b, _ := workload.ByName("gzip")
			return collect(b.Values(seed, uint64(n)), n)
		},
	},
	{
		name:   "replay-flood",
		replay: true,
		admit:  true,
		gen: func(seed uint64, n int) []uint64 {
			// Half chaff: a pure flood drives the watchdog to Siege, where
			// /v1 sheds every request with 429 by design.
			b, _ := workload.ByName("gzip")
			return collect(workload.FloodMix(seed, 0.5, b.Values(seed, uint64(n))), n)
		},
	},
	{
		name:       "live-mix",
		auditEvery: 2 * time.Second,
		ckEvery:    time.Second,
		gen: func(seed uint64, n int) []uint64 {
			b, _ := workload.ByName("mcf")
			loads := b.Loads(seed, uint64(n))
			out := make([]uint64, n)
			for i := range out {
				out[i] = loads.Next().Addr
			}
			return out
		},
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func collect(src trace.Source, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		e, _ := src.Next()
		out[i] = e.Value
	}
	return out
}

// input is one workload's generated stream, its trace encoding cut into
// the chunks the feeder writes, and the exact truth for the check ranges.
type input struct {
	values []uint64
	data   []byte  // trace.Writer encoding of values, weight 1 each
	burst  int     // events of the unthrottled burst
	chunks []chunk // the burst in burstChunk-event writes, then one write per ms
	ranges []checkRange
	truth  *truthIndex
}

// chunk is one write of the feed: the stream up to event evEnd, byte
// byteEnd.
type chunk struct{ evEnd, byteEnd int }

// chunkOf returns the index of the chunk holding event number p (1-based).
func (in *input) chunkOf(p uint64) int {
	return sort.Search(len(in.chunks), func(i int) bool { return uint64(in.chunks[i].evEnd) >= p })
}

// checkRange is an inclusive, b-adic range: aligned to and as wide as a
// power of the branching factor, so it is a potential tree node and the
// paper's ε·n bound applies to it.
type checkRange struct{ Lo, Hi uint64 }

// streamEvents sizes one daemon run of w for a measurement of seconds: the
// burst and the paced part. A live workload's daemons share the seconds.
func streamEvents(w workloadSpec, seconds float64) (burst, paced int) {
	if !w.replay {
		return 0, max(int(liveRate*seconds/liveReps), 1)
	}
	return max(int(liveRate*seconds/burstShare), 1), max(int(liveRate*seconds/tailShare), 1)
}

func makeInput(w workloadSpec, seed uint64, seconds float64) (*input, error) {
	burst, paced := streamEvents(w, seconds)
	in := &input{values: w.gen(seed, burst+paced), burst: burst}
	perTick := int(liveRate / 1000)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	next := min(burstChunk, burst)
	if burst == 0 {
		next = perTick
	}
	for i, v := range in.values {
		if err := tw.Write(trace.Event{Value: v, Weight: 1}); err != nil {
			return nil, err
		}
		if i+1 == next || i == len(in.values)-1 {
			if err := tw.Flush(); err != nil {
				return nil, err
			}
			in.chunks = append(in.chunks, chunk{evEnd: i + 1, byteEnd: buf.Len()})
			if next < burst {
				next = min(next+burstChunk, burst)
			} else {
				next += perTick
			}
		}
	}
	in.data = buf.Bytes()
	in.ranges = checkRanges(seed, in.values)
	in.truth = newTruthIndex(in.values, in.ranges)
	return in, nil
}

// checkRanges draws the seeded check ranges, each anchored at an event of
// the stream so it holds mass: half narrow (4^1..4^8 wide, hot spots), half
// wide (4^9..4^31).
func checkRanges(seed uint64, values []uint64) []checkRange {
	rng := rand.New(rand.NewPCG(seed, 0x5eed_c4ec))
	out := make([]checkRange, numCheckRanges)
	for i := range out {
		v := values[rng.IntN(len(values))]
		var digits int
		if i < numCheckRanges/2 {
			digits = 1 + rng.IntN(8)
		} else {
			digits = 9 + rng.IntN(23)
		}
		mask := uint64(1)<<(2*digits) - 1
		out[i] = checkRange{Lo: v &^ mask, Hi: v | mask}
	}
	return out
}

// truthIndex answers "how many of the first p events fall in range r"
// exactly, from per-block prefix counts plus a scan of at most one block.
type truthIndex struct {
	values []uint64
	ranges []checkRange
	prefix [][]uint32 // prefix[r][j]: events in range r among values[:j*truthBlock]
}

func newTruthIndex(values []uint64, ranges []checkRange) *truthIndex {
	t := &truthIndex{values: values, ranges: ranges, prefix: make([][]uint32, len(ranges))}
	blocks := len(values)/truthBlock + 1
	for r := range ranges {
		t.prefix[r] = make([]uint32, blocks)
	}
	counts := make([]uint32, len(ranges))
	for i, v := range values {
		if i%truthBlock == 0 {
			for r := range ranges {
				t.prefix[r][i/truthBlock] = counts[r]
			}
		}
		for r, cr := range ranges {
			if v >= cr.Lo && v <= cr.Hi {
				counts[r]++
			}
		}
	}
	if len(values)%truthBlock == 0 {
		for r := range ranges {
			t.prefix[r][blocks-1] = counts[r]
		}
	}
	return t
}

// count returns the exact number of events among the first p that fall
// in range r.
func (t *truthIndex) count(r, p int) uint64 {
	b := p / truthBlock
	n := uint64(t.prefix[r][b])
	cr := t.ranges[r]
	for _, v := range t.values[b*truthBlock : p] {
		if v >= cr.Lo && v <= cr.Hi {
			n++
		}
	}
	return n
}
