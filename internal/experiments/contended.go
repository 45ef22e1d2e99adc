package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"rap/internal/shard"
	"rap/internal/stats"
)

// ContendedRow is one feeder count measured under both locking regimes.
type ContendedRow struct {
	Feeders       int
	SingleLockEPS float64 // events/sec through a one-shard shard.Engine
	ShardedEPS    float64 // events/sec through a shard.Engine (shards = feeders)
	Speedup       float64 // ShardedEPS / SingleLockEPS
}

// ContendedResult measures multi-goroutine ingest throughput: F feeder
// goroutines hammering per-event Add against (a) a one-shard engine, a
// single tree behind one lock, and (b) a sharded engine with one shard per
// feeder and per-feeder pinned handles. The workload (per-feeder Zipf
// streams) is pre-generated so the measured region is pure ingest. Scaling
// beyond 1× requires real cores: GOMAXPROCS is recorded so a 1-CPU run
// explains its own flatness.
type ContendedResult struct {
	Events     uint64 // events per regime at each feeder count
	GOMAXPROCS int
	Rows       []ContendedRow
}

// Contended runs the contended-ingest experiment at 1, 2, 4, and 8
// feeders.
func Contended(o Options) (ContendedResult, error) {
	cfg := valueConfig(0.01)
	r := ContendedResult{Events: o.Events, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, feeders := range []int{1, 2, 4, 8} {
		per := o.Events / uint64(feeders)
		if per == 0 {
			per = 1
		}
		// Pre-generate each feeder's stream so generation cost and rng
		// state stay out of the timed region and off the shared path.
		streams := make([][]uint64, feeders)
		for f := range streams {
			rng := stats.NewSplitMix64(o.Seed + uint64(1000*feeders+f))
			// 2^20 distinct ranks: plenty of tree structure without the
			// O(n) CDF table of a full 64-bit-domain Zipf.
			z := stats.NewZipf(rng, 1<<20, 1.2)
			s := make([]uint64, per)
			for i := range s {
				s[i] = uint64(z.Rank())
			}
			streams[f] = s
		}

		single, err := timeFeeders(streams, func() (feederSink, error) {
			e, err := shard.New(cfg, 1)
			if err != nil {
				return nil, err
			}
			return func(int) func(uint64) { return e.Add }, nil
		})
		if err != nil {
			return ContendedResult{}, err
		}
		sharded, err := timeFeeders(streams, func() (feederSink, error) {
			e, err := shard.New(cfg, feeders)
			if err != nil {
				return nil, err
			}
			return func(int) func(uint64) { return e.Handle().Add }, nil
		})
		if err != nil {
			return ContendedResult{}, err
		}
		row := ContendedRow{Feeders: feeders, SingleLockEPS: single, ShardedEPS: sharded}
		if single > 0 {
			row.Speedup = sharded / single
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// feederSink builds one per-feeder Add function; for the sharded regime
// each feeder gets its own pinned handle, for the single-lock regime all
// feeders share the one locked tree.
type feederSink func(feeder int) func(uint64)

// timeFeeders runs one goroutine per stream through the sinks built by
// mk and returns aggregate events/sec.
func timeFeeders(streams [][]uint64, mk func() (feederSink, error)) (float64, error) {
	sink, err := mk()
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, s := range streams {
		total += uint64(len(s))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for f, s := range streams {
		wg.Add(1)
		go func(f int, s []uint64) {
			defer wg.Done()
			add := sink(f)
			for _, v := range s {
				add(v)
			}
		}(f, s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("experiments: contended run too fast to time")
	}
	return float64(total) / elapsed, nil
}

// Print renders the contended-ingest table.
func (r ContendedResult) Print(w io.Writer) {
	header(w, "Contended ingest: sharded engine vs single-lock tree")
	fmt.Fprintf(w, "events per regime: %d, GOMAXPROCS: %d\n\n", r.Events, r.GOMAXPROCS)
	fmt.Fprintf(w, "%-8s %-16s %-16s %s\n", "feeders", "single-lock e/s", "sharded e/s", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-16.0f %-16.0f %.2fx\n",
			row.Feeders, row.SingleLockEPS, row.ShardedEPS, row.Speedup)
	}
	if r.GOMAXPROCS == 1 {
		fmt.Fprintf(w, "\n(GOMAXPROCS=1: feeders share one core, so sharding cannot scale here;\n")
		fmt.Fprintf(w, " the speedup column is meaningful only on multi-core hosts)\n")
	}
}
