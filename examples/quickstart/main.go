// Quickstart: build a RAP profiler over a skewed stream, ask for the hot
// ranges, and check the answers against the guarantees — the five-minute
// tour of the library, using only the public rap package.
//
// The tour uses the split API surface: ingest code holds a rap.Writer,
// query code holds a pinned rap.Epoch (a consistent lock-free snapshot
// obtained through rap.ReaderOf), and nothing ever sees both sides at
// once.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"sync"

	"rap"
)

func main() {
	// A concurrent profiler with the paper's defaults: 64-bit universe,
	// branching factor 4, eps = 1% error bound, batched merges doubling
	// in period. Queries are decoupled from ingest: each read cuts an
	// immutable epoch as of its call and answers from it without holding
	// any lock.
	p, err := rap.New(
		rap.WithUniverse(0), // full 64-bit universe
		rap.WithEpsilon(0.01),
		rap.WithBranching(4),
		rap.WithConcurrent(),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Feed it two million events from four goroutines: a hot point, a
	// hot narrow band, and a uniform background — without telling RAP
	// which is which. The ingest side only needs the Writer facet.
	const n = 2_000_000
	const workers = 4
	var w rap.Writer = p
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(42, uint64(g)))
			for i := 0; i < n/workers; i++ {
				switch {
				case i%5 == 0: // 20%: one hot value
					w.Add(0xCAFEBABE)
				case i%5 == 1 || i%5 == 2: // 40%: a hot 4KB band
					w.Add(0x7F000000 + rng.Uint64N(4096))
				default: // 40%: uniform noise over the whole 64-bit universe
					w.Add(rng.Uint64())
				}
			}
		}(g)
	}
	wg.Wait()

	st := p.Finalize()
	fmt.Printf("profiled %d events with %d live counters (%d bytes, max %d)\n",
		st.N, st.Nodes, st.MemoryBytes, st.MaxNodes)

	// The query side pins one epoch and asks it everything: the answers
	// are mutually consistent (one cut of the stream) and served without
	// locks, even while writers are running.
	ep, ok := rap.ReaderOf(p)
	if !ok {
		log.Fatal("engine has no consistent read path")
	}
	defer ep.Release()
	fmt.Printf("reading epoch %d, cut at %d events\n", ep.Seq(), ep.CutN())

	// Hot ranges at the 10% threshold: RAP finds the hot point and the
	// hot band at full precision, and summarizes the noise coarsely.
	fmt.Println("\nranges holding >= 10% of the stream:")
	for _, h := range ep.HotRanges(0.10) {
		fmt.Printf("  [%x, %x]  %5.1f%%\n", h.Lo, h.Hi, 100*h.Frac)
	}

	// Range queries come with guarantees: the estimate is a lower bound
	// and the upper bound brackets the truth.
	lo, hi := ep.EstimateBounds(0x7F000000, 0x7F000FFF)
	fmt.Printf("\nband estimate: between %d and %d events (true: ~%d)\n", lo, hi, 2*n/5)

	// Snapshots round-trip, so profiles can be shipped and post-processed.
	// WithConcurrent builds the sharded engine at one shard, so a fresh
	// one-shard engine restores the blob.
	blob, err := w.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	back, err := rap.NewSharded(p.(*rap.Sharded).Config(), 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := back.Restore(blob); err != nil {
		log.Fatal(err)
	}
	restored := back.MergedTree()
	fmt.Printf("\nsnapshot: %d bytes; restored tree sees %d events\n", len(blob), restored.N())
	fmt.Printf("split threshold is eps*n/H = %.0f events\n", restored.SplitThreshold())

	fmt.Println("\nfull tree dump:")
	if err := restored.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
