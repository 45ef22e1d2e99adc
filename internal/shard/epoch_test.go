package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rap/internal/core"
	"rap/internal/stats"
)

// TestReaderMatchesMergedTreeCut checks the differential oracle: once
// publishes are quiesced, a pinned epoch and MergedTreeCut describe the
// same profile — at one shard (the concurrent engine) and at four.
func TestReaderMatchesMergedTreeCut(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			e, err := New(testConfig(), k)
			if err != nil {
				t.Fatal(err)
			}
			e.EnableReadSnapshots(1 << 10)
			rng := stats.NewSplitMix64(42)
			z := stats.NewZipf(rng, 1<<16, 1.2)
			for i := 0; i < 80_000; i++ {
				e.Add(uint64(z.Rank()))
			}
			e.PublishNow() // quiesced cut at the final state

			ep := e.Reader()
			defer ep.Release()
			cut := e.MergedTreeCut(nil)
			if ep.N() != cut.N() {
				t.Fatalf("epoch N = %d, merged cut N = %d", ep.N(), cut.N())
			}
			for _, r := range [][2]uint64{{0, 1 << 16}, {0, 255}, {1 << 15, 1 << 16}, {100, 100}} {
				el, eh := ep.EstimateBounds(r[0], r[1])
				cl, ch := cut.EstimateBounds(r[0], r[1])
				if el != cl || eh != ch {
					t.Fatalf("bounds differ on [%d,%d]: epoch (%d,%d) vs cut (%d,%d)", r[0], r[1], el, eh, cl, ch)
				}
				if ep.Estimate(r[0], r[1]) != cut.Estimate(r[0], r[1]) {
					t.Fatalf("estimate differs on [%d,%d]", r[0], r[1])
				}
			}
			eh := ep.HotRanges(0.01)
			ch := cut.HotRanges(0.01)
			if len(eh) != len(ch) {
				t.Fatalf("hot ranges differ: %d vs %d", len(eh), len(ch))
			}
			for i := range eh {
				if eh[i] != ch[i] {
					t.Fatalf("hot range %d differs: %+v vs %+v", i, eh[i], ch[i])
				}
			}
		})
	}
}

// TestEpochHammer drives per-feeder handles at full rate while queriers
// pin epochs; run under -race this exercises the publish cadence, the
// TryLock coalescing, and the pin/retire protocol together.
func TestEpochHammer(t *testing.T) {
	const feeders = 4
	const perFeeder = 30_000
	e, err := New(testConfig(), feeders)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(512) // aggressive cadence

	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			h := e.Handle()
			rng := stats.NewSplitMix64(uint64(300 + f))
			z := stats.NewZipf(rng, 1<<16, 1.2)
			for i := 0; i < perFeeder; i++ {
				h.Add(uint64(z.Rank()))
			}
		}(f)
	}
	var stop atomic.Bool
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			var lastSeq, lastCut uint64
			for !stop.Load() {
				ep := e.Reader()
				if ep == nil {
					t.Error("Reader returned nil with snapshots enabled")
					return
				}
				if s := ep.Seq(); s < lastSeq {
					t.Errorf("epoch seq went backwards: %d after %d", s, lastSeq)
					ep.Release()
					return
				} else {
					lastSeq = s
				}
				// The stream only grows, so cut positions must be monotone
				// in sequence order.
				if c := ep.CutN(); c < lastCut {
					t.Errorf("epoch cut went backwards: %d after %d", c, lastCut)
				} else {
					lastCut = c
				}
				lo, hi := ep.EstimateBounds(0, 1<<16)
				if lo > hi {
					t.Errorf("bounds inverted: %d > %d", lo, hi)
				}
				ep.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	if got := e.N(); got != feeders*perFeeder {
		t.Fatalf("N = %d, want %d", got, feeders*perFeeder)
	}
	pub := e.Publisher()
	if pub.Published() < 2 {
		t.Fatalf("only %d epochs published at cadence 512 over %d events", pub.Published(), feeders*perFeeder)
	}
	if pub.Pinned() != 0 {
		t.Fatalf("%d pins leaked", pub.Pinned())
	}
}

// TestQueryPathLockFree holds every shard mutex and the publish mutex,
// then requires queries to still answer from the published epoch.
func TestQueryPathLockFree(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		e.Add(i % 1000)
	}
	e.EnableReadSnapshots(1 << 16)

	for i := range e.shards {
		e.shards[i].mu.Lock()
		defer e.shards[i].mu.Unlock()
	}
	e.pubMu.Lock()
	defer e.pubMu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Estimate(0, 1<<16)
		e.EstimateBounds(0, 1<<16)
		e.HotRanges(0.01)
		ep := e.Reader()
		ep.Stats()
		ep.Release()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked on an engine lock: read path is not lock-free")
	}
}

func TestRestoreAndAdoptShardRepublish(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8_000; i++ {
		e.Add(i % 512)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e2.EnableReadSnapshots(1 << 20) // cadence far beyond the data: only explicit republish paths fire
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ep := e2.Reader()
	if ep.N() != 8_000 {
		ep.Release()
		t.Fatalf("epoch N after Restore = %d, want 8000 (restore did not republish)", ep.N())
	}
	ep.Release()

	donor, err := New(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1_000; i++ {
		donor.Add(i % 64)
	}
	e2.AdoptShard(0, donor.MergedTreeCut(nil))
	ep = e2.Reader()
	defer ep.Release()
	if ep.N() <= 8_000-2_000 || ep.N() == 8_000 {
		// shard 0 held ~2000 of the 8000 events and was replaced by 1000.
		t.Fatalf("epoch N after AdoptShard = %d (adopt did not republish)", ep.N())
	}
}

// TestPublishesPerMillionEvents is the deterministic gate on publish
// work. At the default cadence an engine publishes one epoch per
// core.DefaultPublishEvery offered events, whichever shard they land on:
// 2M events in 256-event chunks through one handle of a 4-shard engine
// publish exactly 2,000,000 / 65,536 = 30 epochs after the initial one.
// Each publish clones every shard holding mass and merges all but the
// first clone into it, so a cadence that fires early multiplies the
// engine's per-event cost.
func TestPublishesPerMillionEvents(t *testing.T) {
	const n, chunk = 2_000_000, 256
	e, err := New(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(0)
	pub := e.Publisher()
	initial := pub.Published()
	z := stats.NewZipf(stats.NewSplitMix64(1), 1<<20, 1.2)
	h := e.Handle()
	samples := make([]core.Sample, chunk)
	for fed := 0; fed < n; fed += chunk {
		c := samples[:min(chunk, n-fed)]
		for i := range c {
			c[i] = core.Sample{Value: uint64(z.Rank()), Weight: 1}
		}
		h.AddSamples(c)
	}
	if got := e.N(); got != n {
		t.Fatalf("N = %d, want %d", got, n)
	}
	want := uint64(n / core.DefaultPublishEvery)
	if got := pub.Published() - initial; got != want {
		t.Fatalf("%d publishes after the initial epoch for %d events, want %d", got, n, want)
	}
}
