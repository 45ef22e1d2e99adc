package shard

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rap/internal/admit"
	"rap/internal/core"
	"rap/internal/stats"
)

// TestReaderMatchesMergedTreeCut checks the differential oracle: once
// the feed stops, a pinned epoch and MergedTreeCut describe the same
// profile — at one shard (the concurrent engine) and at four.
func TestReaderMatchesMergedTreeCut(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			e, err := New(testConfig(), k)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewSplitMix64(42)
			z := stats.NewZipf(rng, 1<<16, 1.2)
			for i := 0; i < 80_000; i++ {
				e.Add(uint64(z.Rank()))
			}

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
// pin epochs, each cutting one when events are pending; run under -race
// this exercises cuts racing feeders, cuts shared by waiting readers, and
// the pin/retire protocol together.
func TestEpochHammer(t *testing.T) {
	const feeders = 4
	const perFeeder = 30_000
	e, err := New(testConfig(), feeders)
	if err != nil {
		t.Fatal(err)
	}

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
		t.Fatalf("readers cut only %d epochs over %d events", pub.Published(), feeders*perFeeder)
	}
	if pub.Pinned() != 0 {
		t.Fatalf("%d pins leaked", pub.Pinned())
	}
}

// TestQueryPathLockFree holds every shard mutex and the publish mutex.
// With nothing pending since the last cut, every query, unpinned and
// Reader, must still answer from the current epoch. With mass pending, an
// unpinned query must cut, so it waits for the locks, then answers with
// the pending mass included.
func TestQueryPathLockFree(t *testing.T) {
	for _, pending := range []bool{false, true} {
		t.Run(fmt.Sprintf("pending=%v", pending), func(t *testing.T) {
			e, err := New(testConfig(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 10_000; i++ {
				e.Add(i % 1000)
			}
			e.PublishNow()
			if pending {
				for i := uint64(0); i < 100; i++ {
					e.Add(i)
				}
				if e.pubPend.Load() == 0 {
					t.Fatal("no mass pending")
				}
			}
			want := e.N()

			for _, sh := range e.shards {
				sh.mu.Lock()
			}
			e.pubMu.Lock()
			unlocked := false
			unlock := func() {
				if unlocked {
					return
				}
				unlocked = true
				e.pubMu.Unlock()
				for _, sh := range e.shards {
					sh.mu.Unlock()
				}
			}
			defer unlock()

			highs := make(chan uint64, 1)
			go func() {
				_, high := e.EstimateBounds(0, 1<<16-1)
				if !pending {
					e.Estimate(0, 1<<16-1)
					e.HotRanges(0.01)
					ep := e.Reader()
					ep.Stats()
					ep.Release()
				}
				highs <- high
			}()
			if pending {
				waitParked(t, 1) // the query waits for the locks to cut
				unlock()
			}
			select {
			case high := <-highs:
				if high != want {
					t.Fatalf("full-universe high %d, engine N %d", high, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("query blocked on an engine lock: read path is not lock-free")
			}
		})
	}
}

// TestReaderReadsItsWrites: with no PublishNow, a query made after any
// mutation returns must hold all of it, at one shard and at four, through
// every way mass reaches a shard. The unpinned queries run first, so they
// cannot reuse the Reader check's cut.
func TestReaderReadsItsWrites(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			e, err := New(testConfig(), k)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string) {
				t.Helper()
				want := e.N()
				if got := e.Estimate(0, 1<<16-1); got != want {
					t.Fatalf("after %s: full-universe Estimate %d, engine N %d", what, got, want)
				}
				if _, high := e.EstimateBounds(0, 1<<16-1); high != want {
					t.Fatalf("after %s: full-universe EstimateBounds high %d, engine N %d", what, high, want)
				}
				ep := e.Reader()
				defer ep.Release()
				if got := ep.CutN(); got != want || ep.Tree().N() != want {
					t.Fatalf("after %s: Reader cut %d (tree %d), engine N %d", what, got, ep.Tree().N(), want)
				}
			}
			rng := stats.NewSplitMix64(uint64(k))
			for i := 0; i < 50; i++ {
				e.AddN(rng.Uint64n(1<<16), 1+rng.Uint64n(5))
				check("AddN")
			}
			for i := 0; i < 10; i++ {
				e.Add(rng.Uint64n(1 << 16))
				check("Add")
			}
			points := make([]uint64, 32)
			for i := 0; i < 10; i++ {
				for j := range points {
					points[j] = rng.Uint64n(1 << 16)
				}
				e.AddBatch(points)
				check("AddBatch")
			}
			h := e.Handle()
			for i := 0; i < 10; i++ {
				h.AddN(rng.Uint64n(1<<16), 1+rng.Uint64n(5))
				check("Handle.AddN")
				h.AddBatch(points[:1+i])
				check("Handle.AddBatch")
			}
			samples := make([]core.Sample, 64)
			for i := 0; i < 20; i++ {
				for j := range samples {
					samples[j] = core.Sample{Value: rng.Uint64n(1 << 16), Weight: 1 + rng.Uint64n(3)}
				}
				if i%2 == 0 {
					e.AddSamples(samples)
				} else {
					h.AddSamples(samples)
				}
				check("AddSamples")
			}
			for i := 0; i < 2*k; i++ {
				e.WithShard(i%k, func(tr *core.Tree) {
					for j := 0; j < 300; j++ {
						tr.AddN(rng.Uint64n(1<<16), 1)
					}
				})
				check("a WithShard batch")
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			e.AddN(7, 1000)
			check("AddN before Restore")
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
			check("Restore")
			donor := core.MustNew(testConfig())
			for j := uint64(0); j < 500; j++ {
				donor.Add(j % 97)
			}
			e.AdoptShard(k-1, donor)
			check("AdoptShard")
			other := core.MustNew(testConfig())
			for j := uint64(0); j < 700; j++ {
				other.AddN(j%131, 2)
			}
			if err := e.Merge(other); err != nil {
				t.Fatal(err)
			}
			check("Merge")
		})
	}
}

// TestReaderReadsItsWritesUnderAdmission: with admission gates refusing
// most of a cold stream, the cut plus its unadmitted ledger is the whole
// offered weight after every batch.
func TestReaderReadsItsWritesUnderAdmission(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	gates := admit.New(admit.Options{Seed: 1}).Gates(cfg.UniverseBits, e.Shards())
	e.SetShardAdmitters(func(i int) core.Admitter { return gates[i] })
	rng := stats.NewSplitMix64(9)
	var offered uint64
	samples := make([]core.Sample, 128)
	for i := 0; i < 40; i++ {
		for j := range samples {
			w := 1 + rng.Uint64n(4)
			samples[j] = core.Sample{Value: rng.Uint64n(1 << 16), Weight: w}
			offered += w
		}
		e.AddSamples(samples)
		ep := e.Reader()
		if got := ep.CutN() + ep.Tree().UnadmittedN(); got != offered {
			t.Fatalf("batch %d: cut %d + unadmitted %d = %d, offered %d",
				i, ep.CutN(), ep.Tree().UnadmittedN(), got, offered)
		}
		ep.Release()
	}
	if e.UnadmittedN() == 0 {
		t.Fatal("admission gates refused nothing")
	}
}

// waitParked waits until n goroutines are blocked on a mutex inside
// Engine.Reader, as the goroutine dump shows them.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	parked := 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		parked = 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "shard.(*Engine).Reader(") {
				parked++
			}
		}
		if parked == n {
			return
		}
	}
	t.Fatalf("%d readers parked on the publish mutex, want %d", parked, n)
}

// TestReadersShareCut: while feeders keep mass pending, readers parked on
// the publish mutex behind a cut that began after they arrived take that
// cut instead of each cutting their own.
func TestReadersShareCut(t *testing.T) {
	const readers = 8
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Publisher()

	var stop atomic.Bool
	var fwg sync.WaitGroup
	for f := 0; f < 2; f++ {
		fwg.Add(1)
		go func(f int) {
			defer fwg.Done()
			h := e.Handle()
			rng := stats.NewSplitMix64(uint64(70 + f))
			for !stop.Load() {
				h.Add(rng.Uint64n(1 << 16))
			}
		}(f)
	}
	defer func() {
		stop.Store(true)
		fwg.Wait()
	}()
	for e.pubPend.Load() == 0 {
		runtime.Gosched()
	}

	e.pubMu.Lock()
	var rwg sync.WaitGroup
	cuts := make([]uint64, readers)
	for r := range cuts {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			ep := e.Reader()
			cuts[r] = ep.Seq()
			ep.Release()
		}(r)
	}
	waitParked(t, readers)
	before := p.Published()
	e.publishInto()
	// Mass credited after that cut: without sharing, every parked reader
	// would find it pending and cut again.
	e.AddN(1, 1)
	e.pubMu.Unlock()
	rwg.Wait()

	if got := p.Published() - before; got != 1 {
		t.Fatalf("%d readers behind one later cut published %d epochs, want 1", readers, got)
	}
	for r, seq := range cuts {
		if seq != before+1 {
			t.Fatalf("reader %d got epoch %d, want the shared cut %d", r, seq, before+1)
		}
	}
}

// TestReaderWaitsForCutInFlight: a cut that began after a reader's last
// write resets the pending count before it reads any shard, so a reader
// arriving while it copies finds nothing pending. That reader must wait
// for the cut in flight, not return the epoch before it.
func TestReaderWaitsForCutInFlight(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e.AddN(1, 5) // the first round-robin pick: shard 0
	blocked := e.shards[1]
	blocked.mu.Lock() // the first reader's cut stalls at shard 1
	got := make(chan *core.Epoch, 2)
	go func() { got <- e.Reader() }()
	for e.pubPend.Load() != 0 {
		runtime.Gosched() // until that cut has begun
	}
	go func() { got <- e.Reader() }()
	waitParked(t, 2)
	blocked.mu.Unlock()
	for i := 0; i < 2; i++ {
		ep := <-got
		if ep.CutN() != 5 {
			t.Errorf("reader %d: cut %d, want 5", i, ep.CutN())
		}
		ep.Release()
	}
}

// TestEpochRecycleHammer runs feeders beside two kinds of reader while
// retired epochs donate their trees to later cuts. Pinned readers cut
// through Reader and require their epoch frozen until Release; gauge
// readers pin the current epoch without cutting, as the rap_epoch_*
// gauges do, and require it whole and no older than the last one they
// saw. Run under -race: a tree recycled while still readable races its
// new cut's copy.
func TestEpochRecycleHammer(t *testing.T) {
	const feeders, perFeeder = 3, 32_000
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Publisher()

	var fwg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		fwg.Add(1)
		go func(f int) {
			defer fwg.Done()
			h := e.Handle()
			z := stats.NewZipf(stats.NewSplitMix64(uint64(500+f)), 1<<16, 1.2)
			samples := make([]core.Sample, 32)
			for i := 0; i < perFeeder; i += len(samples) {
				for j := range samples {
					samples[j] = core.Sample{Value: uint64(z.Rank()), Weight: 1}
				}
				h.AddSamples(samples)
			}
		}(f)
	}
	var stop atomic.Bool
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(2)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				ep := e.Reader()
				l1, h1 := ep.EstimateBounds(0, 1<<12)
				l2, h2 := ep.EstimateBounds(0, 1<<12)
				if l1 != l2 || h1 != h2 {
					t.Errorf("pinned epoch %d answer moved: (%d,%d) -> (%d,%d)", ep.Seq(), l1, h1, l2, h2)
				}
				if ep.N() != ep.Tree().N() {
					t.Errorf("pinned epoch %d: N %d, tree N %d", ep.Seq(), ep.N(), ep.Tree().N())
				}
				ep.Release()
			}
		}()
		go func() {
			defer rwg.Done()
			var lastSeq uint64
			for !stop.Load() {
				ep := p.Acquire()
				if ep.Seq() < lastSeq {
					t.Errorf("gauge read epoch %d after %d", ep.Seq(), lastSeq)
				}
				lastSeq = ep.Seq()
				if _, high := ep.EstimateBounds(0, 1<<16-1); ep.N() != ep.Tree().N() || high != ep.N() {
					t.Errorf("gauge read epoch %d: N %d, tree N %d, full-universe high %d", ep.Seq(), ep.N(), ep.Tree().N(), high)
				}
				ep.Release()
			}
		}()
	}
	fwg.Wait()
	stop.Store(true)
	rwg.Wait()

	if got := e.N(); got != feeders*perFeeder {
		t.Fatalf("N = %d, want %d", got, feeders*perFeeder)
	}
	if p.Pinned() != 0 {
		t.Fatalf("%d pins leaked", p.Pinned())
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
// work: epochs are cut by reads, never by ingest. 2M events in 256-event
// chunks through one handle of a 4-shard engine, with no reader, publish
// nothing after the initial epoch. Fed again with a read after every 64Ki
// events, a Reader and then an unpinned EstimateBounds, the engine cuts
// exactly once per read point: the first read cuts the pending events and
// the second finds nothing pending. Each cut clones every shard holding
// mass and merges all but the first clone into it, so a cut that ingest
// makes, or one a read makes with nothing pending, multiplies the
// engine's cost.
func TestPublishesPerMillionEvents(t *testing.T) {
	const n, chunk, readEvery = 2_000_000, 256, 1 << 16
	e, err := New(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pub := e.Publisher()
	if got := pub.Published(); got != 1 {
		t.Fatalf("%d epochs published by New, want the initial one", got)
	}
	z := stats.NewZipf(stats.NewSplitMix64(1), 1<<20, 1.2)
	h := e.Handle()
	samples := make([]core.Sample, chunk)
	feed := func(read bool) (reads uint64) {
		for fed := 0; fed < n; fed += chunk {
			c := samples[:min(chunk, n-fed)]
			for i := range c {
				c[i] = core.Sample{Value: uint64(z.Rank()), Weight: 1}
			}
			h.AddSamples(c)
			if read && (fed+len(c))%readEvery == 0 {
				e.Reader().Release()
				e.EstimateBounds(0, 1<<20)
				reads++
			}
		}
		return reads
	}
	feed(false)
	if got := e.N(); got != n {
		t.Fatalf("N = %d, want %d", got, n)
	}
	if got := pub.Published(); got != 1 {
		t.Fatalf("%d publishes after the initial epoch for %d events with no reader, want 0", got-1, n)
	}
	before := pub.Published()
	reads := feed(true)
	if reads != n/readEvery {
		t.Fatalf("%d read points, want %d", reads, n/readEvery)
	}
	if got := pub.Published() - before; got != reads {
		t.Fatalf("%d cuts for %d read points, want one each", got, reads)
	}
}
