package core_test

// Concurrent use of a core Tree goes through the sharded engine, which
// at one shard is a single tree behind one lock — the engine
// rap.WithConcurrent builds. These tests pin what a caller sharing one
// tree across goroutines relies on: exact counts under parallel feeds,
// gates and hooks surviving Restore, a start table that never outlives
// the tree it indexes, and a query path that takes no lock.

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rap/internal/core"
	"rap/internal/shard"
)

// concurrent builds the one-shard engine over cfg.
func concurrent(t *testing.T, cfg core.Config) *shard.Engine {
	t.Helper()
	e, err := shard.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConcurrentValidation(t *testing.T) {
	if _, err := shard.New(core.Config{}, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestConcurrentParallelFeeds(t *testing.T) {
	c := concurrent(t, core.TestConfig(24, 4, 0.05))
	const (
		workers = 8
		each    = 20_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker hammers its own hot point plus shared noise.
			batch := make([]uint64, 0, 128)
			for i := 0; i < each; i++ {
				p := uint64(0x1000 * (w + 1))
				if i%4 == 0 {
					p = uint64(i * 37 % (1 << 24))
				}
				if i%2 == 0 {
					c.Add(p)
				} else {
					batch = append(batch, p)
					if len(batch) == 128 {
						c.AddBatch(batch)
						batch = batch[:0]
					}
				}
			}
			c.AddBatch(batch)
		}(w)
	}
	// Concurrent readers while feeding.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.HotRanges(0.05)
			c.Estimate(0, 1<<23)
			c.EstimateBounds(0, 1<<20)
			c.Stats()
		}
	}()
	wg.Wait()
	<-done

	if c.N() != workers*each {
		t.Fatalf("N = %d, want %d", c.N(), workers*each)
	}
	st := c.Finalize()
	if st.N != workers*each {
		t.Fatalf("stats N = %d", st.N)
	}
	// Each worker's hot point must be individually resolved.
	hot := c.HotRanges(0.05)
	singles := 0
	for _, h := range hot {
		if h.Lo == h.Hi {
			singles++
		}
	}
	if singles < workers {
		t.Fatalf("found %d hot singletons, want >= %d", singles, workers)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSnapshotRestore(t *testing.T) {
	cfg := core.TestConfig(24, 4, 0.05)
	c := concurrent(t, cfg)
	for i := uint64(0); i < 50_000; i++ {
		c.Add(i * 31 % (1 << 20))
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := c.Stats()

	back := concurrent(t, cfg)
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// ArenaBytes is physical slab capacity, not logical state — a restored
	// tree allocates exactly what it needs, without growth slack. Descent
	// work and the start table are not carried by snapshots either.
	got := back.Stats()
	if got.ArenaBytes == 0 {
		t.Fatal("restored stats missing arena footprint")
	}
	got.ArenaBytes, want.ArenaBytes = 0, 0
	got.DescentLevels, want.DescentLevels = 0, 0
	got.StartTableBytes, want.StartTableBytes = 0, 0
	if got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	if a, b := back.Estimate(0, 1<<19), c.Estimate(0, 1<<19); a != b {
		t.Fatalf("restored estimate %d, want %d", a, b)
	}

	// A corrupt snapshot must be rejected and leave the tree untouched,
	// even while other goroutines keep feeding it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < 10_000; i++ {
			back.Add(i)
		}
	}()
	bad := append([]byte{}, snap...)
	bad[0] ^= 0xff // break the magic: guaranteed decode failure
	if err := back.Restore(bad); err == nil {
		t.Fatal("Restore accepted corrupt snapshot")
	}
	wg.Wait()
	if n := back.N(); n != want.N+10_000 {
		t.Fatalf("N after rejected restore = %d, want %d", n, want.N+10_000)
	}
}

// TestConcurrentRestoreDropsStartTable: an engine that batched before
// Restore must start every later descent where a root descent agrees —
// the restored tree must not inherit the replaced tree's descent start
// table — and keep batching byte for byte like a fresh control fed the
// same way.
func TestConcurrentRestoreDropsStartTable(t *testing.T) {
	cfg := core.TestConfig(16, 4, 0.05)
	cfg.FirstMerge = 64
	donor := concurrent(t, cfg)
	donor.AddBatch(core.SkewedPoints(10, 20_000))
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	c := concurrent(t, cfg)
	warm := core.SkewedPoints(11, 20_000)
	c.AddBatch(warm)
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	c.WithShard(0, func(tr *core.Tree) { core.CheckDescents(t, tr, warm) })
	cont := core.SkewedPoints(12, 20_000)
	c.AddBatch(cont)

	control := concurrent(t, cfg)
	if err := control.Restore(snap); err != nil {
		t.Fatal(err)
	}
	control.AddBatch(cont)

	got, err := c.SnapshotShards(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.SnapshotShards(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want[0]) {
		t.Fatal("engine diverged from control after Restore")
	}
}

func TestConcurrentTreeAdmitterSurvivesRestore(t *testing.T) {
	c := concurrent(t, core.DefaultConfig())
	c.SetShardAdmitters(func(int) core.Admitter { return core.DenyOdd{} })
	for i := uint64(0); i < 100; i++ {
		c.Add(i)
	}
	if c.UnadmittedN() != 50 {
		t.Fatalf("ledger %d, want 50", c.UnadmittedN())
	}
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if c.UnadmittedN() != 50 {
		t.Fatalf("ledger lost across restore: %d, want 50", c.UnadmittedN())
	}
	// The admitter must still gate the restored tree.
	c.Add(1)
	if c.UnadmittedN() != 51 {
		t.Fatalf("admitter not reinstalled after restore: ledger %d, want 51", c.UnadmittedN())
	}
}

// TestConcurrentTreeHooksSurviveRestore checks the engine reinstalls
// hooks on the fresh tree a Restore builds.
func TestConcurrentTreeHooksSurviveRestore(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	c := concurrent(t, cfg)
	var splits int
	c.SetHooks(&core.Hooks{Split: func(core.SplitEvent) { splits++ }})
	for i := 0; i < 20_000; i++ {
		c.Add(uint64(i) & 0xffff)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	before := splits
	for i := 0; i < 200_000; i++ {
		c.Add(uint64(i*2654435761) & 0xffff)
	}
	if splits == before {
		t.Fatal("no split hook fired after Restore: hooks were lost")
	}
}

// TestConcurrentTreeEpochHammer has queriers cut epochs as writers feed
// and hold them pinned across sub-queries; run under -race this exercises
// the cut and the pin/retire protocol end to end.
func TestConcurrentTreeEpochHammer(t *testing.T) {
	cfg := core.TestConfig(20, 2, 0.05)
	cfg.FirstMerge = 64 // merge batches churn the arena between publishes
	c := concurrent(t, cfg)

	const writers = 4
	const each = 30_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(uint64(w*each+i) * 2654435761 % (1 << 20))
			}
		}(w)
	}
	var stop atomic.Bool
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			var lastSeq uint64
			for !stop.Load() {
				e := c.Reader()
				if s := e.Seq(); s < lastSeq {
					t.Errorf("epoch seq went backwards: %d after %d", s, lastSeq)
					e.Release()
					return
				} else {
					lastSeq = s
				}
				// A pinned epoch is frozen: N must not move between reads.
				n1 := e.N()
				lo, hi := e.EstimateBounds(0, 1<<20)
				if lo > hi {
					t.Errorf("bounds inverted: %d > %d", lo, hi)
				}
				if n2 := e.N(); n2 != n1 {
					t.Errorf("pinned epoch N moved: %d -> %d", n1, n2)
				}
				e.HotRanges(0.05)
				e.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	if c.N() != writers*each {
		t.Fatalf("N = %d, want %d", c.N(), writers*each)
	}
	p := c.Publisher()
	if p.Published() < 2 {
		t.Fatalf("only %d epochs published under merge-heavy load", p.Published())
	}
	if p.Pinned() != 0 {
		t.Fatalf("%d pins leaked", p.Pinned())
	}
}

// TestConcurrentTreeQueryPathLockFree proves queries never touch the
// shard lock while nothing is pending since the last cut: the test holds
// the lock and every query must still answer.
func TestConcurrentTreeQueryPathLockFree(t *testing.T) {
	c := concurrent(t, core.TestConfig(16, 2, 0.05))
	for i := uint64(0); i < 10_000; i++ {
		c.Add(i % 1000)
	}
	c.PublishNow()

	c.WithShard(0, func(*core.Tree) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Estimate(0, 1<<16)
			c.EstimateBounds(0, 1<<16)
			c.HotRanges(0.01)
			e := c.Reader()
			e.Stats()
			e.Release()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("query blocked on the shard lock: read path is not lock-free")
		}
	})
}

// TestQueryPathMutexProfile runs the contended write+query mix with
// mutex profiling at full fraction and asserts no recorded contention
// stack passes through the epoch query path. Each query batch cuts one
// epoch through Reader, which contends with the writers for the shard
// lock, and then queries it: the queries on the pinned epoch and its
// release must take no lock.
func TestQueryPathMutexProfile(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	c := concurrent(t, core.TestConfig(20, 2, 0.05))
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50_000; i++ {
				c.Add(uint64(w*50_000+i) % (1 << 20))
			}
		}(w)
	}
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for !stop.Load() {
				e := c.Reader()
				e.Estimate(0, 1<<19)
				e.EstimateBounds(0, 1<<19)
				e.HotRanges(0.05)
				e.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	var records []runtime.BlockProfileRecord
	for {
		n, ok := runtime.MutexProfile(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, n+64)
	}
	for _, rec := range records {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			name := f.Function
			if strings.Contains(name, "shard.(*Engine).Estimate") ||
				strings.Contains(name, "shard.(*Engine).EstimateBounds") ||
				strings.Contains(name, "shard.(*Engine).HotRanges") ||
				strings.Contains(name, "Epoch).") ||
				strings.Contains(name, "EpochPublisher).Acquire") {
				t.Fatalf("mutex contention recorded on the query path: %s", name)
			}
			if !more {
				break
			}
		}
	}
}

func TestConcurrentTreeRestoreRepublishes(t *testing.T) {
	cfg := core.TestConfig(16, 2, 0.05)
	c := concurrent(t, cfg)
	for i := uint64(0); i < 5_000; i++ {
		c.Add(i % 512)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	c2 := concurrent(t, cfg)
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	e := c2.Reader()
	defer e.Release()
	if e.N() != 5_000 {
		t.Fatalf("restored epoch N = %d, want 5000 (restore did not republish)", e.N())
	}
}

// TestCounterPromotionEpochHammer runs spill-heavy weighted feeders
// against pinned epoch readers under the race detector. The feeders hammer
// a small hot set with weights sized so counters keep reaching 2^31 and
// spilling, and keep adding to spilled counters in place; the readers
// hold pinned epochs and require them frozen — same answer for the same
// query, full-universe mass equal to the epoch's N. If Clone ever aliased
// the spill slab instead of copying it, the writer's adds and spills
// would race these reads and -race would flag it.
func TestCounterPromotionEpochHammer(t *testing.T) {
	cfg := core.TestConfig(20, 4, 0.05)
	cfg.FirstMerge = 64 // merge batches rebuild the spill slab between publishes
	c := concurrent(t, cfg)

	const writers = 4
	const each = 8_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := make([]core.Sample, 0, 64)
			for i := 0; i < each; i++ {
				// Hot set of 16 points with weights near 2^24: a fresh
				// counter spills after about 128 updates.
				samples = append(samples, core.Sample{
					Value:  uint64(i % 16 << 14),
					Weight: 1<<24 + uint64(i%200),
				})
				// Cold spread keeps splits and merges churning structure.
				samples = append(samples, core.Sample{
					Value:  uint64(w*each+i) * 2654435761 % (1 << 20),
					Weight: 1,
				})
				if len(samples) == cap(samples) {
					c.AddSamples(samples)
					samples = samples[:0]
				}
			}
			c.AddSamples(samples)
		}(w)
	}

	var stop atomic.Bool
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for !stop.Load() {
				e := c.Reader()
				n := e.N()
				full := e.Estimate(0, 1<<20-1)
				if full != n {
					t.Errorf("pinned epoch leaks mass: full estimate %d, N %d", full, n)
				}
				// Re-reads of a frozen epoch are bit-stable even while the
				// writer spills the same logical counters.
				hot := e.Estimate(0, 1<<16-1)
				if again := e.Estimate(0, 1<<16-1); again != hot {
					t.Errorf("pinned epoch answer moved: %d -> %d", hot, again)
				}
				lo, hi := e.EstimateBounds(1<<14, 1<<18)
				if lo > hi {
					t.Errorf("bounds inverted: %d > %d", lo, hi)
				}
				e.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	spilled := false
	c.WithShard(0, func(tr *core.Tree) {
		tr.Walk(func(ni core.NodeInfo) bool {
			spilled = ni.Count >= 1<<31
			return !spilled
		})
	})
	if !spilled {
		t.Fatal("hammer spilled no counters; weights are mistuned")
	}
	if full := c.Estimate(0, 1<<20-1); full != c.N() {
		t.Fatalf("writer leaks mass after hammer: %d != %d", full, c.N())
	}
}
