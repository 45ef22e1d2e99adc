package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rap/internal/core"
	"rap/internal/exact"
	"rap/internal/stats"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	cfg.FirstMerge = 64
	cfg.MinSplitCount = 1
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := testConfig()
	bad.Epsilon = 2
	if _, err := New(bad, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
	e, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() < 1 {
		t.Fatalf("defaulted shard count %d", e.Shards())
	}
}

// TestConcurrentIngestMatchesExact drives many goroutines through
// per-goroutine handles and checks the merged answers against the exact
// profile under the race detector.
func TestConcurrentIngestMatchesExact(t *testing.T) {
	const feeders = 8
	const perFeeder = 20_000
	cfg := testConfig()
	e, err := New(cfg, feeders)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-generate every feeder's events so the exact referee sees the
	// identical multiset.
	events := make([][]uint64, feeders)
	ex := exact.New()
	for f := range events {
		rng := stats.NewSplitMix64(uint64(100 + f))
		z := stats.NewZipf(rng, 1<<16, 1.2)
		events[f] = make([]uint64, perFeeder)
		for i := range events[f] {
			v := uint64(z.Rank())
			events[f][i] = v
			ex.Add(v)
		}
	}

	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(vals []uint64) {
			defer wg.Done()
			h := e.Handle()
			for i, v := range vals {
				if i%3 == 0 {
					h.AddN(v, 1)
				} else {
					h.Add(v)
				}
			}
		}(events[f])
	}
	wg.Wait()

	total := uint64(feeders * perFeeder)
	if got := e.N(); got != total {
		t.Fatalf("N = %d, want %d", got, total)
	}
	st := e.Stats()
	if st.N != total {
		t.Fatalf("Stats.N = %d, want %d", st.N, total)
	}

	// Merged estimates: lower bounds within eps*n_total on tracked ranges.
	slack := cfg.Epsilon * float64(total)
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 40; q++ {
		width := uint64(1) << (2 * (1 + rng.Intn(7)))
		lo := uint64(rng.Intn(1<<16)) &^ (width - 1)
		hi := lo + width - 1
		truth := ex.RangeCount(lo, hi)
		low, high := e.EstimateBounds(lo, hi)
		if low > truth || truth > high {
			t.Fatalf("[%x,%x]: truth %d outside [%d,%d]", lo, hi, truth, low, high)
		}
		if float64(truth)-float64(low) > slack {
			t.Fatalf("[%x,%x]: undershoot %d beyond eps*n = %.1f", lo, hi, truth-low, slack)
		}
	}

	// The hot head of the Zipf stream must be found in the merged view
	// even though every shard only saw a slice of it.
	hot := e.HotRanges(0.05)
	if len(hot) == 0 {
		t.Fatal("no hot ranges over a Zipf stream")
	}
	var found bool
	for _, h := range hot {
		if h.Lo == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rank-0 head missing from hot ranges: %+v", hot)
	}
}

// TestConcurrentQueriesDuringIngest runs queries and snapshots while
// feeders are active; the race detector guards the locking discipline.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var feeders, querier sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 4; f++ {
		feeders.Add(1)
		go func(seed uint64) {
			defer feeders.Done()
			h := e.Handle()
			rng := stats.NewSplitMix64(seed)
			buf := make([]uint64, 64)
			for i := 0; i < 200; i++ {
				for j := range buf {
					buf[j] = rng.Uint64n(1 << 16)
				}
				h.AddBatch(buf)
			}
		}(uint64(f + 1))
	}
	querier.Add(1)
	go func() {
		defer querier.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Estimate(0, 1<<12)
			e.HotRanges(0.1)
			e.Stats()
			if _, err := e.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Engine-level (handle-free) ingestion in parallel with everything.
	for i := 0; i < 1000; i++ {
		e.Add(uint64(i % 512))
	}
	e.AddBatch([]uint64{1, 2, 3})

	feeders.Wait()
	close(stop)
	querier.Wait()

	if got, want := e.N(), uint64(4*200*64+1003); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewSplitMix64(5)
	for i := 0; i < 30_000; i++ {
		e.Add(rng.Uint64n(1 << 16))
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	back, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if back.N() != e.N() {
		t.Fatalf("restored N = %d, want %d", back.N(), e.N())
	}
	// ArenaBytes is physical slab capacity, not logical state, and a
	// restored tree allocates exactly what it needs; DescentLevels is
	// ingest history snapshots do not carry, and restored trees have no
	// start table until they descend — exclude all three.
	got, want := back.Stats(), e.Stats()
	got.ArenaBytes, want.ArenaBytes = 0, 0
	got.DescentLevels, want.DescentLevels = 0, 0
	got.StartTableBytes, want.StartTableBytes = 0, 0
	if got != want {
		t.Fatalf("restored stats %+v != %+v", got, want)
	}
	for _, span := range [][2]uint64{{0, 1 << 10}, {1 << 10, 1 << 14}, {0, 1<<16 - 1}} {
		if g, w := back.Estimate(span[0], span[1]), e.Estimate(span[0], span[1]); g != w {
			t.Fatalf("estimate [%x,%x]: %d != %d", span[0], span[1], g, w)
		}
	}

	wrongK, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongK.Restore(snap); err == nil {
		t.Fatal("restore with mismatched shard count accepted")
	}
	// Corrupt data must not disturb the engine.
	before := back.Stats()
	if err := back.Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if back.Stats() != before {
		t.Fatal("failed restore mutated engine")
	}
}

// denyOdd refuses odd points, so the shards' unadmitted ledgers fill.
type denyOdd struct{}

func (denyOdd) Admit(p, _ uint64, _ int) bool { return p%2 == 0 }
func (denyOdd) Pulse(core.Stats)              {}
func (denyOdd) TreeReplaced()                 {}

// TestStatsSumsEveryShard: the engine's Stats is the sum of its shards'
// for every count core.Stats carries, so a field added to core.Stats
// without a line in Stats.Add fails here. Height is configuration, not a
// count. Every summed field must be nonzero, or its check would pass with
// the field left out.
func TestStatsSumsEveryShard(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e.SetShardAdmitters(func(int) core.Admitter { return denyOdd{} })
	z := stats.NewZipf(stats.NewSplitMix64(5), 1<<16, 1.2)
	h0, h1 := e.Handle(), e.Handle() // shards 0 and 1
	for i := 0; i < 50_000; i++ {
		h0.Add(uint64(z.Rank()))
		h1.Add(uint64(z.Rank()))
	}
	// Shard 0 also takes counts past 32 and 16 bits, which collapses its
	// tree; shard 1 keeps its narrow counters.
	h0.AddN(1<<15, 1<<33)
	h0.AddN(2, 1<<20)
	asUint := func(v reflect.Value) uint64 {
		switch v.Kind() {
		case reflect.Int:
			return uint64(v.Int())
		case reflect.Uint64:
			return v.Uint()
		}
		t.Fatalf("core.Stats field of kind %v", v.Kind())
		return 0
	}
	total := reflect.ValueOf(e.Stats())
	parts := []reflect.Value{reflect.ValueOf(e.ShardStats(0)), reflect.ValueOf(e.ShardStats(1))}
	for i := 0; i < total.NumField(); i++ {
		name := total.Type().Field(i).Name
		if name == "Height" {
			continue
		}
		var sum uint64
		for _, p := range parts {
			sum += asUint(p.Field(i))
		}
		if got := asUint(total.Field(i)); got != sum {
			t.Errorf("Stats().%s = %d, shards sum to %d", name, got, sum)
		}
		if sum == 0 {
			t.Errorf("%s is 0 on both shards: the stream does not exercise it", name)
		}
	}
}

func TestHooksSurviveRestore(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	splits := 0
	e.SetHooks(&core.Hooks{Split: func(core.SplitEvent) {
		mu.Lock()
		splits++
		mu.Unlock()
	}})

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewSplitMix64(11)
	z := stats.NewZipf(rng, 1<<14, 1.3)
	h := e.Handle()
	for i := 0; i < 50_000; i++ {
		h.Add(uint64(z.Rank()))
	}
	mu.Lock()
	defer mu.Unlock()
	if splits == 0 {
		t.Fatal("hooks lost across Restore: no splits observed")
	}
	if agg := e.Stats(); uint64(splits) != agg.Splits {
		t.Fatalf("hook count %d != aggregated splits %d", splits, agg.Splits)
	}
}

func TestSetShardHooksLabelsEachShard(t *testing.T) {
	e, err := New(testConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perShard := make([]int, 3)
	e.SetShardHooks(func(i int) *core.Hooks {
		return &core.Hooks{Split: func(core.SplitEvent) {
			mu.Lock()
			perShard[i]++
			mu.Unlock()
		}}
	})
	rng := stats.NewSplitMix64(3)
	z := stats.NewZipf(rng, 1<<14, 1.3)
	for i := 0; i < 60_000; i++ {
		e.Add(uint64(z.Rank())) // round-robin hits every shard
	}
	mu.Lock()
	defer mu.Unlock()
	for i, c := range perShard {
		if c == 0 {
			t.Fatalf("shard %d saw no splits; per-shard hooks not installed", i)
		}
	}
}

func TestWithShardAndSnapshotShardsCut(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	e.WithShard(0, func(tr *core.Tree) {
		tr.AddN(42, 7)
		applied += 7
	})
	var captured uint64
	snaps, err := e.SnapshotShards(func() { captured = e.shards[0].tree.N() })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d shard snapshots, want 2", len(snaps))
	}
	if captured != 7 {
		t.Fatalf("capture saw n=%d, want 7", captured)
	}
	var tr core.Tree
	if err := tr.UnmarshalBinary(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if tr.N() != 7 {
		t.Fatalf("shard 0 snapshot has n=%d, want 7", tr.N())
	}
}

func TestMergedTreeIsIndependent(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		e.Add(uint64(i % 1024))
	}
	m := e.MergedTree()
	if m.N() != e.N() {
		t.Fatalf("merged N %d != engine N %d", m.N(), e.N())
	}
	before := e.Stats()
	for i := 0; i < 10_000; i++ {
		m.Add(uint64(i))
	}
	if e.Stats() != before {
		t.Fatal("mutating merged snapshot changed live shards")
	}
}
