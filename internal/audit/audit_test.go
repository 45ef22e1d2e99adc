package audit

import (
	"math/rand"
	"sync"
	"testing"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/shard"
	"rap/internal/span"
)

func testConfig(ub int) core.Config {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = ub
	cfg.Epsilon = 0.05
	cfg.Branch = 4
	return cfg
}

// aggressive options: adopt eagerly so small test streams exercise the
// range machinery.
func testOptions() Options {
	return Options{MaxRanges: 16, SpanBits: 8, SamplePeriod: 4, Seed: 1}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxRanges != DefaultMaxRanges || o.SpanBits != DefaultSpanBits ||
		o.SamplePeriod != DefaultSamplePeriod {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o := (Options{SamplePeriod: 1000}).withDefaults(); o.SamplePeriod != 1024 {
		t.Fatalf("SamplePeriod 1000 rounded to %d, want 1024", o.SamplePeriod)
	}
	if o := (Options{SamplePeriod: 256}).withDefaults(); o.SamplePeriod != 256 {
		t.Fatalf("power-of-two SamplePeriod changed to %d", o.SamplePeriod)
	}
}

func TestAttachErrors(t *testing.T) {
	a := New(testOptions())
	if _, err := a.Attach(testConfig(24), nil, 1); err != ErrNilEstimator {
		t.Fatalf("nil estimator: err = %v", err)
	}
	tr := core.MustNew(testConfig(24))
	if _, err := a.Attach(testConfig(24), tr, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := a.Attach(testConfig(24), tr, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Attach(testConfig(24), tr, 1); err != ErrAttached {
		t.Fatalf("double attach: err = %v", err)
	}
	if _, err := New(testOptions()).Attach(core.Config{UniverseBits: -1}, tr, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAuditNotAttached(t *testing.T) {
	if _, err := New(testOptions()).Audit(); err != ErrNotAttached {
		t.Fatalf("err = %v, want ErrNotAttached", err)
	}
}

// attachTree builds a plain tree with an attached auditor; the tap is
// installed directly on the tree.
func attachTree(t *testing.T, cfg core.Config, opts Options) (*core.Tree, *Auditor) {
	t.Helper()
	tr := core.MustNew(cfg)
	a := New(opts)
	taps, err := a.Attach(cfg, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTap(taps[0])
	return tr, a
}

func checkClean(t *testing.T, rep Report, name string) {
	t.Helper()
	if rep.Verdict != "ok" || rep.PassViolations != 0 || rep.ViolationsTotal != 0 {
		t.Fatalf("%s: verdict %q with %d violations (total %d): %+v",
			name, rep.Verdict, rep.PassViolations, rep.ViolationsTotal, rep.Ranges)
	}
	if float64(rep.MaxUnderestimate) > rep.Budget {
		t.Fatalf("%s: max underestimate %d exceeds certified budget %.1f (eps*n %.1f)",
			name, rep.MaxUnderestimate, rep.Budget, rep.EpsN)
	}
	for _, r := range rep.Ranges {
		if r.Truth > r.High {
			t.Fatalf("%s: [%x,%x] truth %d above high %d", name, r.Lo, r.Hi, r.Truth, r.High)
		}
	}
}

func TestPlainTreeWorkloads(t *testing.T) {
	workloads := map[string]func(r *rand.Rand) uint64{
		"zipf": func(r *rand.Rand) uint64 {
			z := rand.NewZipf(r, 1.2, 1, 1<<20)
			return z.Uint64()
		},
		"uniform": func(r *rand.Rand) uint64 { return r.Uint64() >> 40 },
		// adversarial: tight spans that straddle audited-range borders,
		// plus heavy repeats at block edges.
		"spans": func(r *rand.Rand) uint64 {
			base := uint64(r.Intn(16)) << 8
			return base + uint64(r.Intn(3)) - 1&255
		},
	}
	for name, gen := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(24)
			tr, a := attachTree(t, cfg, testOptions())
			rng := rand.New(rand.NewSource(7))
			next := gen(rng)
			for i := 0; i < 200_000; i++ {
				tr.Add(next)
				next = gen(rng)
				if i%50_000 == 49_999 {
					rep, err := a.Audit()
					if err != nil {
						t.Fatal(err)
					}
					checkClean(t, rep, name)
				}
			}
			rep, err := a.Audit()
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, rep, name)
			if len(rep.Ranges) < 2 {
				t.Fatalf("%s: no sampled ranges adopted: %+v", name, rep)
			}
			if rep.N != tr.N() {
				t.Fatalf("%s: report N %d != tree N %d", name, rep.N, tr.N())
			}
			// universe row is exact
			if u := rep.Ranges[0]; u.Kind != "universe" || u.Truth != rep.N || u.Estimate != rep.N {
				t.Fatalf("%s: universe row %+v, want exact N %d", name, u, rep.N)
			}
		})
	}
}

func TestBatchedPathsAreTapped(t *testing.T) {
	cfg := testConfig(24)
	tr, a := attachTree(t, cfg, testOptions())
	pts := make([]uint64, 1000)
	for i := range pts {
		pts[i] = uint64(i % 512)
	}
	tr.AddBatch(pts)
	tr.AddSamples([]core.Sample{{Value: 3, Weight: 10}, {Value: 9, Weight: 0}})
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "batched")
	if rep.TapN != tr.N() {
		t.Fatalf("tap mass %d != tree N %d: a batched path is missing the tap", rep.TapN, tr.N())
	}
}

func TestShardedEngineConcurrent(t *testing.T) {
	cfg := testConfig(24)
	e, err := shard.New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(testOptions())
	taps, err := a.Attach(cfg, e, e.Shards())
	if err != nil {
		t.Fatal(err)
	}
	e.SetShardTaps(func(i int) core.Tap { return taps[i] })

	reg := obs.NewRegistry()
	a.Register(reg, span.New(span.Options{SampleRate: 1, SlowThreshold: -1}))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := e.Handle()
			rng := rand.New(rand.NewSource(seed))
			z := rand.NewZipf(rng, 1.1, 1, 1<<22)
			buf := make([]uint64, 0, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf = buf[:0]
				for j := 0; j < 64; j++ {
					buf = append(buf, z.Uint64())
				}
				h.AddBatch(buf)
			}
		}(int64(f + 1))
	}
	// Audit concurrently with live ingest: the cut must keep every pass
	// clean even while all four feeders are mid-stream.
	for pass := 0; pass < 20; pass++ {
		rep, err := a.Audit()
		if err != nil {
			t.Fatal(err)
		}
		checkClean(t, rep, "sharded")
	}
	close(stop)
	wg.Wait()
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "sharded-final")
	if rep.N != e.N() {
		t.Fatalf("report N %d != engine N %d", rep.N, e.N())
	}
	if got := reg.Counter(MetricAuditViolations, "").Value(); got != 0 {
		t.Fatalf("violations counter = %d", got)
	}
	if reg.Counter(MetricAuditPasses, "").Value() != rep.Passes {
		t.Fatal("passes counter does not match report")
	}
}

// brokenEstimator inflates the lower bound and deflates the upper bound —
// the deliberately broken estimator of the acceptance criteria. It only
// implements the plain Estimator surface, so the audit exercises the
// fallback (serialized) path and actually consumes the faulty answers.
type brokenEstimator struct {
	tree *core.Tree
}

func (b *brokenEstimator) N() uint64 { return b.tree.N() }
func (b *brokenEstimator) EstimateBounds(lo, hi uint64) (uint64, uint64) {
	low, high := b.tree.EstimateBounds(lo, hi)
	if hi-lo < 1<<20 { // leave the universe row honest; break range answers
		return low*2 + b.tree.N(), high / 2
	}
	return low, high
}

func TestBrokenEstimatorCaught(t *testing.T) {
	cfg := testConfig(24)
	tr := core.MustNew(cfg)
	be := &brokenEstimator{tree: tr}
	a := New(testOptions())
	taps, err := a.Attach(cfg, be, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTap(taps[0])
	reg := obs.NewRegistry()
	tracer := span.New(span.Options{SampleRate: 1000, SlowThreshold: -1}) // heavy sampling: violations must still land
	a.Register(reg, tracer)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		tr.Add(uint64(rng.Intn(1 << 16)))
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "violated" || rep.PassViolations == 0 {
		t.Fatalf("broken estimator not caught: %+v", rep)
	}
	if got := reg.Counter(MetricAuditViolations, "").Value(); got == 0 {
		t.Fatal("violations counter still 0")
	}
	for what, recs := range map[string][]span.Record{"span ring": tracer.Spans(), "slow-op log": tracer.SlowOps()} {
		found := false
		for _, r := range recs {
			if r.Name == SpanViolation && len(r.Attrs) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no %s event in the %s", SpanViolation, what)
		}
	}
}

// concurrentAudited builds the one-shard engine rap.WithConcurrent uses,
// tapped for a fresh auditor.
func concurrentAudited(t *testing.T, cfg core.Config, adm core.Admitter) (*shard.Engine, *Auditor) {
	t.Helper()
	c, err := shard.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if adm != nil {
		c.SetShardAdmitters(func(int) core.Admitter { return adm })
	}
	a := New(testOptions())
	taps, err := a.Attach(cfg, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetShardTaps(func(int) core.Tap { return taps[0] })
	return c, a
}

func TestRestoreTriggersRebase(t *testing.T) {
	c, a := concurrentAudited(t, testConfig(24), nil)
	for i := 0; i < 20_000; i++ {
		c.Add(uint64(i % 4096))
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "pre-restore")

	// More ingest, then restore the older snapshot: tapped truth now
	// exceeds the tree. Without the rebase this would report violations.
	for i := 0; i < 20_000; i++ {
		c.Add(uint64(i % 4096))
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "rebased" || rep.RebasesTotal != 1 {
		t.Fatalf("restore not rebased: %+v", rep)
	}
	// Post-rebase epoch starts clean and audits normally again.
	for i := 0; i < 20_000; i++ {
		c.Add(uint64(i % 4096))
	}
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "post-restore")
	if rep.BaseN == 0 {
		t.Fatal("rebase should have moved pre-restore mass into baseN")
	}
}

func TestShardRestoreAndAdoptRebase(t *testing.T) {
	cfg := testConfig(24)
	e, err := shard.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := New(testOptions())
	taps, err := a.Attach(cfg, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.SetShardTaps(func(i int) core.Tap { return taps[i] })
	for i := 0; i < 10_000; i++ {
		e.Add(uint64(i % 2048))
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		e.Add(uint64(i % 2048))
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "rebased" {
		t.Fatalf("shard restore not rebased: %+v", rep)
	}
	// Taps survived the restore: new ingest is observed again.
	for i := 0; i < 10_000; i++ {
		e.Add(uint64(i % 2048))
	}
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "post-shard-restore")
	if rep.TapN == 0 {
		t.Fatal("taps lost after Restore")
	}

	// AdoptShard (the ingest recovery path) also rebases.
	e.AdoptShard(0, core.MustNew(cfg))
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "rebased" {
		t.Fatalf("AdoptShard not rebased: %+v", rep)
	}
}

func TestConcurrentMergeRebases(t *testing.T) {
	cfg := testConfig(24)
	c, a := concurrentAudited(t, cfg, nil)
	for i := 0; i < 5_000; i++ {
		c.Add(uint64(i % 512))
	}
	other := core.MustNew(cfg)
	for i := 0; i < 5_000; i++ {
		other.Add(uint64(i % 512))
	}
	if err := c.Merge(other); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "rebased" {
		t.Fatalf("merged mass not rebased: %+v", rep)
	}
}

func TestRangeSetFind(t *testing.T) {
	rs := &rangeSet{ranges: []auditRange{
		{lo: 0x100, hi: 0x1ff}, {lo: 0x300, hi: 0x3ff}, {lo: 0x800, hi: 0x8ff},
	}}
	cases := []struct {
		p    uint64
		want int
	}{
		{0x0, -1}, {0x100, 0}, {0x1ff, 0}, {0x200, -1}, {0x300, 1},
		{0x3ff, 1}, {0x400, -1}, {0x800, 2}, {0x8ff, 2}, {0x900, -1},
	}
	for _, c := range cases {
		if got := rs.find(c.p); got != c.want {
			t.Fatalf("find(%#x) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestAdoptionBoundedAndAligned(t *testing.T) {
	cfg := testConfig(24)
	tr, a := attachTree(t, cfg, Options{MaxRanges: 4, SpanBits: 8, SamplePeriod: 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100_000; i++ {
		tr.Add(rng.Uint64())
	}
	rs := a.ranges.Load()
	if len(rs.ranges) != 4 {
		t.Fatalf("adopted %d ranges, want the MaxRanges cap of 4", len(rs.ranges))
	}
	span := a.span
	for i, r := range rs.ranges {
		if r.lo&span != 0 || r.hi != r.lo|span {
			t.Fatalf("range %d [%x,%x] not an aligned block of span %x", i, r.lo, r.hi, span)
		}
		if i > 0 && r.lo <= rs.ranges[i-1].hi {
			t.Fatalf("ranges overlap or unsorted: %x after %x", r.lo, rs.ranges[i-1].hi)
		}
		if r.slack == 0 {
			t.Fatalf("range %d published without slack", i)
		}
	}
}

func TestWarmAttachUsesBaseN(t *testing.T) {
	cfg := testConfig(24)
	tr := core.MustNew(cfg)
	for i := 0; i < 30_000; i++ {
		tr.Add(uint64(i % 1024))
	}
	a := New(testOptions())
	taps, err := a.Attach(cfg, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTap(taps[0])
	for i := 0; i < 30_000; i++ {
		tr.Add(uint64(i % 1024))
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "warm-attach")
	if rep.BaseN != 30_000 || rep.TapN != 30_000 {
		t.Fatalf("baseN %d tapN %d, want 30000/30000", rep.BaseN, rep.TapN)
	}
}
