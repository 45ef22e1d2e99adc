// Command rapd is the long-running resilient ingest daemon: it feeds one
// or more event sources through the supervised, checkpointed pipeline of
// internal/ingest and keeps a crash-recoverable RAP profile on disk. It is
// the deployment story for the always-on profiler the paper's hardware
// engine implies: kill it at any point and restart it, and the profile
// resumes from the last checkpoint with nothing double-counted.
//
// Usage:
//
//	rapd -checkpoint-dir /var/lib/rapd a.trace b.trace
//	raptrace -bench gzip -kind value -n 5000000 | rapd -stdin
//	rapd -bench gzip -kind value -gen-n 10000000 -stats-every 2s
//	rapd -bench gzip -kind value -admin 127.0.0.1:9090
//
// With -admin, rapd serves its observability plane over HTTP: /metrics
// (Prometheus text) and /metrics.json, /healthz and /readyz (structured
// checks keyed on source liveness and checkpoint freshness), the
// versioned query API /v1/estimate, /v1/hotranges, and /v1/stats
// (each request answered from one epoch cut as of its arrival, with
// epoch headers and 429s while admission is at Siege), /spans
// (recorded spans and structural events — tree.split, tree.merge,
// audit.violation, admit.level — as JSONL; /v1 requests honor an inbound
// W3C traceparent header and stamp one on the response), /profilez
// (RAP-tree adaptive latency profiles per pipeline stage, with span
// exemplars and a fixed-ladder comparison), /vars (flight-recorder
// metric history with windowed queries), /alerts (the in-process alert
// rules), /statusz (a human-readable status page, including the slow-op
// log), /debug/bundle (a one-shot gzipped-tar diagnostic bundle), and
// /debug/pprof. The
// flight recorder scrapes the registry every -flight-every into a
// bounded in-memory ring of -flight-depth delta-compressed frames.
// Request tracing samples 1 in -span-sample traces end to end through
// enqueue, queue wait, shard apply, merge batches, and checkpoint
// cut/write, and 1 in -span-sample split/merge decisions;
// spans slower than -slow-op are always recorded, as are audit verdicts
// and admission level changes, and while any alert fires every span is
// recorded.
//
// Trace-file and generator sources are replayable, so crash recovery is
// lossless for them. Stdin is a one-shot stream: events between the last
// checkpoint and a crash cannot be replayed (the gap is logged).
// SIGINT/SIGTERM trigger a clean shutdown: queues drain, a final
// checkpoint is flushed, and the closing stats are printed. SIGQUIT dumps
// a diagnostic bundle to a file and keeps running.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"rap/internal/admit"
	"rap/internal/audit"
	"rap/internal/core"
	"rap/internal/flight"
	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/span"
	"rap/internal/trace"
	"rap/internal/workload"
)

type cliConfig struct {
	traces []string // positional trace file paths
	stdin  bool

	bench string // generator source: workload name
	kind  string
	genN  uint64
	seed  uint64

	shards   int
	queue    int
	batch    int
	drop     string
	epsilon  float64
	universe int
	branch   int

	checkpointDir   string
	checkpointEvery time.Duration
	readTimeout     time.Duration
	maxRetries      int
	statsEvery      time.Duration

	admin string // admin HTTP address, "" = disabled

	spanSample uint64        // span head sampling: keep 1 in N traces and events
	spanCap    int           // span ring capacity
	slowOp     time.Duration // slow-op promotion threshold (0: disabled)

	flightEvery time.Duration // flight recorder scrape cadence
	flightDepth int           // flight recorder ring depth, in frames
	dumpBundle  string        // write a diagnostic bundle here on exit

	audit         bool          // run the online accuracy self-audit
	auditEvery    time.Duration // audit pass cadence
	auditRanges   int           // max sampled ranges audited at once
	auditSpanBits int           // minimum audited range width, in bits
	auditSample   uint64        // adoption gate: 1 in N hash values

	admit          bool   // run the randomized admission frontend
	admitPeriod    uint64 // base coin period at Normal
	admitArenaSoft uint64 // watchdog soft arena threshold, bytes
	admitArenaHard uint64 // watchdog hard arena threshold, bytes

	floodFrac float64 // -kind flood: flood share of the mixed stream
	floodN    uint64  // -kind flood: burst length (0: steady mix)

	// setFlags records which flags were given explicitly, so validate can
	// reject sub-flags whose master switch is off.
	setFlags map[string]bool
}

func main() {
	c := parseFlags(os.Args[1:], os.Stderr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "rapd: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) cliConfig {
	var c cliConfig
	fs := flag.NewFlagSet("rapd", flag.ExitOnError)
	fs.SetOutput(errOut)
	fs.BoolVar(&c.stdin, "stdin", false, "ingest a binary trace stream from stdin")
	fs.StringVar(&c.bench, "bench", "", "add a generated source: modeled benchmark (gcc gzip mcf parser vortex vpr bzip2)")
	fs.StringVar(&c.kind, "kind", "value", "generated stream kind: code | value | address | zeroload | flood (adversarial key flood mixed over the benchmark's value stream)")
	fs.Uint64Var(&c.genN, "gen-n", 10_000_000, "events for the generated source")
	fs.Uint64Var(&c.seed, "seed", 1, "seed for the generated source")
	fs.IntVar(&c.shards, "shards", 4, "tree shards")
	fs.IntVar(&c.queue, "queue", 64, "bounded queue capacity per shard, in batches")
	fs.IntVar(&c.batch, "batch", 256, "events read from a source and queued as one entry")
	fs.StringVar(&c.drop, "drop", "block", "overload policy: block (lossless backpressure) | newest (shed + count)")
	fs.Float64Var(&c.epsilon, "epsilon", core.DefaultEpsilon, "error bound")
	fs.IntVar(&c.universe, "universe-bits", core.DefaultUniverseBits, "universe width in bits")
	fs.IntVar(&c.branch, "branch", core.DefaultBranch, "branching factor")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "directory for crash-safe checkpoints (empty: disabled)")
	fs.DurationVar(&c.checkpointEvery, "checkpoint-every", 10*time.Second, "checkpoint cadence; bounds the crash replay window")
	fs.DurationVar(&c.readTimeout, "read-timeout", 30*time.Second, "per-read stall timeout for trace files and -bench streams; -stdin, which cannot be reopened, waits for its producer (0: disabled)")
	fs.IntVar(&c.maxRetries, "max-retries", 5, "consecutive failures before a source is abandoned")
	fs.DurationVar(&c.statsEvery, "stats-every", 10*time.Second, "stats logging cadence (0: disabled)")
	fs.StringVar(&c.admin, "admin", "", "admin HTTP address serving /metrics, /healthz, /readyz, /spans, /vars, /alerts, /statusz, /debug/bundle, pprof (empty: disabled)")
	fs.Uint64Var(&c.spanSample, "span-sample", 100, "span head sampling: keep 1 in N traces with all their child spans, and 1 in N split/merge events")
	fs.IntVar(&c.spanCap, "span-cap", 4096, "span ring capacity, in spans and events")
	fs.DurationVar(&c.slowOp, "slow-op", 100*time.Millisecond, "record any span at least this long regardless of sampling (0: disabled)")
	fs.DurationVar(&c.flightEvery, "flight-every", time.Second, "flight recorder scrape cadence")
	fs.IntVar(&c.flightDepth, "flight-depth", 900, "flight recorder history depth, in scrapes (depth x cadence of retained history)")
	fs.StringVar(&c.dumpBundle, "dump-bundle", "", "write a diagnostic bundle to this path when the daemon exits")
	fs.BoolVar(&c.audit, "audit", false, "run the online accuracy self-audit (exact shadow counts vs estimates)")
	fs.DurationVar(&c.auditEvery, "audit-every", 10*time.Second, "audit pass cadence")
	fs.IntVar(&c.auditRanges, "audit-ranges", audit.DefaultMaxRanges, "maximum sampled ranges audited at once")
	fs.IntVar(&c.auditSpanBits, "audit-span-bits", audit.DefaultSpanBits, "minimum audited range width, in bits")
	fs.Uint64Var(&c.auditSample, "audit-sample", audit.DefaultSamplePeriod, "range adoption gate: 1 in N of the hash space seeds a new audited range")
	fs.BoolVar(&c.admit, "admit", false, "run the randomized admission frontend (cold points pay a coin toll; refused mass is ledgered into bounds)")
	fs.Uint64Var(&c.admitPeriod, "admit-period", 8, "admission coin period at Normal (cold point passes with probability 1/period)")
	fs.Uint64Var(&c.admitArenaSoft, "admit-arena-soft", 8<<20, "watchdog arena bytes that escalate admission to Defensive")
	fs.Uint64Var(&c.admitArenaHard, "admit-arena-hard", 32<<20, "watchdog arena bytes that escalate admission to Siege")
	fs.Float64Var(&c.floodFrac, "flood-frac", 1.0, "for -kind flood: flood share of the mixed stream, in [0,1]")
	fs.Uint64Var(&c.floodN, "flood-n", 0, "for -kind flood: front-load a pure-flood burst of this many events, then switch to the benign carrier (0: steady mix)")
	fs.Parse(args)
	c.traces = fs.Args()
	c.setFlags = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { c.setFlags[f.Name] = true })
	return c
}

// validate rejects flag combinations that would silently do something
// other than what the operator asked for: tuning knobs for a subsystem
// that is switched off, thresholds in the wrong order, fractions out of
// range, and sizes or cadences the ingest defaults would quietly replace.
func (c cliConfig) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", c.shards}, {"queue", c.queue}, {"batch", c.batch}, {"max-retries", c.maxRetries}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: must be >= 1", f.name, f.v)
		}
	}
	if c.checkpointEvery <= 0 {
		return fmt.Errorf("-checkpoint-every %v: cadence must be positive", c.checkpointEvery)
	}
	if !c.audit {
		for _, name := range []string{"audit-every", "audit-ranges", "audit-span-bits", "audit-sample"} {
			if c.setFlags[name] {
				return fmt.Errorf("-%s requires -audit", name)
			}
		}
	}
	if c.audit && c.auditEvery <= 0 {
		return fmt.Errorf("-audit-every %v: cadence must be positive", c.auditEvery)
	}
	if !c.admit {
		for _, name := range []string{"admit-period", "admit-arena-soft", "admit-arena-hard"} {
			if c.setFlags[name] {
				return fmt.Errorf("-%s requires -admit", name)
			}
		}
	}
	if c.admin == "" {
		for _, name := range []string{"flight-every", "flight-depth", "dump-bundle",
			"span-sample", "span-cap", "slow-op"} {
			if c.setFlags[name] {
				return fmt.Errorf("-%s requires -admin", name)
			}
		}
	}
	if c.setFlags["span-sample"] && c.spanSample < 1 {
		return fmt.Errorf("-span-sample %d: rate must be >= 1", c.spanSample)
	}
	if c.setFlags["span-cap"] && c.spanCap < 1 {
		return fmt.Errorf("-span-cap %d: capacity must be >= 1", c.spanCap)
	}
	if c.setFlags["flight-every"] && c.flightEvery <= 0 {
		return fmt.Errorf("-flight-every %v: cadence must be positive", c.flightEvery)
	}
	if c.setFlags["flight-depth"] && c.flightDepth < 1 {
		return fmt.Errorf("-flight-depth %d: depth must be >= 1", c.flightDepth)
	}
	if c.admit && c.admitPeriod < 1 {
		return fmt.Errorf("-admit-period %d: period must be >= 1", c.admitPeriod)
	}
	if c.admit && c.admitPeriod > admit.MaxBasePeriod {
		return fmt.Errorf("-admit-period %d: period must be <= %d", c.admitPeriod, uint64(admit.MaxBasePeriod))
	}
	// With soft <= hard, these three checks hold both thresholds in
	// [1, MaxInt64]: the watchdog compares them as int64 arena bytes.
	if c.admit && c.admitArenaSoft < 1 {
		return fmt.Errorf("-admit-arena-soft %d: threshold must be >= 1", c.admitArenaSoft)
	}
	if c.admit && c.admitArenaHard > math.MaxInt64 {
		return fmt.Errorf("-admit-arena-hard %d: threshold must be <= %d", c.admitArenaHard, int64(math.MaxInt64))
	}
	if c.admit && c.admitArenaSoft > c.admitArenaHard {
		return fmt.Errorf("-admit-arena-soft %d exceeds -admit-arena-hard %d", c.admitArenaSoft, c.admitArenaHard)
	}
	if c.kind != "flood" {
		for _, name := range []string{"flood-frac", "flood-n"} {
			if c.setFlags[name] {
				return fmt.Errorf("-%s requires -kind flood", name)
			}
		}
	}
	if c.floodFrac < 0 || c.floodFrac > 1 {
		return fmt.Errorf("-flood-frac %v: fraction must be in [0,1]", c.floodFrac)
	}
	return nil
}

func (c cliConfig) options(logger *slog.Logger) (ingest.Options, error) {
	cfg := core.DefaultConfig()
	cfg.Epsilon = c.epsilon
	cfg.UniverseBits = c.universe
	cfg.Branch = c.branch
	// Queries always answer from epochs. Each /v1 request pins one cut as
	// of its arrival (Engine.Reader), which copies each shard under that
	// shard's lock alone, never by holding every shard at once.
	opts := ingest.Options{
		Tree:            cfg,
		Shards:          c.shards,
		QueueLen:        c.queue,
		BatchLen:        c.batch,
		ReadTimeout:     c.readTimeout,
		MaxRetries:      c.maxRetries,
		CheckpointDir:   c.checkpointDir,
		CheckpointEvery: c.checkpointEvery,
		Logger:          logger,
	}
	switch c.drop {
	case "block":
		opts.Drop = ingest.Block
	case "newest":
		opts.Drop = ingest.DropNewest
	default:
		return opts, fmt.Errorf("unknown drop policy %q (want block or newest)", c.drop)
	}
	if c.audit {
		opts.Audit = &audit.Options{
			MaxRanges:    c.auditRanges,
			SpanBits:     c.auditSpanBits,
			SamplePeriod: c.auditSample,
			Seed:         c.seed,
		}
		opts.AuditEvery = c.auditEvery
	}
	if c.admit {
		opts.Admission = &admit.Options{
			BasePeriod:     c.admitPeriod,
			ArenaSoftBytes: int64(c.admitArenaSoft),
			ArenaHardBytes: int64(c.admitArenaHard),
			Seed:           c.seed,
		}
	}
	return opts, nil
}

// alertRules configures the built-in alert rules from the daemon's flags.
func (c cliConfig) alertRules() []flight.Rule {
	bcfg := flight.BuiltinConfig{DropNewest: c.drop == "newest"}
	if c.checkpointDir != "" {
		bcfg.CheckpointEvery = c.checkpointEvery
	}
	return flight.BuiltinRules(bcfg)
}

func (c cliConfig) specs(stdin io.Reader) ([]ingest.SourceSpec, error) {
	var specs []ingest.SourceSpec
	for i, path := range c.traces {
		specs = append(specs, ingest.FileSource(fmt.Sprintf("trace%d:%s", i, path), path))
	}
	if c.stdin {
		specs = append(specs, ingest.ReaderSource("stdin", stdin))
	}
	if c.bench != "" {
		b, err := workload.ByName(c.bench)
		if err != nil {
			return nil, err
		}
		kind, n, seed := c.kind, c.genN, c.seed
		floodFrac, floodN := c.floodFrac, c.floodN
		open := func() trace.Source {
			switch kind {
			case "code":
				return trace.Limit(b.Code(seed, n), n)
			case "value":
				return trace.Limit(b.Values(seed, n), n)
			case "zeroload":
				return trace.Limit(b.Loads(seed, n).ZeroLoadAddresses(), n)
			case "address":
				loads := b.Loads(seed, n)
				return trace.Limit(trace.FuncSource(func() (uint64, bool) {
					return loads.Next().Addr, true
				}), n)
			case "flood":
				// Adversarial stream over the benchmark's value stream as
				// the benign carrier: a front-loaded burst when -flood-n is
				// set (the escalate-then-recover scenario), a steady mix at
				// -flood-frac otherwise.
				carrier := b.Values(seed, n)
				if floodN > 0 {
					return trace.Limit(workload.FloodBurst(seed, floodN, carrier), n)
				}
				return trace.Limit(workload.FloodMix(seed, floodFrac, carrier), n)
			}
			return nil
		}
		if open() == nil {
			return nil, fmt.Errorf("unknown kind %q", c.kind)
		}
		specs = append(specs, ingest.GeneratorSource(
			fmt.Sprintf("gen:%s:%s", c.bench, kind), open))
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no sources: pass trace files, -stdin, or -bench")
	}
	return specs, nil
}

func run(ctx context.Context, c cliConfig, out io.Writer) error {
	logger := slog.New(slog.NewTextHandler(out, nil)).With("app", "rapd")
	if err := c.validate(); err != nil {
		return err
	}
	opts, err := c.options(logger)
	if err != nil {
		return err
	}
	specs, err := c.specs(os.Stdin)
	if err != nil {
		return err
	}

	// The observability plane is built only when the admin endpoint is
	// requested, keeping the uninstrumented daemon's hot path hook-free.
	var tracer *span.Tracer
	var engPtr atomic.Pointer[flight.Engine]
	if c.admin != "" {
		opts.Metrics = obs.NewRegistry()
		obs.RegisterRuntime(opts.Metrics)
		// The tracer must exist before Open so ingest threads spans through
		// the pipeline, but its Force hook watches the alert engine, which
		// is only built after Open. The atomic pointer bridges the gap: a
		// nil engine simply means no forced recording yet.
		slow := c.slowOp
		if slow <= 0 {
			slow = -1 // the flag's 0 means off; 0 in span.Options selects the default
		}
		tracer = span.New(span.Options{
			SampleRate:    c.spanSample,
			Capacity:      c.spanCap,
			SlowThreshold: slow,
			Force: func() bool {
				e := engPtr.Load()
				return e != nil && e.AnyFiring()
			},
		})
		tracer.Register(opts.Metrics)
		opts.Tracer = tracer
	}

	in, err := ingest.Open(opts, specs)
	if err != nil {
		return err
	}
	if n := in.N(); n > 0 {
		logger.Info("recovered events from checkpoint", "events", n, "dir", c.checkpointDir)
	}

	var a *admin
	if c.admin != "" {
		// Flight recorder and alert engine: started after Open so the first
		// scrape already sees the full ingest metric surface, though late
		// series are handled either way.
		rec := flight.NewRecorder(opts.Metrics, flight.Options{
			Every: c.flightEvery,
			Depth: c.flightDepth,
		})
		rec.Register(opts.Metrics)
		eng := flight.NewEngine(rec, c.alertRules()...)
		eng.Register(opts.Metrics)
		engPtr.Store(eng) // arm the tracer's force hook
		stopRec := rec.Start()
		defer stopRec()

		aQuery := obs.NewAdaptiveHistogram()
		aQuery.Register(opts.Metrics, "query")

		a = &admin{
			in:      in,
			reg:     opts.Metrics,
			tracer:  tracer,
			aQuery:  aQuery,
			aud:     in.Auditor(),
			rec:     rec,
			eng:     eng,
			effCfg:  c.effective(),
			start:   time.Now(),
			ckEvery: c.checkpointEvery,
		}
		if c.checkpointDir == "" {
			a.ckEvery = 0 // no checkpointing: freshness never gates readiness
		}
		_, stopAdmin, err := serveAdmin(c.admin, a, logger)
		if err != nil {
			return err
		}
		defer stopAdmin()

		// SIGQUIT dumps a diagnostic bundle and keeps the daemon running —
		// the "grab everything now" gesture for a live incident.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				path := filepath.Join(os.TempDir(),
					fmt.Sprintf("rapd-bundle-%s.tar.gz", time.Now().UTC().Format("20060102T150405Z")))
				if err := flight.WriteBundleFile(path, a.bundleConfig()); err != nil {
					logger.Error("bundle dump failed", "err", err)
				} else {
					logger.Info("diagnostic bundle written", "path", path)
				}
			}
		}()
	}

	stopStats := make(chan struct{})
	defer close(stopStats)
	if c.statsEvery > 0 {
		go func() {
			tick := time.NewTicker(c.statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					logStats(logger, in.Stats())
				case <-stopStats:
					return
				}
			}
		}()
	}

	err = in.Run(ctx)
	st := in.Stats()
	logStats(logger, st)
	for _, s := range st.Sources {
		l := logger.With("source", s.Name, "applied", s.Applied,
			"dropped", s.Dropped, "retries", s.Retries)
		if s.Failed {
			l.Error("source failed", "err", s.LastErr)
		} else {
			l.Info("source done")
		}
	}
	if c.dumpBundle != "" && a != nil {
		if werr := flight.WriteBundleFile(c.dumpBundle, a.bundleConfig()); werr != nil {
			logger.Error("bundle dump failed", "path", c.dumpBundle, "err", werr)
			if err == nil {
				err = werr
			}
		} else {
			logger.Info("diagnostic bundle written", "path", c.dumpBundle)
		}
	}
	return err
}

// effective is the resolved configuration as captured in diagnostic
// bundles: what the daemon is actually running with, not the raw argv.
func (c cliConfig) effective() map[string]any {
	eff := map[string]any{
		"traces":           c.traces,
		"stdin":            c.stdin,
		"shards":           c.shards,
		"queue":            c.queue,
		"batch":            c.batch,
		"drop":             c.drop,
		"epsilon":          c.epsilon,
		"universe_bits":    c.universe,
		"branch":           c.branch,
		"checkpoint_dir":   c.checkpointDir,
		"checkpoint_every": c.checkpointEvery.String(),
		"read_timeout":     c.readTimeout.String(),
		"max_retries":      c.maxRetries,
		"admin":            c.admin,
		"span_sample":      c.spanSample,
		"span_cap":         c.spanCap,
		"slow_op":          c.slowOp.String(),
		"flight_every":     c.flightEvery.String(),
		"flight_depth":     c.flightDepth,
		"audit":            c.audit,
		"admit":            c.admit,
	}
	if c.bench != "" {
		eff["bench"], eff["kind"], eff["gen_n"], eff["seed"] = c.bench, c.kind, c.genN, c.seed
	}
	if c.audit {
		eff["audit_every"] = c.auditEvery.String()
		eff["audit_ranges"] = c.auditRanges
		eff["audit_span_bits"] = c.auditSpanBits
		eff["audit_sample"] = c.auditSample
	}
	if c.admit {
		eff["admit_period"] = c.admitPeriod
		eff["admit_arena_soft"] = c.admitArenaSoft
		eff["admit_arena_hard"] = c.admitArenaHard
	}
	return eff
}

func logStats(logger *slog.Logger, st ingest.Stats) {
	args := []any{
		"n", st.N, "nodes", st.Nodes, "mem_bytes", st.MemoryBytes,
		"splits", st.Splits, "merges", st.Merges,
		"dropped", st.Dropped, "sources", len(st.Sources),
	}
	if st.Unadmitted > 0 {
		args = append(args, "unadmitted", st.Unadmitted)
	}
	if st.Checkpoint.Enabled {
		args = append(args,
			"ck_written", st.Checkpoint.Written,
			"ck_failed", st.Checkpoint.Failed,
			"ck_age", st.Checkpoint.Age(time.Now()).Round(time.Millisecond))
	}
	logger.Info("stats", args...)
}
