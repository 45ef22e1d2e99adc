package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rap/internal/trace"
)

// repResult is one daemon run: rapd fed one whole stream.
type repResult struct {
	setup time.Duration
	// The throughput phase is the burst, or the whole paced feed of a live
	// workload: tpEvents written from tpStart until the last write of the
	// phase returned at tpEnd, with rapd using cpu by then. An unthrottled
	// phase (a burst) measures how fast rapd can go; a paced one only
	// whether it keeps up.
	tpStart, tpEnd time.Time
	tpEvents       int
	unthrottled    bool
	cpu            time.Duration
	maxRSS         int64
	answers        []answer // the timed /v1 mix, in response order
	fresh          []time.Duration
	floor          []time.Duration
	feedLag        time.Duration
	failed         int // requests that failed
}

// e2eResult is every daemon run of one workload in one invocation.
type e2eResult struct {
	setups     []time.Duration // set-up probes and every run's own start
	reps       []repResult
	speed      []time.Duration // reference loop times throughout (see speed.go)
	violations []string
}

// rapdArgs is the rapd command line for w, with checkpoints in ckDir.
func rapdArgs(w workloadSpec, ckDir string) []string {
	args := []string{"-stdin", "-checkpoint-dir", ckDir, "-admin", "127.0.0.1:0"}
	if w.admit {
		args = append(args, "-admit")
	}
	if w.auditEvery > 0 {
		args = append(args, "-audit", "-audit-every", w.auditEvery.String())
	}
	if w.ckEvery > 0 {
		args = append(args, "-checkpoint-every", w.ckEvery.String())
	}
	return args
}

// measureE2E runs w against the rapd binary: setupProbes start-ups that
// only time set-up, then daemon runs until seconds have been measured (at
// least minReplayReps runs of a replay; liveReps runs of a live workload).
// Every run is checked by the oracle. The reference loop is timed
// throughout.
func measureE2E(ctx context.Context, w workloadSpec, in *input, bin, tmp string, seed uint64, seconds float64, healthProbe bool) (*e2eResult, error) {
	res := &e2eResult{}
	stop, speed := make(chan struct{}), make(chan []time.Duration, 1)
	go sampleSpeed(stop, speed)
	defer func() {
		close(stop)
		res.speed = <-speed
	}()
	for i := 0; i < setupProbes; i++ {
		runtime.GC() // collect the benchmark's own garbage outside every timed region
		d, err := startDaemon(ctx, bin, rapdArgs(w, filepath.Join(tmp, fmt.Sprintf("probe%d", i))))
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d.setup())
		// An empty trace is just its header; without one rapd fails the
		// source.
		if err := trace.NewWriter(d.stdin).Flush(); err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if err := d.finish(30 * time.Second); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
	}
	start := time.Now()
	var last time.Duration
	for rep := 0; ; rep++ {
		if !w.replay && rep == liveReps {
			break
		}
		// Another replay starts only if it ends nearer to seconds than
		// stopping now would.
		if w.replay && rep >= minReplayReps && (time.Since(start)+last/2).Seconds() >= seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		repStart := time.Now()
		ckDir := filepath.Join(tmp, fmt.Sprintf("rep%d", rep))
		runtime.GC()
		r, err := runRep(ctx, w, in, bin, ckDir, seed+uint64(rep), healthProbe)
		if err != nil {
			return nil, fmt.Errorf("%s run %d: %w", w.name, rep, err)
		}
		o := newOracle(in, w.admit)
		r.fresh = o.checkAnswers(r.answers, r.feed)
		o.checkCheckpoint(ckDir)
		for _, v := range o.violations {
			res.violations = append(res.violations, fmt.Sprintf("run %d: %s", rep, v))
		}
		os.RemoveAll(ckDir)
		res.setups = append(res.setups, r.setup)
		res.reps = append(res.reps, r.repResult)
		last = time.Since(repStart)
	}
	return res, nil
}

type repRun struct {
	repResult
	feed *feedLog
}

// runRep starts rapd and feeds it the whole stream. The timed /v1 mix
// runs from the end of the burst (or the start of a live feed) until the
// last write. Then stdin closes and rapd drains, checkpoints and exits.
func runRep(ctx context.Context, w workloadSpec, in *input, bin, ckDir string, seed uint64, healthProbe bool) (*repRun, error) {
	d, err := startDaemon(ctx, bin, rapdArgs(w, ckDir))
	if err != nil {
		return nil, err
	}
	// A cancelled benchmark kills rapd, which fails the feeder's next write.
	defer context.AfterFunc(ctx, func() { d.cmd.Process.Kill() })()
	r := &repRun{}
	r.setup = d.setup()

	qctx, stopQueries := context.WithCancel(ctx)
	defer stopQueries()
	burstEnd := make(chan time.Time, 1)
	fed := make(chan *feedLog, 1)
	r.tpStart = time.Now()
	go func() {
		fl := feed(d.stdin, in, r.tpStart, burstEnd)
		stopQueries()
		fed <- fl
	}()
	tb := <-burstEnd
	var cpuErr error
	if in.burst > 0 {
		r.cpu, cpuErr = procCPU(d.cmd.Process.Pid)
	}
	q := newQuerier(d.addr, in.ranges, seed, healthProbe)
	q.run(qctx, tb)
	r.feed = <-fed
	if in.burst == 0 && cpuErr == nil {
		r.cpu, cpuErr = procCPU(d.cmd.Process.Pid)
	}
	if r.feed.err != nil || cpuErr != nil {
		d.kill()
		return nil, fmt.Errorf("%v; rapd log tail:\n%s", errors.Join(r.feed.err, cpuErr), d.logs.tail())
	}
	r.tpEnd, r.tpEvents, r.unthrottled = tb, in.burst, in.burst > 0
	if in.burst == 0 {
		r.tpEnd, r.tpEvents = r.feed.done[len(r.feed.done)-1], len(in.values)
	}
	r.answers, r.floor, r.feedLag = q.answers, q.floor, r.feed.lag
	if err := d.finish(120 * time.Second); err != nil {
		return nil, err
	}
	r.maxRSS = d.peakRSS()
	for _, a := range r.answers {
		if !a.ok {
			r.failed++
		}
	}
	return r, nil
}

// procCPU returns the user+system CPU time of a running process so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	i := bytes.LastIndexByte(data, ')')
	f := bytes.Fields(data[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * clockTick, nil
}
