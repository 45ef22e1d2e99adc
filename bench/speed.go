package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a shared VM whose speed drifts: for
// minutes at a time every timing on it runs a fifth to a third faster or
// slower, while rapd's code stays the same. So while a workload is
// measured, a sampler times a fixed reference loop, which is benchmark
// code and never changes with rapd, and the end-to-end timings are scaled
// by how fast it ran (see endToEnd).
//
// The sampler runs beside rapd, so it sees the host at the same moments
// rapd does. It counts its own thread's CPU time, not wall time, so
// waiting for a CPU that rapd holds does not slow it: it measures how fast
// the host executes, not how busy rapd keeps it.

const (
	// refLoop is the reference loop's median CPU time on the host the
	// baseline in README.md was taken on: reported timings are what they
	// would have read on a host running the loop this fast.
	refLoop     = 225 * time.Microsecond
	speedPeriod = 50 * time.Millisecond // one loop per period, 0.5% of a CPU
	refTable    = 1 << 15               // uint64 slots: 256 KiB, the size of a warm L2
	refUpdates  = 1 << 16               // random read-modify-writes per loop
)

var refSink uint64

// refWork is the reference loop: random increments into an L2-sized
// table, the access pattern of a tree descent. It allocates nothing, so
// no garbage-collection work is charged to it.
func refWork(tab []uint64) uint64 {
	x := uint64(1)
	for i := 0; i < refUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tab[(x>>33)&(refTable-1)] += x
	}
	return tab[x&(refTable-1)]
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sampleSpeed times the reference loop once per speedPeriod, in the CPU
// time of its own locked thread, until stop is closed, and then sends the
// loop times on out.
func sampleSpeed(stop <-chan struct{}, out chan<- []time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tab := make([]uint64, refTable)
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	var samples []time.Duration
	for {
		select {
		case <-stop:
			out <- samples
			return
		case <-tick.C:
		}
		t := threadCPU()
		refSink += refWork(tab)
		samples = append(samples, threadCPU()-t)
	}
}

// speedFactor is refLoop over the median loop time: below 1 on a host
// slower than the reference. A timing t is reported as t·factor, a rate r
// as r/factor.
func speedFactor(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(refLoop) / float64(quantileDur(samples, 0.5))
}
