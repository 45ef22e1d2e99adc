package main

import (
	"math"
	"slices"
	"time"
)

// endToEnd computes the user-visible metrics of one workload from its
// daemon runs: each is the median over runs of the run's own value, with
// the min/max spread.
//
// That holds for percentiles too. A host stall of tens of milliseconds
// delays every query due during it, and one such stall in one run can
// move a percentile pooled over all runs; the median over runs does not
// see it.
//
// Timings that the host's speed sets are multiplied by factor (see
// speed.go): set-up and CPU per event, and the events/s of an unthrottled
// burst is divided by it. Query latency is multiplied by factor^1.5: a /v1
// round trip is CPU work plus a chain of wake-ups across both CPUs, and
// over sets of runs on the baseline host its median moved with the loop's
// speed raised to a power of 1.3 to 1.7, against 1 for CPU per event
// (README.md, Scaled timings). A paced rate, freshness (set by the publish
// cadence at that rate) and memory are left as measured. With factor 1
// every value is as measured.
func endToEnd(res *e2eResult, factor float64) map[string]summary {
	var eps, cpu, rss, p50s, f50s, f99s []float64
	var nLat, nFresh int
	latFactor := math.Pow(factor, 1.5)
	for _, r := range res.reps {
		mev := float64(r.tpEvents) / 1e6
		rate := float64(r.tpEvents) / r.tpEnd.Sub(r.tpStart).Seconds()
		if r.unthrottled {
			rate /= factor
		}
		eps = append(eps, rate)
		cpu = append(cpu, factor*r.cpu.Seconds()/mev)
		rss = append(rss, float64(r.maxRSS)/(1<<20))
		var l []float64
		for _, a := range r.answers {
			l = append(l, latFactor*millis(a.done.Sub(a.due)))
		}
		var f []float64
		for _, d := range r.fresh {
			f = append(f, millis(d))
		}
		// A very short paced part can leave a run without samples; it then
		// has no percentile of its own.
		if len(l) > 0 {
			p50s = append(p50s, quantile(l, 0.50))
		}
		if len(f) > 0 {
			f50s, f99s = append(f50s, quantile(f, 0.50)), append(f99s, quantile(f, 0.99))
		}
		nLat, nFresh = nLat+len(l), nFresh+len(f)
	}
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, factor*d.Seconds())
	}
	percentile := func(runs []float64, samples int) summary {
		s := summarize(median(runs), runs)
		s.Samples = samples
		return s
	}
	return map[string]summary{
		"setup_s":          summarize(median(setups), setups),
		"ingest_eps":       summarize(median(eps), eps),
		"cpu_s_per_mevent": summarize(median(cpu), cpu),
		"peak_rss_mb":      summarize(median(rss), rss),
		"query_p50_ms":     percentile(p50s, nLat),
		"freshness_p50_ms": percentile(f50s, nFresh),
		"freshness_p99_ms": percentile(f99s, nFresh),
	}
}

// ledger adds the per-layer metrics that join the traced run to the
// daemon runs of the same invocation. The traced run's timings are as
// measured, so e2e holds the daemon's as measured too (factor 1).
func ledger(layers map[string]float64, e2e map[string]summary, res *e2eResult) {
	var floor, p99s []float64
	var feedLag, late time.Duration
	for _, r := range res.reps {
		for _, d := range r.floor {
			floor = append(floor, millis(d))
		}
		feedLag = max(feedLag, r.feedLag)
		var l []float64
		for _, a := range r.answers {
			late = max(late, a.sent.Sub(a.due))
			l = append(l, millis(a.done.Sub(a.due)))
		}
		if len(l) > 0 {
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	layers["rapd.http_floor_ms"] = median(floor)
	// The tail percentile is per-layer, without a bound: on a shared
	// 2-vCPU host it follows the host's stalls more than rapd's code.
	layers["rapd.query_p99_ms"] = median(p99s)
	// What a /v1 request costs beyond the bare HTTP round trip and the
	// epoch work it does, weighted by the 70/20/10 mix.
	compute := (layers["query.acquire_ns"]/1e3 + 0.7*layers["query.estimate_us"] +
		0.2*layers["query.hotranges_us"] + 0.1*layers["query.stats_us"]) / 1e3
	layers["rapd.v1_overhead_ms"] = e2e["query_p50_ms"].Value - layers["rapd.http_floor_ms"] - compute
	layers["load.feed_lag_max_ms"] = millis(feedLag)
	layers["load.query_late_max_ms"] = millis(late)
	daemon := 1e9 / e2e["ingest_eps"].Value
	layers["ledger.daemon_ns_per_event"] = daemon
	layers["ledger.unattributed_ns_per_event"] = daemon - layers["trace.decode_ns_per_event"] - layers["ingest.pipeline_ns_per_event"]
	layers["ledger.daemon_over_core"] = daemon / layers["core.apply_ns_per_event"]
}

// attempts counts the operations of one workload: every /v1 request and
// every daemon run.
func attempts(res *e2eResult) (attempted, failed int) {
	for _, r := range res.reps {
		attempted += len(r.answers) + 1
		failed += r.failed
	}
	return attempted, failed
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
