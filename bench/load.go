package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"syscall"
	"time"
)

// feedLog records when each chunk of the stream was handed to rapd. Only
// the feeder goroutine writes it; it is read after the feeder has finished.
type feedLog struct {
	start    []time.Time // write call began
	done     []time.Time // write call returned: the chunk is rapd's
	burstEnd time.Time   // the burst's last write returned (the feed start without one)
	lag      time.Duration
	err      error
}

// feed writes the encoded stream to w chunk by chunk: the burst as fast as
// rapd accepts it, then chunk i of the paced part due (events before it −
// burst)/liveRate after the burst ended. The paced part is open loop: a late
// feeder writes everything due at once and records how late it ran.
// burstEnd receives the end of the burst as soon as it is known.
func feed(w io.Writer, in *input, t0 time.Time, burstEnd chan<- time.Time) *feedLog {
	fl := &feedLog{
		start:    make([]time.Time, len(in.chunks)),
		done:     make([]time.Time, len(in.chunks)),
		burstEnd: t0,
	}
	// The end of the burst is reported exactly once, even when a write
	// fails inside it, so no one waits forever.
	reported := false
	report := func() {
		if !reported {
			reported = true
			burstEnd <- fl.burstEnd
		}
	}
	defer report()
	off, evStart := 0, 0
	for i, c := range in.chunks {
		paced := evStart >= in.burst
		if paced && !reported {
			if i > 0 {
				fl.burstEnd = fl.done[i-1]
			}
			report()
		}
		due := fl.burstEnd.Add(time.Duration(float64(evStart-in.burst) / liveRate * float64(time.Second)))
		if paced {
			sleepUntil(due)
		}
		fl.start[i] = time.Now()
		if _, err := w.Write(in.data[off:c.byteEnd]); err != nil {
			fl.err = fmt.Errorf("feed chunk %d: %w", i, err)
			return fl
		}
		fl.done[i] = time.Now()
		if paced {
			fl.lag = max(fl.lag, fl.done[i].Sub(due))
		}
		off, evStart = c.byteEnd, c.evEnd
	}
	return fl
}

// sleepUntil sleeps until t in nanosleep system calls. Go's own timers
// wake up to a millisecond late on Linux, because the runtime waits for
// them in epoll_wait, whose timeout has millisecond resolution; that would
// charge half a millisecond of the generator's own lateness to every
// query. A signal can end a nanosleep early, hence the loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

type queryKind int

const (
	qEstimate queryKind = iota
	qHotRanges
	qStats
)

func (k queryKind) String() string {
	return [...]string{"estimate", "hotranges", "stats"}[k]
}

// answer is one /v1 request and what it returned.
type answer struct {
	kind  queryKind
	rng   int // check range, for estimates
	due   time.Time
	sent  time.Time
	done  time.Time // response body fully read
	ok    bool      // 200 with a body that parsed
	err   string
	seq   uint64
	cut   uint64 // epoch cut_events: admitted mass at the cut
	est   uint64
	low   uint64
	high  uint64
	unadm uint64 // /v1/stats unadmitted_n
}

type v1Response struct {
	Estimate    uint64 `json:"estimate"`
	Low         uint64 `json:"low"`
	High        uint64 `json:"high"`
	UnadmittedN uint64 `json:"unadmitted_n"`
	Epoch       struct {
		Seq       uint64 `json:"seq"`
		CutEvents uint64 `json:"cut_events"`
	} `json:"epoch"`
}

// querier sends the open-loop /v1 mix on one keep-alive connection: 70%
// /v1/estimate over the check ranges, 20% /v1/hotranges, 10% /v1/stats.
type querier struct {
	addr    string
	ranges  []checkRange
	rng     *rand.Rand
	health  bool // also time a /healthz round trip after every 10th query
	client  *http.Client
	answers []answer
	floor   []time.Duration // /healthz round trips
}

func newQuerier(addr string, ranges []checkRange, seed uint64, health bool) *querier {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &querier{
		addr:   addr,
		ranges: ranges,
		rng:    rand.New(rand.NewPCG(seed, 0x9e37_79b9)),
		health: health,
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
	}
}

// run sends queryQPS queries per second from t0 until ctx ends. Each
// request is timed from when it was due, so a stalled server is charged
// for the requests queued behind the stall.
func (q *querier) run(ctx context.Context, t0 time.Time) {
	defer q.client.CloseIdleConnections()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(float64(k) / queryQPS * float64(time.Second)))
		sleepUntil(due)
		if ctx.Err() != nil {
			return
		}
		a := answer{due: due}
		var url string
		switch x := q.rng.IntN(10); {
		case x < 7:
			a.kind, a.rng = qEstimate, q.rng.IntN(len(q.ranges))
			r := q.ranges[a.rng]
			url = fmt.Sprintf("http://%s/v1/estimate?lo=%d&hi=%d", q.addr, r.Lo, r.Hi)
		case x < 9:
			a.kind = qHotRanges
			url = "http://" + q.addr + "/v1/hotranges?theta=0.01"
		default:
			a.kind = qStats
			url = "http://" + q.addr + "/v1/stats"
		}
		q.do(&a, url)
		q.answers = append(q.answers, a)
		if q.health && k%10 == 9 {
			start := time.Now()
			var h answer
			q.do(&h, "http://"+q.addr+"/healthz")
			if h.ok {
				q.floor = append(q.floor, h.done.Sub(start))
			}
		}
	}
}

func (q *querier) do(a *answer, url string) {
	a.sent = time.Now()
	resp, err := q.client.Get(url)
	if err != nil {
		a.done, a.err = time.Now(), err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	if err != nil {
		a.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		a.err = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return
	}
	var v v1Response
	if err := json.Unmarshal(body, &v); err != nil {
		a.err = "bad JSON: " + err.Error()
		return
	}
	a.ok = true
	a.seq, a.cut = v.Epoch.Seq, v.Epoch.CutEvents
	a.est, a.low, a.high, a.unadm = v.Estimate, v.Low, v.High, v.UnadmittedN
}
