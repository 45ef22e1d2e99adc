package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"rap/internal/admit"
	"rap/internal/core"
	"rap/internal/span"
)

// The versioned query API: /v1/estimate, /v1/hotranges, and /v1/stats
// serve profile answers from the engine's epoch read path. Each request
// pins one epoch cut as of its arrival (Reader), answers every sub-query
// from it, and releases it — answers hold every event applied before the
// request, and multi-field responses are internally consistent even while
// ingest runs at full rate. Responses embed the epoch stanza and carry it in
// the X-RAP-Epoch-Seq / X-RAP-Epoch-Cut headers so callers can reason
// about staleness and monotonicity without parsing bodies. When the
// admission watchdog is at Siege the query plane sheds load with 429s:
// under a structure attack every spare cycle belongs to the data plane.
//
// Each request is traced: an inbound W3C traceparent header continues the
// caller's trace, the response is stamped with the handling span's
// identity, and acquire/compute/encode child spans partition the request
// so /spans shows exactly where a slow query spent its time. Request
// latency also feeds the adaptive "query" stage profile on /profilez.

// epochInfo is the staleness stanza every /v1 response embeds: which
// published cut the answer describes and how old it is.
type epochInfo struct {
	Seq        uint64  `json:"seq"`
	CutEvents  uint64  `json:"cut_events"`
	AgeSeconds float64 `json:"age_seconds"`
}

func epochInfoOf(e *core.Epoch) epochInfo {
	return epochInfo{
		Seq:        e.Seq(),
		CutEvents:  e.CutN(),
		AgeSeconds: time.Since(e.PublishedAt()).Seconds(),
	}
}

type estimateResponse struct {
	Lo       uint64    `json:"lo"`
	Hi       uint64    `json:"hi"`
	Estimate uint64    `json:"estimate"`
	Low      uint64    `json:"low"`
	High     uint64    `json:"high"`
	Epoch    epochInfo `json:"epoch"`
}

type hotRangeJSON struct {
	Lo     uint64  `json:"lo"`
	Hi     uint64  `json:"hi"`
	Weight uint64  `json:"weight"`
	Frac   float64 `json:"frac"`
	Depth  int     `json:"depth"`
}

type hotRangesResponse struct {
	Theta  float64        `json:"theta"`
	N      uint64         `json:"n"`
	Ranges []hotRangeJSON `json:"ranges"`
	Epoch  epochInfo      `json:"epoch"`
}

type statsResponse struct {
	N            uint64    `json:"n"`
	UnadmittedN  uint64    `json:"unadmitted_n"`
	Nodes        int       `json:"nodes"`
	MaxNodes     int       `json:"max_nodes"`
	MemoryBytes  int       `json:"memory_bytes"`
	ArenaBytes   int       `json:"arena_bytes"`
	Splits       uint64    `json:"splits"`
	Merges       uint64    `json:"merges"`
	MergeBatches uint64    `json:"merge_batches"`
	Height       int       `json:"height"`
	Epoch        epochInfo `json:"epoch"`
}

// registerQueryAPI mounts the /v1 endpoints on the admin mux.
func (a *admin) registerQueryAPI(mux *http.ServeMux) {
	mux.HandleFunc("/v1/estimate", a.v1Estimate)
	mux.HandleFunc("/v1/hotranges", a.v1HotRanges)
	mux.HandleFunc("/v1/stats", a.v1Stats)
}

// startQuerySpan begins the request span for one /v1 call. An inbound W3C
// traceparent header continues the caller's trace (inheriting its sampling
// decision); otherwise a fresh root is started. The span's identity is
// stamped back on the response headers immediately, so every outcome —
// 200, 400, 429 — carries the traceparent the caller can correlate on.
func (a *admin) startQuerySpan(w http.ResponseWriter, r *http.Request, name string) *span.Span {
	if a.tracer == nil {
		return nil
	}
	var sp *span.Span
	if ctx, ok := span.FromRequest(r); ok {
		sp = a.tracer.StartChild(ctx, name)
	} else {
		sp = a.tracer.StartRoot(name)
	}
	span.Inject(w.Header(), sp.Context())
	return sp
}

// finishQuerySpan ends the request span and feeds the adaptive "query"
// stage profile, attaching a span exemplar when the trace is kept.
func (a *admin) finishQuerySpan(sp *span.Span, start time.Time) {
	sp.End()
	if a.aQuery == nil {
		return
	}
	d := time.Since(start)
	if sp.Sampled() {
		c := sp.Context()
		a.aQuery.ObserveExemplar(d, c.Trace.String(), c.Span.String())
	} else {
		a.aQuery.Observe(d)
	}
}

// acquireEpoch pins a consistent epoch for one request, enforcing the
// overload gate first. It returns nil after writing the error response;
// on success the caller must Release the epoch.
func (a *admin) acquireEpoch(w http.ResponseWriter) *core.Epoch {
	if adm := a.in.Admission(); adm != nil && adm.Level() >= admit.Siege {
		w.Header().Set("Retry-After", "1")
		writeStatus(w, http.StatusTooManyRequests, map[string]any{
			"status": "overloaded",
			"reason": "admission watchdog at siege; query plane shedding load",
		})
		return nil
	}
	return a.in.Engine().Reader()
}

// writeEpochJSON sets the staleness headers from the answering epoch and
// writes body as one line of compact JSON in a single write with its
// Content-Length, so even a large /v1/hotranges answer is not chunked.
// The endpoints people read (/statusz, /audit, /profilez, /alerts) stay
// indented.
func writeEpochJSON(w http.ResponseWriter, e *core.Epoch, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		writeStatus(w, http.StatusInternalServerError, map[string]any{
			"status": "error",
			"reason": err.Error(),
		})
		return
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	h.Set("X-RAP-Epoch-Seq", strconv.FormatUint(e.Seq(), 10))
	h.Set("X-RAP-Epoch-Cut", strconv.FormatUint(e.CutN(), 10))
	w.Write(b)
}

// queryU64 parses a required uint64 query parameter; accepts decimal or
// 0x-prefixed hex (profile ranges are usually addresses).
func queryU64(r *http.Request, name string) (uint64, bool, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, true, err
	}
	return v, true, nil
}

func (a *admin) v1Estimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := a.startQuerySpan(w, r, "v1.estimate")
	defer a.finishQuerySpan(sp, start)
	lo, okLo, errLo := queryU64(r, "lo")
	hi, okHi, errHi := queryU64(r, "hi")
	if errLo != nil || errHi != nil || !okLo || !okHi || lo > hi {
		sp.SetAttr("outcome", "bad_request")
		writeStatus(w, http.StatusBadRequest, map[string]any{
			"status": "bad_request",
			"reason": "need lo and hi query params (uint64, decimal or 0x hex) with lo <= hi",
		})
		return
	}
	acq := a.tracer.StartChild(sp.Context(), "acquire")
	e := a.acquireEpoch(w)
	acq.End()
	if e == nil {
		sp.SetAttr("outcome", "shed")
		return
	}
	defer e.Release()
	if sp.Sampled() {
		sp.SetAttr("lo", strconv.FormatUint(lo, 10))
		sp.SetAttr("hi", strconv.FormatUint(hi, 10))
		sp.SetAttr("epoch_seq", strconv.FormatUint(e.Seq(), 10))
	}
	est := a.tracer.StartChild(sp.Context(), "estimate")
	// The point estimate is the low end of this same walk.
	low, high := e.EstimateBounds(lo, hi)
	est.End()
	enc := a.tracer.StartChild(sp.Context(), "encode")
	writeEpochJSON(w, e, estimateResponse{
		Lo: lo, Hi: hi,
		Estimate: low,
		Low:      low,
		High:     high,
		Epoch:    epochInfoOf(e),
	})
	enc.End()
}

func (a *admin) v1HotRanges(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := a.startQuerySpan(w, r, "v1.hotranges")
	defer a.finishQuerySpan(sp, start)
	theta := 0.01
	if s := r.URL.Query().Get("theta"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v > 1 {
			sp.SetAttr("outcome", "bad_request")
			writeStatus(w, http.StatusBadRequest, map[string]any{
				"status": "bad_request",
				"reason": "theta must be a float in (0, 1]",
			})
			return
		}
		theta = v
	}
	acq := a.tracer.StartChild(sp.Context(), "acquire")
	e := a.acquireEpoch(w)
	acq.End()
	if e == nil {
		sp.SetAttr("outcome", "shed")
		return
	}
	defer e.Release()
	hr := a.tracer.StartChild(sp.Context(), "hotranges")
	hot := e.HotRanges(theta)
	hr.End()
	if sp.Sampled() {
		sp.SetAttr("theta", strconv.FormatFloat(theta, 'g', -1, 64))
		sp.SetAttr("ranges", strconv.Itoa(len(hot)))
	}
	ranges := make([]hotRangeJSON, len(hot))
	for i, h := range hot {
		ranges[i] = hotRangeJSON{Lo: h.Lo, Hi: h.Hi, Weight: h.Weight, Frac: h.Frac, Depth: h.Depth}
	}
	enc := a.tracer.StartChild(sp.Context(), "encode")
	writeEpochJSON(w, e, hotRangesResponse{
		Theta: theta, N: e.N(), Ranges: ranges, Epoch: epochInfoOf(e),
	})
	enc.End()
}

func (a *admin) v1Stats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := a.startQuerySpan(w, r, "v1.stats")
	defer a.finishQuerySpan(sp, start)
	acq := a.tracer.StartChild(sp.Context(), "acquire")
	e := a.acquireEpoch(w)
	acq.End()
	if e == nil {
		sp.SetAttr("outcome", "shed")
		return
	}
	defer e.Release()
	st := e.Stats()
	enc := a.tracer.StartChild(sp.Context(), "encode")
	defer enc.End()
	writeEpochJSON(w, e, statsResponse{
		N:            st.N,
		UnadmittedN:  st.UnadmittedN,
		Nodes:        st.Nodes,
		MaxNodes:     st.MaxNodes,
		MemoryBytes:  st.MemoryBytes,
		ArenaBytes:   st.ArenaBytes,
		Splits:       st.Splits,
		Merges:       st.Merges,
		MergeBatches: st.MergeBatches,
		Height:       st.Height,
		Epoch:        epochInfoOf(e),
	})
}
