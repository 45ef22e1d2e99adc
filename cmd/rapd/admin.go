package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"rap/internal/audit"
	"rap/internal/flight"
	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/span"
)

// admin is the opt-in operator surface of rapd: metrics exposition,
// liveness/readiness, spans and structural events, the accuracy audit,
// the flight recorder (history, alerts, statusz, diagnostic bundles), and
// pprof. Nothing here mutates the data plane (/audit runs an extra audit
// pass, which only touches the audit's own shadow state), so binding it
// to a trusted interface is the only access control it needs.
type admin struct {
	in      *ingest.Ingestor
	reg     *obs.Registry
	tracer  *span.Tracer           // nil unless request tracing is wired
	aQuery  *obs.AdaptiveHistogram // adaptive "query" stage profile; nil in bare tests
	aud     *audit.Auditor         // nil unless -audit
	rec     *flight.Recorder       // nil unless the flight recorder is wired
	eng     *flight.Engine         // nil unless the flight recorder is wired
	effCfg  any                    // resolved configuration, captured in bundles
	ckEvery time.Duration          // checkpoint cadence; freshness is judged against it
	start   time.Time
}

// handler builds the admin mux:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the same registry as one JSON document
//	/healthz       process liveness, with the named health checks attached
//	/readyz        200 only while every health check passes
//	/audit         a fresh accuracy-audit pass as JSON (404 without -audit)
//	/v1/estimate   lower bound + certified bracket for ?lo=&hi= (epoch-served)
//	/v1/hotranges  hot ranges at ?theta= (epoch-served)
//	/v1/stats      profile counters at the epoch cut
//	               (all /v1 answers carry X-RAP-Epoch-Seq/-Cut staleness
//	               headers, honor an inbound traceparent, stamp one on the
//	               response, and return 429 while admission is at Siege)
//	/spans         recorded spans and structural events (tree.split,
//	               audit.violation, admit.level, ...) as JSONL
//	               (?trace=, ?name=<prefix>, ?slow=1, ?limit=)
//	/profilez      adaptive per-stage latency profiles with span exemplars
//	/vars          flight-recorder windowed series queries
//	/alerts        alert rule states as JSON
//	/statusz       human-readable status page (with the slow-op log)
//	/debug/bundle  one-shot diagnostic bundle (gzipped tar)
//	/debug/pprof/  the standard Go profiler endpoints
//
// Every endpoint is counted into rap_http_requests_total{path,code} and
// timed into rap_http_request_seconds{path} by the instrument wrapper.
func (a *admin) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		a.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		a.reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness is about the process: always 200 while serving, but the
		// structured checks ride along so one probe shows what a readiness
		// failure would name.
		writeStatus(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(a.start).Seconds(),
			"checks":         a.checks(time.Now()),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		checks := a.checks(time.Now())
		code, status := http.StatusOK, "ready"
		for _, c := range checks {
			if !c.OK {
				code, status = http.StatusServiceUnavailable, "unready"
			}
		}
		writeStatus(w, code, map[string]any{"status": status, "checks": checks})
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) {
		if a.aud == nil {
			writeStatus(w, http.StatusNotFound, map[string]any{
				"status": "disabled", "reason": "audit not enabled (-audit)",
			})
			return
		}
		// A fresh pass, not the last cached report: the operator asking is
		// exactly the moment the answer should be current.
		rep, err := a.aud.Audit()
		if err != nil {
			writeStatus(w, http.StatusInternalServerError, map[string]any{
				"status": "error", "reason": err.Error(),
			})
			return
		}
		// The epoch sequence current when this pass ran, so operators can
		// line the verdict up with published snapshots and /v1 answers.
		resp := struct {
			audit.Report
			EpochSeq uint64 `json:"epoch_seq"`
		}{Report: rep, EpochSeq: a.in.Engine().Publisher().Seq()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
	a.registerQueryAPI(mux)
	if a.tracer != nil {
		mux.Handle("/spans", a.tracer)
	}
	mux.HandleFunc("/profilez", a.profilez)
	if a.rec != nil {
		mux.Handle("/vars", a.rec)
		mux.Handle("/alerts", a.eng)
		sz := &flight.Statusz{
			App:      "rapd",
			Start:    a.start,
			Registry: a.reg,
			Recorder: a.rec,
			Engine:   a.eng,
			Facts:    a.facts,
			SparkSeries: []string{
				"rate:rap_tree_events_total",
				"rap_admit_level",
				"rap_tree_arena_bytes",
				"rap_flight_bytes",
			},
		}
		if a.tracer != nil {
			sz.SlowOps = a.slowOps
		}
		mux.Handle("/statusz", sz)
		mux.Handle("/debug/bundle", flight.BundleHandler(a.bundleConfig))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return a.instrument(mux)
}

// instrument wraps the admin mux with per-endpoint HTTP metrics: a
// request counter by path and status code and a latency histogram by
// path. Paths are normalized to the known endpoint set so a scanner
// probing random URLs cannot mint unbounded label values.
func (a *admin) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		p := normalizePath(r.URL.Path)
		a.reg.Counter("rap_http_requests_total",
			"Admin-plane HTTP requests by normalized path and status code.",
			obs.L("path", p), obs.L("code", strconv.Itoa(sw.code))).Add(1)
		a.reg.Duration("rap_http_request_seconds",
			"Admin-plane HTTP request latency by normalized path.",
			obs.L("path", p)).ObserveSince(start)
	})
}

// statusWriter captures the status code an inner handler writes; an
// implicit 200 (body written without WriteHeader) keeps the default.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// normalizePath maps a request path onto the served endpoint set, so the
// path label stays low-cardinality.
func normalizePath(p string) string {
	switch p {
	case "/metrics", "/metrics.json", "/healthz", "/readyz", "/audit",
		"/v1/estimate", "/v1/hotranges", "/v1/stats", "/spans", "/profilez",
		"/vars", "/alerts", "/statusz", "/debug/bundle":
		return p
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// slowOps adapts the tracer's slow-op log to the /statusz rows.
func (a *admin) slowOps() []flight.SlowOp {
	recs := a.tracer.SlowOps()
	out := make([]flight.SlowOp, 0, len(recs))
	for _, r := range recs {
		out = append(out, flight.SlowOp{
			At:       time.Unix(0, r.StartNano),
			Name:     r.Name,
			Duration: time.Duration(r.DurationNs),
			TraceID:  r.TraceID,
		})
	}
	return out
}

func writeStatus(w http.ResponseWriter, code int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// healthCheck is one named readiness condition with its reason string —
// the structured /healthz and /readyz row.
type healthCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// checks evaluates every readiness condition: at least one source must
// not have permanently failed, and when checkpointing is enabled the last
// successful checkpoint (or, before the first one, process start) must be
// younger than three cadences — a daemon that can no longer persist its
// state is running on borrowed time and should be rotated out of service.
func (a *admin) checks(now time.Time) []healthCheck {
	st := a.in.Stats()
	alive := 0
	for _, s := range st.Sources {
		if !s.Failed {
			alive++
		}
	}
	src := healthCheck{
		Name: "source_liveness", OK: true,
		Reason: fmt.Sprintf("%d/%d sources alive", alive, len(st.Sources)),
	}
	if alive == 0 {
		src.OK = false
		src.Reason = "all sources permanently failed"
	}
	out := []healthCheck{src}

	if st.Checkpoint.Enabled && a.ckEvery > 0 {
		ref := a.start
		if !st.Checkpoint.LastAt.IsZero() {
			ref = st.Checkpoint.LastAt
		}
		age := now.Sub(ref)
		ck := healthCheck{
			Name: "checkpoint_freshness", OK: true,
			Reason: fmt.Sprintf("last checkpoint %v ago (cadence %v)", age.Round(time.Second), a.ckEvery),
		}
		if age > 3*a.ckEvery {
			ck.OK = false
			ck.Reason = fmt.Sprintf("no checkpoint for %v (cadence %v)", age.Round(time.Second), a.ckEvery)
		}
		out = append(out, ck)
	}
	return out
}

// ready collapses the checks to the single verdict /readyz serves,
// reporting the first failing check's reason.
func (a *admin) ready(now time.Time) (bool, string) {
	for _, c := range a.checks(now) {
		if !c.OK {
			return false, c.Reason
		}
	}
	return true, ""
}

// facts are the host rows on /statusz: the engine-level answers an
// operator checks first.
func (a *admin) facts() []flight.Fact {
	st := a.in.Stats()
	out := []flight.Fact{
		{Key: "events (n)", Value: fmt.Sprintf("%d", st.N)},
		{Key: "nodes", Value: fmt.Sprintf("%d", st.Nodes)},
		{Key: "dropped", Value: fmt.Sprintf("%d", st.Dropped)},
	}
	// The engine cuts its first epoch when it is built, so the publish
	// time is never zero here. The age is the time since the latest cut,
	// which readers make on demand: it grows while no reader asks.
	pub := a.in.Engine().Publisher()
	out = append(out,
		flight.Fact{Key: "epoch seq", Value: fmt.Sprintf("%d", pub.Seq())},
		flight.Fact{Key: "epoch age", Value: time.Since(pub.LastPublishedAt()).Round(time.Millisecond).String()},
	)
	if adm := a.in.Admission(); adm != nil {
		ws := adm.WatchdogState()
		out = append(out,
			flight.Fact{Key: "admission level", Value: ws.Level},
			flight.Fact{Key: "admission period", Value: fmt.Sprintf("%d", ws.Period)},
			flight.Fact{Key: "unadmitted", Value: fmt.Sprintf("%d", ws.Unadmitted)},
		)
	}
	if a.aud != nil {
		if rep, ok := a.aud.Report(); ok {
			out = append(out,
				flight.Fact{Key: "audit verdict", Value: rep.Verdict},
				flight.Fact{Key: "audit violations", Value: fmt.Sprintf("%d", rep.ViolationsTotal)},
			)
		} else {
			out = append(out, flight.Fact{Key: "audit verdict", Value: "no pass yet"})
		}
	}
	if st.Checkpoint.Enabled {
		out = append(out, flight.Fact{
			Key:   "checkpoint age",
			Value: st.Checkpoint.Age(time.Now()).Round(time.Millisecond).String(),
		})
	}
	return out
}

// bundleConfig assembles everything /debug/bundle, SIGQUIT, and
// -dump-bundle capture.
func (a *admin) bundleConfig() flight.BundleConfig {
	cfg := flight.BundleConfig{
		App:             "rapd",
		Registry:        a.reg,
		Recorder:        a.rec,
		Engine:          a.eng,
		EffectiveConfig: a.effCfg,
	}
	if a.tracer != nil {
		cfg.Spans = a.tracer
	}
	cfg.Profile = func() (any, bool) {
		doc := a.profileDoc(defaultProfileTheta)
		return doc, len(doc.Stages) > 0
	}
	if a.aud != nil {
		cfg.AuditReport = func() (any, bool) {
			rep, ok := a.aud.Report()
			return rep, ok
		}
	}
	if adm := a.in.Admission(); adm != nil {
		cfg.AdmitState = func() (any, bool) { return adm.WatchdogState(), true }
	}
	return cfg
}

// serveAdmin binds addr and serves the admin surface until the daemon
// exits; it returns the bound address (useful with ":0") and a shutdown
// func. Serving errors after bind are logged, not fatal: losing the
// observability plane should never take the data plane down.
func serveAdmin(addr string, a *admin, logger *slog.Logger) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: a.handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("admin server failed", "err", err)
		}
	}()
	logger.Info("admin listening", "addr", ln.Addr().String())
	return ln.Addr().String(), func() { srv.Close() }, nil
}
