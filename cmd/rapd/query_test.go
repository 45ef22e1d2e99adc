package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/trace"
)

// TestQueryAPIEndToEnd runs a read-snapshot pipeline and exercises the
// /v1 surface like a client would: schema, staleness headers, epoch
// monotonicity across requests, bound consistency, and input validation.
func TestQueryAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 8, 1<<20-1)
	vals := make([]uint64, 40_000)
	for i := range vals {
		vals[i] = zipf.Uint64()
	}
	path := filepath.Join(dir, "events.trace")
	writeTrace(t, path, vals)

	c := cliConfig{
		traces: []string{path},
		shards: 2, drop: "block", epsilon: 0.05, universe: 20, branch: 4,
		readTimeout: 5 * time.Second, maxRetries: 2,
		audit: true, auditEvery: time.Hour,
		auditRanges: 16, auditSpanBits: 8, auditSample: 16,
	}
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	opts.Metrics = obs.NewRegistry()
	specs, err := c.specs(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}

	a := &admin{in: in, reg: opts.Metrics, aud: in.Auditor(), start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	if err := in.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	// /v1/estimate: schema, headers, and the bracket invariant.
	code, body, hdr := get(t, base+"/v1/estimate?lo=0&hi=1048575")
	if code != http.StatusOK {
		t.Fatalf("/v1/estimate = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/estimate content type %q", ct)
	}
	var est struct {
		Lo       uint64 `json:"lo"`
		Hi       uint64 `json:"hi"`
		Estimate uint64 `json:"estimate"`
		Low      uint64 `json:"low"`
		High     uint64 `json:"high"`
		Epoch    struct {
			Seq        uint64  `json:"seq"`
			CutEvents  uint64  `json:"cut_events"`
			AgeSeconds float64 `json:"age_seconds"`
		} `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &est); err != nil {
		t.Fatalf("/v1/estimate not JSON: %v\n%s", err, body)
	}
	requireCompact(t, "/v1/estimate", body, hdr, "lo", "hi", "estimate", "low", "high", "epoch")
	if est.Epoch.Seq == 0 {
		t.Fatalf("epoch seq 0 from the epoch read path:\n%s", body)
	}
	if est.Low > est.High || est.Estimate != est.Low {
		t.Fatalf("want estimate == low <= high: estimate=%d low=%d high=%d", est.Estimate, est.Low, est.High)
	}
	// Full-universe upper bound is the cut's event count.
	if est.High != est.Epoch.CutEvents {
		t.Fatalf("full-range high = %d, cut events = %d", est.High, est.Epoch.CutEvents)
	}
	hseq, err := strconv.ParseUint(hdr.Get("X-RAP-Epoch-Seq"), 10, 64)
	if err != nil || hseq != est.Epoch.Seq {
		t.Fatalf("X-RAP-Epoch-Seq = %q, body says %d", hdr.Get("X-RAP-Epoch-Seq"), est.Epoch.Seq)
	}
	if hcut := hdr.Get("X-RAP-Epoch-Cut"); hcut != strconv.FormatUint(est.Epoch.CutEvents, 10) {
		t.Fatalf("X-RAP-Epoch-Cut = %q, body says %d", hcut, est.Epoch.CutEvents)
	}

	// /v1/hotranges: the skew must surface and every range respects theta.
	code, body, hdr = get(t, base+"/v1/hotranges?theta=0.01")
	if code != http.StatusOK {
		t.Fatalf("/v1/hotranges = %d: %s", code, body)
	}
	var hot struct {
		Theta  float64 `json:"theta"`
		N      uint64  `json:"n"`
		Ranges []struct {
			Lo     uint64  `json:"lo"`
			Hi     uint64  `json:"hi"`
			Weight uint64  `json:"weight"`
			Frac   float64 `json:"frac"`
		} `json:"ranges"`
		Epoch struct {
			Seq uint64 `json:"seq"`
		} `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &hot); err != nil {
		t.Fatalf("/v1/hotranges not JSON: %v\n%s", err, body)
	}
	requireCompact(t, "/v1/hotranges", body, hdr, "theta", "n", "ranges", "epoch")
	if len(hot.Ranges) == 0 {
		t.Fatalf("no hot ranges on a zipf stream:\n%s", body)
	}
	for _, r := range hot.Ranges {
		if r.Lo > r.Hi || r.Frac < hot.Theta {
			t.Fatalf("bad hot range %+v at theta %v", r, hot.Theta)
		}
	}
	if s := hdr.Get("X-RAP-Epoch-Seq"); s != strconv.FormatUint(hot.Epoch.Seq, 10) {
		t.Fatalf("hotranges header seq %q vs body %d", s, hot.Epoch.Seq)
	}
	// Epochs never run backwards between requests.
	if hot.Epoch.Seq < est.Epoch.Seq {
		t.Fatalf("epoch seq went backwards across requests: %d then %d", est.Epoch.Seq, hot.Epoch.Seq)
	}

	// /v1/stats reconciles with the engine.
	code, body, hdr = get(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats = %d: %s", code, body)
	}
	var st struct {
		N     uint64 `json:"n"`
		Nodes int    `json:"nodes"`
		Epoch struct {
			Seq       uint64 `json:"seq"`
			CutEvents uint64 `json:"cut_events"`
		} `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/v1/stats not JSON: %v\n%s", err, body)
	}
	requireCompact(t, "/v1/stats", body, hdr, "n", "unadmitted_n", "nodes", "max_nodes",
		"memory_bytes", "arena_bytes", "splits", "merges", "merge_batches", "height", "epoch")
	if st.N != uint64(len(vals)) {
		t.Fatalf("/v1/stats n = %d after final publish, want %d", st.N, len(vals))
	}
	if st.Nodes == 0 || st.N != st.Epoch.CutEvents {
		t.Fatalf("/v1/stats inconsistent: %s", body)
	}

	// Validation: missing params, inverted range, bad theta.
	for _, u := range []string{
		"/v1/estimate",
		"/v1/estimate?lo=10&hi=2",
		"/v1/estimate?lo=abc&hi=2",
		"/v1/hotranges?theta=0",
		"/v1/hotranges?theta=1.5",
		"/v1/hotranges?theta=x",
	} {
		if code, body, _ := get(t, base+u); code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400: %s", u, code, body)
		}
	}

	// Hex input is accepted (profile ranges are usually addresses).
	if code, _, _ := get(t, base+"/v1/estimate?lo=0x0&hi=0xfffff"); code != http.StatusOK {
		t.Fatalf("hex range rejected with %d", code)
	}

	// /audit carries the epoch sequence next to the verdict.
	code, body, _ = get(t, base+"/audit")
	if code != http.StatusOK {
		t.Fatalf("/audit = %d: %s", code, body)
	}
	var rep struct {
		Verdict  string `json:"verdict"`
		EpochSeq uint64 `json:"epoch_seq"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/audit not JSON: %v", err)
	}
	if rep.Verdict != "ok" {
		t.Fatalf("/audit verdict %q against epoch-served engine:\n%s", rep.Verdict, body)
	}
	if rep.EpochSeq == 0 {
		t.Fatalf("/audit missing epoch_seq:\n%s", body)
	}

	// /statusz facts expose the epoch sequence for operators.
	found := false
	for _, f := range a.facts() {
		if f.Key == "epoch seq" {
			found = true
			if f.Value == "0" {
				t.Fatalf("statusz epoch seq fact is %q", f.Value)
			}
		}
	}
	if !found {
		t.Fatal("statusz facts missing the epoch seq row")
	}

	// The rap_epoch_* gauges are wired and sane.
	_, body, _ = get(t, base+"/metrics")
	sc := parseProm(t, body)
	if sc.samples["rap_epoch_seq"] < 1 {
		t.Fatalf("rap_epoch_seq = %v, want >= 1", sc.samples["rap_epoch_seq"])
	}
	if got := sc.samples["rap_epoch_cut_events"]; got != float64(len(vals)) {
		t.Fatalf("rap_epoch_cut_events = %v, want %d", got, len(vals))
	}
	if sc.samples["rap_epoch_published_total"] < 1 {
		t.Fatal("rap_epoch_published_total missing")
	}
	if sc.samples["rap_epoch_pinned_readers"] != 0 {
		t.Fatalf("pinned readers leaked: %v", sc.samples["rap_epoch_pinned_readers"])
	}
}

// requireCompact checks a /v1 body is one line of JSON, sent whole with
// its Content-Length, whose object has exactly the named fields and an
// epoch stanza of seq, cut_events and age_seconds.
func requireCompact(t *testing.T, path, body string, hdr http.Header, fields ...string) {
	t.Helper()
	if strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") {
		t.Fatalf("%s body is not one line:\n%s", path, body)
	}
	if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("%s Content-Length %q for a %d-byte body", path, cl, len(body))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("%s not JSON: %v", path, err)
	}
	var epoch map[string]json.RawMessage
	if err := json.Unmarshal(doc["epoch"], &epoch); err != nil {
		t.Fatalf("%s epoch stanza: %v", path, err)
	}
	for _, c := range []struct {
		obj  map[string]json.RawMessage
		want []string
	}{{doc, fields}, {epoch, []string{"seq", "cut_events", "age_seconds"}}} {
		var got []string
		for k := range c.obj {
			got = append(got, k)
		}
		want := slices.Clone(c.want)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s fields %v, want %v", path, got, want)
		}
	}
}

// TestV1AnswersAsOfRequest feeds K events through a pipe to an ingestor
// serving /v1, as rapd -stdin does. Ingest itself never cuts an epoch.
// Once the source ledger shows all K applied, the next /v1/stats must
// describe all K: a pinned /v1 answer is cut as of its request.
func TestV1AnswersAsOfRequest(t *testing.T) {
	const k = 50_000
	c := parseFlags([]string{"-stdin"}, io.Discard)
	opts, err := c.options(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	opts.Metrics = obs.NewRegistry()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	specs, err := c.specs(pr)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.Open(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	a := &admin{in: in, reg: opts.Metrics, start: time.Now()}
	addr, stop, err := serveAdmin("127.0.0.1:0", a, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	done := make(chan error, 1)
	go func() { done <- in.Run(context.Background()) }()

	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.2, 8, 1<<20-1)
	w := trace.NewWriter(pw)
	for i := 0; i < k; i++ {
		if err := w.Write(trace.Event{Value: zipf.Uint64(), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The pipe stays open: the run is live and only a read can cut.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if applied := in.Stats().Sources[0].Applied; applied == k {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("ledger shows %d of %d events applied", applied, k)
		}
		time.Sleep(time.Millisecond)
	}
	code, body, _ := get(t, "http://"+addr+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats = %d: %s", code, body)
	}
	var st struct {
		N     uint64 `json:"n"`
		Epoch struct {
			CutEvents uint64 `json:"cut_events"`
		} `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/v1/stats not JSON: %v\n%s", err, body)
	}
	if st.Epoch.CutEvents != k || st.N != k {
		t.Fatalf("/v1/stats right after %d applied: cut_events %d, n %d", k, st.Epoch.CutEvents, st.N)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
