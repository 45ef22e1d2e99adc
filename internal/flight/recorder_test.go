package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rap/internal/obs"
)

func at(i int) time.Time { return time.Unix(1000+int64(i), 0) }

// TestRecorderRoundTrip drives known values through the compressed ring
// and checks Query returns them exactly — XOR delta coding is lossless.
func TestRecorderRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	c := reg.Counter("c", "", obs.L("shard", "0"))
	rec := NewRecorder(reg, Options{Depth: 100})

	want := []float64{0, 1.5, 1.5, -3, 1e12, 0.1}
	for i, v := range want {
		g.Set(v)
		c.Add(uint64(i))
		rec.Scrape(at(i))
	}

	series := rec.Query("g", 0, at(len(want)))
	if len(series) != 1 {
		t.Fatalf("query g: %d series, want 1", len(series))
	}
	s := series[0]
	if len(s.Points) != len(want) {
		t.Fatalf("points = %d, want %d", len(s.Points), len(want))
	}
	for i, p := range s.Points {
		if p.Value != want[i] {
			t.Errorf("point %d = %v, want %v", i, p.Value, want[i])
		}
		if p.UnixNano != at(i).UnixNano() {
			t.Errorf("point %d time = %d, want %d", i, p.UnixNano, at(i).UnixNano())
		}
	}
	if s.Min != -3 || s.Max != 1e12 || s.First != 0 || s.Last != 0.1 {
		t.Errorf("aggregates min=%v max=%v first=%v last=%v", s.Min, s.Max, s.First, s.Last)
	}

	// Labeled counter selected by family name; cumulative 0+0+1+...+5.
	series = rec.Query("c", 0, at(len(want)))
	if len(series) != 1 {
		t.Fatalf("query c: %d series, want 1", len(series))
	}
	if got := series[0].Last; got != 15 {
		t.Errorf("counter last = %v, want 15", got)
	}
	if key := series[0].Key; key != `c{shard="0"}` {
		t.Errorf("counter key = %q", key)
	}
}

// TestRecorderWindowAndRate checks window clipping and the derivative.
func TestRecorderWindowAndRate(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	rec := NewRecorder(reg, Options{})
	for i := 0; i < 60; i++ {
		g.Set(float64(2 * i)) // slope 2/s at 1 scrape per second
		rec.Scrape(at(i))
	}
	now := at(59)
	series := rec.Query("g", 10*time.Second, now)
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	s := series[0]
	if len(s.Points) != 11 { // t=49..59 inclusive
		t.Fatalf("windowed points = %d, want 11", len(s.Points))
	}
	if math.Abs(s.Rate-2) > 1e-9 {
		t.Errorf("rate = %v, want 2", s.Rate)
	}
}

// TestRecorderEvictionBounded checks the ring stays at its depth and its
// reported bytes stop growing once series values stabilise.
func TestRecorderEvictionBounded(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	rec := NewRecorder(reg, Options{Depth: 150})
	var maxBytes int64
	for i := 0; i < 1500; i++ {
		g.Set(float64(i % 7))
		rec.Scrape(at(i))
		if b := rec.ringBytes.Load(); b > maxBytes {
			maxBytes = b
		}
	}
	if got := rec.frameGauge.Load(); got > 150+blockFrames {
		t.Errorf("frames retained = %d, want <= depth+block slack", got)
	}
	series := rec.Query("g", 0, at(1500))
	if n := len(series[0].Points); n > 180 || n < 120 {
		t.Errorf("retained points = %d, want ~150", n)
	}
	// Oldest retained frame must be recent: eviction really dropped data.
	if first := series[0].Points[0].UnixNano; first < at(1290).UnixNano() {
		t.Errorf("oldest frame at %d, eviction not happening", first)
	}
	if maxBytes == 0 {
		t.Fatal("ring bytes never reported")
	}
	// A stable gauge XORs to zero: generous ceiling proves boundedness.
	if maxBytes > 1<<20 {
		t.Errorf("ring bytes peaked at %d, want bounded well under 1MiB", maxBytes)
	}
}

// TestRecorderWindowAcrossEvictionBoundaries checks windowed queries stay
// exact when the window edge lands inside a delta block, on a block
// boundary, or beyond evicted history — and that evicting a whole block
// shifts the answer by exactly that block.
func TestRecorderWindowAcrossEvictionBoundaries(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	rec := NewRecorder(reg, Options{Depth: 150})
	// Value == scrape index, so every decoded point self-identifies.
	for i := 0; i < 600; i++ {
		g.Set(float64(i))
		rec.Scrape(at(i))
	}
	now := at(599)

	check := func(name string, window time.Duration, wantFirst, wantLast int) {
		t.Helper()
		series := rec.Query("g", window, now)
		if len(series) != 1 {
			t.Fatalf("%s: series = %d, want 1", name, len(series))
		}
		pts := series[0].Points
		if len(pts) != wantLast-wantFirst+1 {
			t.Fatalf("%s: %d points, want %d..%d", name, len(pts), wantFirst, wantLast)
		}
		for j, p := range pts {
			idx := wantFirst + j
			if p.UnixNano != at(idx).UnixNano() {
				t.Fatalf("%s: point %d at %d, want t=%d — gap or duplicate at a block seam", name, j, p.UnixNano, idx)
			}
			if p.Value != float64(idx) {
				t.Fatalf("%s: point t=%d decoded %v, want %v", name, idx, p.Value, idx)
			}
		}
	}

	// 600 scrapes with Depth 150 in 30-frame blocks retain exactly
	// frames 450..599 (eviction drops whole oldest blocks).
	check("full history", 0, 450, 599)
	// Window edge inside a block: cutoff t=524 is mid-block.
	check("mid-block edge", 75*time.Second, 524, 599)
	// Window edge exactly on a block boundary.
	check("block-aligned edge", 29*time.Second, 570, 599)
	// Window reaching past evicted history clips to what is retained.
	check("past evicted history", 360*time.Second, 450, 599)

	// Rate comes from the windowed points only: slope is 1/s throughout.
	if s := rec.Query("g", 75*time.Second, now)[0]; math.Abs(s.Rate-1) > 1e-9 {
		t.Errorf("windowed rate = %v, want 1", s.Rate)
	}

	// One more scrape pushes frames past Depth and evicts exactly one
	// whole block: the oldest thirty frames vanish together.
	g.Set(600)
	rec.Scrape(at(600))
	now = at(600)
	check("after block eviction", 0, 480, 600)
}

// TestRecorderHistogramDerivedSeries checks histograms flatten into
// _count/_sum/_p50/_p95/_p99 series.
func TestRecorderHistogramDerivedSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", "", []float64{1, 2, 4})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // (0,1]
	}
	for i := 0; i < 50; i++ {
		h.Observe(1.5) // (1,2]
	}
	rec := NewRecorder(reg, Options{})
	rec.Scrape(at(0))
	for _, want := range []struct {
		sel string
		val float64
	}{
		{"lat_count", 100},
		{"lat_sum", 100},
		{"lat_p50", 1}, // rank 50 exactly fills (0,1]
		{"lat_p95", 1.9},
	} {
		series := rec.Query(want.sel, 0, at(1))
		if len(series) != 1 {
			t.Fatalf("%s: %d series", want.sel, len(series))
		}
		if got := series[0].Last; math.Abs(got-want.val) > 1e-9 {
			t.Errorf("%s = %v, want %v", want.sel, got, want.val)
		}
	}
}

// TestRecorderLateSeries registers a series mid-flight and checks earlier
// frames simply lack it while later ones carry it.
func TestRecorderLateSeries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("a", "").Set(1)
	rec := NewRecorder(reg, Options{})
	rec.Scrape(at(0))
	rec.Scrape(at(1))
	reg.Gauge("b", "").Set(7)
	rec.Scrape(at(2))
	series := rec.Query("b", 0, at(3))
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	if len(series[0].Points) != 1 || series[0].Points[0].Value != 7 {
		t.Fatalf("late series points = %+v", series[0].Points)
	}
}

// TestRecorderVarsEndpoint exercises the /vars handler: inventory
// without a name, JSON series with one, 400 on a bad window.
func TestRecorderVarsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g", "").Set(3)
	rec := NewRecorder(reg, Options{})
	rec.Scrape(time.Now()) // the handler windows relative to wall clock
	srv := httptest.NewServer(rec)
	defer srv.Close()

	body := get(t, srv.URL+"/vars")
	var inv struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(body), &inv); err != nil {
		t.Fatalf("inventory not JSON: %v", err)
	}
	if len(inv.Keys) == 0 || !contains(inv.Keys, "g") {
		t.Fatalf("inventory missing g: %v", inv.Keys)
	}

	body = get(t, srv.URL+"/vars?name=g&window=1h")
	var resp struct {
		Series []Series `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("series not JSON: %v", err)
	}
	if len(resp.Series) != 1 || resp.Series[0].Last != 3 {
		t.Fatalf("series = %+v", resp.Series)
	}

	res, err := srv.Client().Get(srv.URL + "/vars?name=g&window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Fatalf("bad window status = %d, want 400", res.StatusCode)
	}
}

// TestRecorderScrapeRace runs scrapes, queries, and new registrations
// concurrently; -race proves the locking story.
func TestRecorderScrapeRace(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(reg, Options{Depth: 64})
	rec.Register(reg)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Gauge("g", "", obs.L("i", fmt.Sprint(i%13))).Set(float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec.Query("g", time.Minute, at(i))
			rec.Keys()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot() // concurrent scraper (e.g. /metrics) alongside the recorder
		}
	}()
	for i := 0; i < 300; i++ {
		rec.Scrape(at(i))
	}
	close(stop)
	wg.Wait()
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func get(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
