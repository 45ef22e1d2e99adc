package core

import (
	"testing"
)

// denyAll refuses every event, the most hostile admitter possible: all
// offered mass lands in the ledger and none in the tree.
type denyAll struct{ pulses int }

func (d *denyAll) Admit(p uint64, weight uint64, plen int) bool { return false }
func (d *denyAll) Pulse(st Stats)                               { d.pulses++ }
func (d *denyAll) TreeReplaced()                                {}

// denyOdd refuses odd points, so admitted and refused mass interleave.
type denyOdd struct{}

func (denyOdd) Admit(p uint64, weight uint64, plen int) bool { return p&1 == 0 }
func (denyOdd) Pulse(Stats)                                  {}
func (denyOdd) TreeReplaced()                                {}

func TestAdmitterLedger(t *testing.T) {
	tr := MustNew(DefaultConfig())
	tr.SetAdmitter(&denyAll{})
	for i := uint64(0); i < 1000; i++ {
		tr.AddN(i, 2)
	}
	if got := tr.N(); got != 0 {
		t.Fatalf("N() = %d with a deny-all admitter, want 0 (refused mass must not be credited)", got)
	}
	if got := tr.UnadmittedN(); got != 2000 {
		t.Fatalf("UnadmittedN() = %d, want 2000", got)
	}
	st := tr.Stats()
	if st.UnadmittedN != 2000 {
		t.Fatalf("Stats().UnadmittedN = %d, want 2000", st.UnadmittedN)
	}
	if st.Splits != 0 {
		t.Fatalf("deny-all admitter saw %d splits: refused mass built structure", st.Splits)
	}
}

func TestAdmitterBoundsCarryLedger(t *testing.T) {
	tr := MustNew(DefaultConfig())
	tr.SetAdmitter(denyOdd{})
	for i := uint64(0); i < 1000; i++ {
		tr.Add(i)
	}
	if tr.N() != 500 || tr.UnadmittedN() != 500 {
		t.Fatalf("N=%d unadmitted=%d, want 500/500", tr.N(), tr.UnadmittedN())
	}
	// True count of the full universe is 1000; the admitted estimate can
	// only see 500 but the upper bound must still bracket the truth.
	low, high := tr.EstimateBounds(0, ^uint64(0))
	if low > 500 {
		t.Fatalf("low = %d exceeds admitted mass 500", low)
	}
	if high < 1000 {
		t.Fatalf("high = %d does not bracket the offered truth 1000 (ledger not folded into upper bounds)", high)
	}
	// Every range's upper bound carries the whole ledger: the refused mass
	// could have fallen anywhere.
	_, narrowHigh := tr.EstimateBounds(0, 1)
	if narrowHigh < tr.UnadmittedN() {
		t.Fatalf("narrow range high = %d < ledger %d", narrowHigh, tr.UnadmittedN())
	}
}

func TestAdmitterBatchPathGates(t *testing.T) {
	tr := MustNew(DefaultConfig())
	tr.SetAdmitter(denyOdd{})
	pts := make([]uint64, 1000)
	for i := range pts {
		pts[i] = uint64(i)
	}
	tr.AddBatch(pts)
	if tr.N() != 500 || tr.UnadmittedN() != 500 {
		t.Fatalf("batch path: N=%d unadmitted=%d, want 500/500", tr.N(), tr.UnadmittedN())
	}
}

func TestAdmitterPulseFires(t *testing.T) {
	tr := MustNew(DefaultConfig())
	adm := &denyAll{}
	tr.SetAdmitter(adm)
	// Feed through a fresh tree without the admitter first to force
	// splits, then verify Pulse fires on a gated tree's structural events.
	tr2 := MustNew(DefaultConfig())
	tr2.SetAdmitter(&admitAll{adm: adm})
	for i := uint64(0); i < 100000; i++ {
		tr2.Add(i % 4096)
	}
	if adm.pulses == 0 {
		t.Fatal("admitter never pulsed despite structural activity")
	}
}

// admitAll forwards pulses to another admitter while admitting everything,
// so structural activity actually happens.
type admitAll struct{ adm *denyAll }

func (a *admitAll) Admit(uint64, uint64, int) bool { return true }
func (a *admitAll) Pulse(st Stats)                 { a.adm.Pulse(st) }
func (a *admitAll) TreeReplaced()                  {}

func TestLedgerMergeAndClone(t *testing.T) {
	cfg := DefaultConfig()
	a := MustNew(cfg)
	a.SetAdmitter(denyOdd{})
	b := MustNew(cfg)
	b.SetAdmitter(denyOdd{})
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.Add(i + 1000)
	}
	wantLedger := a.UnadmittedN() + b.UnadmittedN()
	c := a.Clone()
	if c.UnadmittedN() != a.UnadmittedN() {
		t.Fatalf("clone ledger %d != source ledger %d", c.UnadmittedN(), a.UnadmittedN())
	}
	if err := c.Merge(b); err != nil {
		t.Fatal(err)
	}
	if c.UnadmittedN() != wantLedger {
		t.Fatalf("merged ledger %d, want %d (Merge must sum ledgers)", c.UnadmittedN(), wantLedger)
	}
}

func TestLedgerMarshalRoundTrip(t *testing.T) {
	tr := MustNew(DefaultConfig())
	tr.SetAdmitter(denyOdd{})
	for i := uint64(0); i < 5000; i++ {
		tr.Add(i * 977)
	}
	wantN, wantLedger := tr.N(), tr.UnadmittedN()
	if wantLedger == 0 {
		t.Fatal("test needs a non-zero ledger")
	}
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := MustNew(DefaultConfig())
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.N() != wantN || got.UnadmittedN() != wantLedger {
		t.Fatalf("round trip N=%d ledger=%d, want %d/%d", got.N(), got.UnadmittedN(), wantN, wantLedger)
	}
	low0, high0 := tr.EstimateBounds(0, 1<<32)
	low1, high1 := got.EstimateBounds(0, 1<<32)
	if low0 != low1 || high0 != high1 {
		t.Fatalf("bounds drifted across marshal: (%d,%d) vs (%d,%d)", low0, high0, low1, high1)
	}
}
