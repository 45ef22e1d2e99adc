package audit

import (
	"math/rand"
	"testing"

	"rap/internal/admit"
	"rap/internal/core"
)

// gateTree builds a plain 64-bit-universe tree with both the randomized
// admission frontend and the auditor attached — the full hardened
// configuration. The tap observes the offered stream (it fires before the
// admission decision), so the audit's truth covers mass the gate refuses.
func gateTree(t *testing.T, seed uint64) (*core.Tree, *admit.Frontend, *Auditor) {
	t.Helper()
	cfg := testConfig(64)
	tr := core.MustNew(cfg)
	fe := admit.New(admit.Options{Seed: seed})
	tr.SetAdmitter(fe.Gates(cfg.UniverseBits, 1)[0])
	a := New(testOptions())
	taps, err := a.Attach(cfg, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTap(taps[0])
	return tr, fe, a
}

// TestAdmissionGatedAuditCertifies drives a cold key flood through the
// hardened stack: the gate refuses most of it, and every audit pass must
// still certify — the refused mass appears in UnadmittedN, widens the
// budget, and never surfaces as a violation.
func TestAdmissionGatedAuditCertifies(t *testing.T) {
	tr, fe, a := gateTree(t, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 150_000; i++ {
		tr.Add(rng.Uint64())
		if i%50_000 == 49_999 {
			rep, err := a.Audit()
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, rep, "mid-flood")
		}
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "final")
	if rep.UnadmittedN == 0 {
		t.Fatal("flood got fully admitted; the hardened path was not exercised")
	}
	if rep.UnadmittedN != tr.UnadmittedN() {
		t.Fatalf("report carries ledger %d, tree holds %d", rep.UnadmittedN, tr.UnadmittedN())
	}
	// The certified budget must absorb the refused mass on top of the
	// paper's ε·n term — otherwise certification under admission is
	// vacuous or dishonest.
	if rep.Budget < rep.EpsN+float64(rep.UnadmittedN) {
		t.Fatalf("budget %.1f does not cover eps*n %.1f + unadmitted %d",
			rep.Budget, rep.EpsN, rep.UnadmittedN)
	}
	if fe.Stats().Unadmitted != rep.UnadmittedN {
		t.Fatalf("frontend refused %d, report says %d", fe.Stats().Unadmitted, rep.UnadmittedN)
	}
}

// denyHalf is a fault-injection admitter local to the audit: it refuses
// every other key outright, independent of the admit package. The audit
// must certify any admitter's refusals, as long as the tree ledgers them.
type denyHalf struct{}

func (denyHalf) Admit(p uint64, weight uint64, plen int) bool { return p&1 == 0 }
func (denyHalf) Pulse(core.Stats)                             {}
func (denyHalf) TreeReplaced()                                {}

func TestAuditCertifiesArbitraryAdmitter(t *testing.T) {
	cfg := testConfig(24)
	tr := core.MustNew(cfg)
	tr.SetAdmitter(denyHalf{})
	a := New(testOptions())
	taps, err := a.Attach(cfg, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTap(taps[0])
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60_000; i++ {
		tr.Add(rng.Uint64() >> 40)
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "deny-half")
	if rep.UnadmittedN == 0 {
		t.Fatal("deny-half admitter refused nothing")
	}
	// Roughly half the mass is refused; the sampled ranges' truths still
	// sit inside [estimate, high] because high carries the ledger.
	for _, r := range rep.Ranges {
		if r.High < r.Truth {
			t.Fatalf("range [%x,%x]: high %d below truth %d despite ledger", r.Lo, r.Hi, r.High, r.Truth)
		}
	}
}

// TestLedgerLossFaultRebases injects the nastiest admission fault: the
// tree (including its unadmitted ledger) is rolled back to an old
// snapshot while the tap's truth keeps the full stream. The audit must
// notice the regression and rebase rather than certify or false-alarm.
func TestLedgerLossFaultRebases(t *testing.T) {
	cfg := testConfig(64)
	fe := admit.New(admit.Options{Seed: 4})
	c, a := concurrentAudited(t, cfg, fe.Gates(cfg.UniverseBits, 1)[0])

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40_000; i++ {
		c.Add(rng.Uint64())
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "pre-fault")
	if rep.UnadmittedN == 0 {
		t.Fatal("no refusals before the fault; ledger-loss would be invisible")
	}

	// The fault: ingest far past the snapshot, then restore it. Both
	// credited mass and ledgered mass regress below tapped truth.
	for i := 0; i < 40_000; i++ {
		c.Add(rng.Uint64())
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "rebased" || rep.RebasesTotal == 0 {
		t.Fatalf("ledger loss not rebased: verdict %q, rebases %d", rep.Verdict, rep.RebasesTotal)
	}
	if rep.ViolationsTotal != 0 {
		t.Fatalf("rebase path raised %d false violations", rep.ViolationsTotal)
	}

	// The new epoch must audit cleanly with the gate still installed.
	for i := 0; i < 40_000; i++ {
		c.Add(rng.Uint64())
	}
	rep, err = a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep, "post-fault")
}
