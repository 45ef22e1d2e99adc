package core

import "testing"

func epochTestTree(points ...uint64) *Tree {
	t := MustNew(testConfig(16, 2, 0.05))
	for _, p := range points {
		t.Add(p)
	}
	return t
}

func TestEpochPublisherLifecycle(t *testing.T) {
	p := NewEpochPublisher()
	if p.Acquire() != nil {
		t.Fatal("Acquire on empty publisher returned an epoch")
	}

	p.Publish(epochTestTree(1, 2, 3))
	e1 := p.Acquire()
	if e1 == nil {
		t.Fatal("Acquire returned nil after publish")
	}
	if e1.Seq() != 1 || e1.CutN() != 3 {
		t.Fatalf("epoch 1: seq=%d cutN=%d, want 1 and 3", e1.Seq(), e1.CutN())
	}
	if got := p.Pinned(); got != 1 {
		t.Fatalf("pinned = %d, want 1", got)
	}

	// Superseding a pinned epoch must not retire it until it drains.
	p.Publish(epochTestTree(1, 2, 3, 4))
	if got := p.Retired(); got != 0 {
		t.Fatalf("retired %d epochs while one is still pinned", got)
	}
	if _, high := e1.EstimateBounds(0, 1<<16); high != 3 {
		t.Fatalf("pinned superseded epoch answers wrong: high = %d, want 3", high)
	}
	e1.Release()
	if got := p.Retired(); got != 1 {
		t.Fatalf("retired = %d after last pin drained, want 1", got)
	}
	if got := p.Pinned(); got != 0 {
		t.Fatalf("pinned = %d after release, want 0", got)
	}

	e2 := p.Acquire()
	if e2.Seq() != 2 || e2.CutN() != 4 {
		t.Fatalf("epoch 2: seq=%d cutN=%d, want 2 and 4", e2.Seq(), e2.CutN())
	}
	e2.Release()
	// Double release of the same pin would corrupt the count; Release is
	// documented once-per-Acquire, so only sanity-check the counters here.
	if p.Published() != 2 {
		t.Fatalf("published = %d, want 2", p.Published())
	}
	if p.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", p.Seq())
	}
	if p.LastPublishedAt().IsZero() {
		t.Fatal("LastPublishedAt is zero after publishes")
	}
}

func TestDetachedEpoch(t *testing.T) {
	e := NewDetachedEpoch(epochTestTree(7, 7, 9))
	if e.Seq() != 0 {
		t.Fatalf("detached epoch seq = %d, want 0", e.Seq())
	}
	if e.CutN() != 3 {
		t.Fatalf("detached epoch cutN = %d, want 3", e.CutN())
	}
	if _, high := e.EstimateBounds(0, 1<<16); high != 3 {
		t.Fatalf("detached epoch answers wrong: high = %d, want 3", high)
	}
	e.Release() // must be a safe no-op
	e.Release()
	if got := e.N(); got != 3 {
		t.Fatalf("N after release = %d, want 3", got)
	}
}

// TestEpochDonatesTreeOnlyWhenUnreachable: a retired epoch's tree becomes
// the publisher's spare only once it is superseded and unpinned. A pin
// released before the next publish, as a metrics gauge takes one, does not
// keep the tree from the next cut.
func TestEpochDonatesTreeOnlyWhenUnreachable(t *testing.T) {
	p := NewEpochPublisher()
	t1, t2, t3, t4 := epochTestTree(1), epochTestTree(2), epochTestTree(3), epochTestTree(4)
	p.Publish(t1)
	if p.Spare() != nil {
		t.Fatal("spare before any epoch retired")
	}

	p.Publish(t2) // epoch 1: superseded, unpinned
	if got := p.Spare(); got != t1 {
		t.Fatalf("spare %p after epoch 1 retired, want its tree %p", got, t1)
	}
	if p.Spare() != nil {
		t.Fatal("Spare handed the same tree out twice")
	}

	e2 := p.Acquire()
	p.Publish(t3) // epoch 2: superseded but pinned
	if p.Spare() != nil {
		t.Fatal("a pinned epoch donated its tree")
	}
	e2.Release()
	if got := p.Spare(); got != t2 {
		t.Fatalf("spare %p after the last pin of epoch 2 drained, want %p", got, t2)
	}

	e3 := p.Acquire()
	if e3.Tree() != t3 || e3.CutN() != 1 {
		t.Fatal("epoch 3 pinned the wrong tree")
	}
	e3.Release()
	if p.Pinned() != 0 || p.Spare() != nil {
		t.Fatalf("releasing the current epoch left %d pins or donated its tree", p.Pinned())
	}
	p.Publish(t4) // epoch 3: superseded, its pin already released
	if p.Retired() != 3 {
		t.Fatalf("retired = %d, want 3", p.Retired())
	}
	if got := p.Spare(); got != t3 {
		t.Fatalf("spare %p after epoch 3 retired, want its tree %p", got, t3)
	}
}
