package ledger

import (
	"io"
	"math"
	"testing"
)

// replicate copies everything in src's WAL into a fresh ledger at dir.
func replicate(t *testing.T, srcDir, dir string) *Ledger {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTailReader(nil, srcDir, 0)
	for {
		seq, p, err := tr.Next()
		if err == io.EOF {
			return l
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := replicaAppend(l, seq, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiffIdenticalAndPrefix(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	appendAll(t, a, chargeEvents(5))
	b := replicate(t, dirA, dirB)
	defer b.Close()

	r, err := Diff(dirA, dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.OnlyA != 0 || r.OnlyB != 0 || r.MaxSpentDelta() != 0 {
		t.Fatalf("identical dirs not clean: %+v", r)
	}

	// A keeps appending: B becomes a strict prefix — still clean, with
	// the un-replicated tail quantified.
	appendAll(t, a, []Event{
		{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1},
		{Type: EventCharge, Dataset: "d", Analyst: "bob", Epsilon: 0.2},
	})
	r, err = Diff(dirA, dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("prefix dirs diverged: %+v", r.Diverged)
	}
	if r.OnlyA != 2 || r.OnlyB != 0 {
		t.Fatalf("tail counts = %d/%d, want 2/0", r.OnlyA, r.OnlyB)
	}
	if math.Abs(r.SpentDelta["d"]["bob"]-0.2) > 1e-12 {
		t.Fatalf("bob delta = %v, want 0.2", r.SpentDelta["d"]["bob"])
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	appendAll(t, a, chargeEvents(3)) // seqs 1..4
	b := replicate(t, dirA, dirB)
	defer b.Close()

	// The histories fork at seq 5.
	appendAll(t, a, []Event{{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.5}})
	appendAll(t, b, []Event{{Type: EventCharge, Dataset: "d", Analyst: "mallory", Epsilon: 0.9}})

	r, err := Diff(dirA, dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("forked histories reported clean")
	}
	if r.Diverged.Seq != 5 {
		t.Fatalf("divergence at seq %d, want 5", r.Diverged.Seq)
	}
	if r.SpentDelta["d"]["mallory"] != -0.9 {
		t.Fatalf("mallory delta = %v, want -0.9", r.SpentDelta["d"]["mallory"])
	}
}

func TestDiffAcrossCompactionHorizon(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	appendAll(t, a, chargeEvents(7))
	b := replicate(t, dirA, dirB)
	defer b.Close()
	// A snapshots and compacts: its retained history starts past seq 8,
	// B still holds everything. Still clean — the overlap matches and
	// the folded states agree.
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, a, []Event{{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}})
	_, p, err := NewTailReader(nil, dirA, 8).Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := replicaAppend(b, 9, p); err != nil {
		t.Fatal(err)
	}

	r, err := Diff(dirA, dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.MaxSpentDelta() != 0 {
		t.Fatalf("compacted-vs-full not clean: %+v", r)
	}
	if r.From != 9 || r.Through != 9 {
		t.Fatalf("compared range %d..%d, want 9..9", r.From, r.Through)
	}
}
