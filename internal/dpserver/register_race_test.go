package dpserver

import (
	"fmt"
	"io"
	"testing"

	"dptrace/internal/ledger"
	"dptrace/internal/noise"
)

// TestRegisterDatasetBesideReplicaAppends: a follower hosts its
// datasets while the primary's stream keeps folding charges into the
// ledger's state, so registerDataset and warmPolicy must read that
// state through the locked accessor. Before ledger.Dataset they read
// the live *State — a data race with ReplicaAppend that failed
// TestFailoverStorm under -race whenever the machine was busy. Run
// with -race; the assertions only check the restore was coherent.
func TestRegisterDatasetBesideReplicaAppends(t *testing.T) {
	// The primary's history: a registration, then charges.
	primary, err := ledger.Open(ledger.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	const charges = 400
	if err := primary.Append(ledger.Event{Type: ledger.EventDatasetCreated, Dataset: "d", Kind: "packet",
		Total: ledger.EncodeBudget(1000), PerAnalyst: ledger.EncodeBudget(1000)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < charges; i++ {
		if err := primary.Append(ledger.Event{Type: ledger.EventCharge, Dataset: "d",
			Analyst: fmt.Sprintf("analyst-%d", i%7), Epsilon: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	tail := ledger.NewTailReader(nil, primary.Dir(), 0)
	next := func() (uint64, []byte) {
		seq, payload, err := tail.Next()
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		return seq, payload
	}

	replica, err := ledger.Open(ledger.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	s := New(noise.NewSeededSource(1, 2), WithLedger(replica))
	if err := replica.ReplicaAppend(next()); err != nil { // the registration
		t.Fatal(err)
	}

	streamed := make(chan error, 1)
	go func() {
		for {
			seq, payload, err := tail.Next()
			if err == io.EOF {
				streamed <- nil
				return
			}
			if err == nil {
				err = replica.ReplicaAppend(seq, payload)
			}
			if err != nil {
				streamed <- err
				return
			}
		}
	}()
	if err := s.AddPacketTrace("d", ingestPkts(64), 1000, 1000); err != nil {
		t.Fatalf("hosting the replicated dataset: %v", err)
	}
	for i := 0; i < 50; i++ {
		s.warmPolicy("d")
	}
	if err := <-streamed; err != nil {
		t.Fatalf("replica stream: %v", err)
	}
	s.warmPolicy("d")
	if got, want := s.datasets["d"].policy.TotalSpent(), charges*0.25; got != want {
		t.Fatalf("warmed total spent %v, want %v", got, want)
	}
}
