package dpserver

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
)

// TestRegisterDatasetBesideReplicaAppends: a follower hosts its
// datasets while the primary's stream keeps folding charges into the
// ledger's state, so registerDataset and warmPolicy must read that
// state through the locked accessor. Before ledger.Dataset they read
// the live *State — a data race with StageReplica that failed
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
	replica, err := ledger.Open(ledger.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	s := New(noise.NewSeededSource(1, 2), WithLedger(replica))
	// replicate stages one streamed record and commits it, as a
	// follower does for a burst of one.
	replicate := func(seq uint64, payload []byte) error {
		if _, err := replica.StageReplica(payload); err != nil {
			return err
		}
		return replica.Commit(seq)
	}
	seq, payload, err := tail.Next()
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if err := replicate(seq, payload); err != nil { // the registration
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
				err = replicate(seq, payload)
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

// TestPromoteBesideKeyedSpends: Promote flips the role before it
// journals missing registrations and re-installs standing queries, so
// keyed spends already stage into the ledger while that runs. Every
// read of the ledger's state on the way must go through its locked
// accessors; before them the resync read the live State's Datasets,
// Idem and Standing maps — a data race with the new primary's appends.
// Run with -race; the assertions check the promoted node's spend
// counters agree with its ledger and the replicated replies replay.
func TestPromoteBesideKeyedSpends(t *testing.T) {
	p := newFailoverPair(t, 7)
	// A history worth restoring: keyed spends whose replies are
	// journaled, and a standing query to re-install on promotion.
	pre := make([][]byte, 100)
	preReq := func(i int) api.QueryRequest {
		return api.QueryRequest{Analyst: fmt.Sprintf("pre-%d", i%3), Dataset: "hotspot", Query: "count",
			Epsilon: 0.01, IdempotencyKey: fmt.Sprintf("pre-%d", i)}
	}
	for i := range pre {
		resp, body := postV1(t, p.tsA.URL+"/v1/query", preReq(i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-promotion spend %d: status %d: %s", i, resp.StatusCode, body)
		}
		pre[i] = body
	}
	if resp, body := postV1(t, p.tsA.URL+"/v1/standing/hotspot", api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 1,
		Window: api.StandingWindow{Width: 1000},
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("standing registration: status %d: %s", resp.StatusCode, body)
	}
	waitFor(t, 5*time.Second, func() bool { return getReady(t, p.tsB).Repl.LagSeq == 0 }, "follower catch-up")

	// Keyed spenders hammer the standby across the promotion: shed
	// with not_primary before the flip, staged right after it.
	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		landed atomic.Int64
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, _, err := tryPostV1(p.tsB.URL+"/v1/query", api.QueryRequest{
					Analyst: fmt.Sprintf("racer-%d", g), Dataset: "hotspot", Query: "count",
					Epsilon: 0.01, IdempotencyKey: fmt.Sprintf("race-%d-%d", g, i),
				})
				if err == nil && resp.StatusCode == http.StatusOK {
					landed.Add(1)
				}
			}
		}(g)
	}
	if _, err := p.sB.Promote(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return landed.Load() >= 20 }, "spends on the promoted node")
	close(stop)
	wg.Wait()

	ds, ok := p.ledB.Dataset("hotspot")
	if !ok {
		t.Fatal("promoted ledger lost the dataset")
	}
	if got := p.sB.datasets["hotspot"].policy.TotalSpent(); math.Abs(got-ds.TotalSpent) > 1e-9 {
		t.Fatalf("promoted node's counters say %v spent, its ledger %v", got, ds.TotalSpent)
	}
	for i, want := range pre {
		resp, body := postV1(t, p.tsB.URL+"/v1/query", preReq(i), nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("replicated reply %d did not replay after promotion: status %d\n pre: %s\npost: %s",
				i, resp.StatusCode, want, body)
		}
	}
}
