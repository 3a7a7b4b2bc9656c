package dpserver

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/vfs"
)

// chaosDur bounds the whole chaos run. The default keeps `go test`
// fast; `make chaos` passes -chaosdur 30s for a longer soak.
var chaosDur = flag.Duration("chaosdur", 2*time.Second, "wall-clock budget for TestChaosStorm")

// TestChaosStorm is the randomized fault harness: seeded rounds of a
// concurrent query storm against a ledger whose filesystem fails
// probabilistically (writes, fsyncs, renames), with handler panics
// sprinkled in. Whatever the schedule, three invariants must hold:
//
//  1. Every response is one of 200 OK, 500 internal, or 503
//     ledger_refused — the failure surface is closed.
//  2. The live in-memory spend equals the acked sum exactly: a
//     refused or panicked request leaves no ε residue.
//  3. The journal never undercounts: replaying the directory — both
//     as-is and after a simulated power loss — recovers at least
//     (and with fsync=always, exactly) the acked spend.
//
// Each round uses its own seed, so a failure report's round number
// reproduces the schedule deterministically.
func TestChaosStorm(t *testing.T) {
	deadline := time.Now().Add(*chaosDur)
	rounds := 0
	for round := uint64(1); rounds == 0 || time.Now().Before(deadline); round++ {
		rounds++
		chaosRound(t, round)
		if t.Failed() {
			t.Fatalf("invariant violated in round %d (seed %d): rerun with a focused seed to reproduce", rounds, round)
		}
	}
	t.Logf("chaos: %d rounds clean in %v", rounds, *chaosDur)
}

func chaosRound(t *testing.T, seed uint64) {
	const (
		workers = 6
		perG    = 15
		epsilon = 0.01
		faultP  = 0.03
	)
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS{})
	led, err := ledger.Open(ledger.Options{
		Dir: dir, FS: fsys, Fsync: ledger.FsyncAlways, SnapshotEvery: 8, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	defer led.Close()
	s := New(noise.NewSeededSource(seed, seed+1), WithLedger(led))
	if err := s.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatalf("seed %d: add trace: %v", seed, err)
	}
	// Every 13th execution panics inside the handler; the middleware
	// must contain it.
	var execs atomic.Int64
	s.execHook = func(context.Context) {
		if execs.Add(1)%13 == 0 {
			panic("chaos: injected handler panic")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Registration and the first WAL segment are written clean; the
	// chaos schedule starts with the storm itself.
	fsys.SetChaos(int64(seed), faultP, vfs.OpWrite, vfs.OpSync, vfs.OpRename)

	var (
		acked atomic.Int64
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, body := postV1(t, ts.URL+"/v1/query", QueryRequest{
					Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: epsilon,
				}, nil)
				var e apiError
				switch resp.StatusCode {
				case http.StatusOK:
					acked.Add(1)
				case http.StatusInternalServerError:
					if json.Unmarshal(body, &e) != nil || e.Code != codeInternal {
						t.Errorf("seed %d: 500 with wrong envelope: %s", seed, body)
					}
				case http.StatusServiceUnavailable:
					if json.Unmarshal(body, &e) != nil || e.Code != codeLedgerRefused {
						t.Errorf("seed %d: 503 with wrong envelope: %s", seed, body)
					}
				default:
					t.Errorf("seed %d: status %d outside the failure surface: %s", seed, resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every acked charge stands in memory. A charge whose commit failed
	// stands too, its answer withheld (durable-before-release: a charge
	// is taken when core accepts it, the result leaves only after the
	// commit) — ε is over-counted, never under-counted.
	ackedEps := float64(acked.Load()) * epsilon
	liveSpent := s.datasets["hotspot"].policy.TotalSpent()
	if liveSpent < ackedEps-1e-9 {
		t.Errorf("seed %d: live spent %v < acked sum %v", seed, liveSpent, ackedEps)
	}
	// No charge without a journaled record: the directory replays to
	// at least every acked charge, even while the ledger is live…
	spent := func(st *ledger.State) float64 {
		ds, ok := st.Datasets["hotspot"]
		if !ok {
			return 0
		}
		return ds.TotalSpent
	}
	state, _, err := ledger.Replay(dir, 0)
	if err != nil {
		t.Errorf("seed %d: live replay: %v", seed, err)
	} else if got := spent(state); got < ackedEps-1e-9 {
		t.Errorf("seed %d: live replay %v < acked %v", seed, got, ackedEps)
	}
	// …and after a power loss that drops everything not yet fsynced,
	// recovery still holds every acked charge (fsync=always syncs
	// before ack) without inventing any the live policy never took.
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatalf("seed %d: crash: %v", seed, err)
	}
	state, rec, err := ledger.Replay(dir, 0)
	if err != nil {
		t.Errorf("seed %d: post-crash replay: %v (recovery %+v)", seed, err, rec)
	} else {
		if got := spent(state); got < ackedEps-1e-9 {
			t.Errorf("seed %d: post-crash replay %v < acked %v", seed, got, ackedEps)
		}
		if got := spent(state); got > liveSpent+1e-9 {
			t.Errorf("seed %d: post-crash replay %v exceeds pre-crash live spend %v", seed, got, liveSpent)
		}
	}

	// Liveness survives whatever the round did.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("seed %d: healthz: %v", seed, err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("seed %d: healthz = %d, want 200", seed, hr.StatusCode)
	}
}
