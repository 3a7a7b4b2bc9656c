package dpserver

// Kill-the-primary failover: the PR's acceptance harness. A primary
// with a synchronous follower (MinSync 1) takes a concurrent storm of
// keyed queries, dies abruptly mid-storm, and the follower is
// promoted. The claims under test are the replication contract's:
//
//   - Zero budget drift: every client-ACKed ε exists on the new
//     primary (a 200 was only ever written after the follower acked
//     the charge durably), and no charge exists twice.
//   - dpledger-diff clean: the two ledger directories are
//     byte-identical up to the killed primary's un-acked tail.
//   - Idempotent replays return byte-identical bodies across the
//     failover, at zero additional ε.
//   - The promoted node serves new spends at exactly the replayed
//     refusal boundary, under a bumped fencing epoch.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
)

// failoverDur bounds the TestFailoverStorm soak. The default keeps
// `go test` fast; check.sh smokes ~3s and `make chaos` soaks 30s.
var failoverDur = flag.Duration("failoverdur", 2*time.Second, "wall-clock budget for TestFailoverStorm")

// failoverPair is a primary+standby pair over separate ledger
// directories, both hosting "hotspot".
type failoverPair struct {
	dirA, dirB string
	ledA, ledB *ledger.Ledger
	sA, sB     *Server
	tsA, tsB   *httptest.Server
}

func newFailoverPair(t *testing.T, seed uint64) *failoverPair {
	t.Helper()
	p := &failoverPair{dirA: t.TempDir(), dirB: t.TempDir()}

	var err error
	p.ledA, err = ledger.Open(ledger.Options{Dir: p.dirA, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.ledA.Close() })
	p.sA = New(noise.NewSeededSource(seed, seed+1), WithLedger(p.ledA))
	if err := p.sA.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.sA.StartReplication(ReplicationConfig{
		Listen: ln, MinSync: 1, AckTimeout: 10 * time.Second, Name: "a",
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.sA.CloseReplication)
	p.tsA = httptest.NewServer(p.sA.Handler())
	t.Cleanup(p.tsA.Close)

	p.ledB, err = ledger.Open(ledger.Options{Dir: p.dirB, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.ledB.Close() })
	p.sB = New(noise.NewSeededSource(seed+2, seed+3), WithLedger(p.ledB))
	// The follower starts replicating BEFORE hosting the trace: its
	// registration arrives through the stream as the primary's bytes.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.sB.StartReplication(ReplicationConfig{
		Follow: ln.Addr().String(), Listen: lnB, Name: "b",
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.sB.CloseReplication)
	if err := p.sB.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	p.tsB = httptest.NewServer(p.sB.Handler())
	t.Cleanup(p.tsB.Close)

	// Wait for the follower to catch the registration backlog.
	waitFor(t, 5*time.Second, func() bool {
		st := getReady(t, p.tsB)
		return st.Repl != nil && st.Repl.Connected && st.Repl.LagSeq == 0
	}, "follower catch-up")
	return p
}

func getReady(t *testing.T, ts *httptest.Server) *api.ReadyStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs api.ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	return &rs
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ackedQuery is one 200-acknowledged keyed query: the request that
// earned it and the exact response bytes the client holds.
type ackedQuery struct {
	req  api.QueryRequest
	body []byte
}

// failoverCycle runs one full kill-the-primary failover and returns
// the storm's acked queries. Assertions happen inside.
func failoverCycle(t *testing.T, seed uint64) {
	const epsilon = 0.01
	p := newFailoverPair(t, seed)

	// The storm: workers hammer the primary with keyed count queries
	// until the kill. Only 200 responses count as acked.
	const workers = 6
	var (
		mu    sync.Mutex
		acked []ackedQuery
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := api.QueryRequest{
					Analyst: fmt.Sprintf("analyst-%d", g), Dataset: "hotspot",
					Query: "count", Epsilon: epsilon,
					IdempotencyKey: fmt.Sprintf("storm-%d-%d-%d", seed, g, i),
				}
				resp, body, err := tryPostV1(p.tsA.URL+"/v1/query", req)
				if err != nil {
					// The kill in progress: connection refused/reset.
					return
				}
				if resp.StatusCode == http.StatusOK {
					mu.Lock()
					acked = append(acked, ackedQuery{req: req, body: body})
					mu.Unlock()
				}
			}
		}(g)
	}

	// Let the storm land some charges, then kill the primary
	// abruptly: in-flight connections die, the replication stream
	// dies, nothing is drained.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 10
	}, "storm to land acked charges")
	close(stop)
	p.tsA.CloseClientConnections()
	p.sA.CloseReplication()
	wg.Wait()
	p.tsA.Close()
	mu.Lock()
	ackedFinal := append([]ackedQuery(nil), acked...)
	mu.Unlock()

	// Promote the standby over HTTP — the operator's path.
	resp, body, err := tryPostV1(p.tsB.URL+"/v1/admin/promote", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, body)
	}
	var pr api.PromoteResult
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Role != "primary" || pr.Epoch == 0 {
		t.Fatalf("promote result %+v, want role=primary epoch>0", pr)
	}
	if st := getReady(t, p.tsB); !st.Ready || st.Role != "primary" {
		t.Fatalf("post-promote readyz %+v, want ready primary", st)
	}

	// Diff the two directories at the runbook moment (before the new
	// primary takes new writes): the follower's history must be a
	// byte-identical prefix of the killed primary's — divergence here
	// would mean the ledgers disagree about a shared seq.
	p.ledA.Close() // release A for offline replay
	r, err := ledger.Diff(p.dirA, p.dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("ledgers diverged at seq %d:\n  A: %s\n  B: %s",
			r.Diverged.Seq, r.Diverged.A, r.Diverged.B)
	}
	if r.OnlyB != 0 {
		t.Fatalf("follower holds %d events the primary never journaled", r.OnlyB)
	}

	// Zero budget drift: every client-ACKed ε exists on the new
	// primary. (B may hold MORE — charges whose responses died with
	// the kill — which is the conservative direction.)
	stB, _, err := ledger.Replay(p.dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	ackedPer := map[string]float64{}
	for _, a := range ackedFinal {
		ackedPer[a.req.Analyst] += epsilon
	}
	ds := stB.Datasets["hotspot"]
	if ds == nil {
		t.Fatal("new primary lost the dataset")
	}
	for analyst, want := range ackedPer {
		if got := ds.Spent[analyst]; got < want-1e-9 {
			t.Fatalf("budget drift: %s acked %v but new primary holds %v", analyst, want, got)
		}
	}

	// Idempotent replays cross the failover byte-identically, at zero
	// additional ε: replay every acked key against the new primary
	// and compare bodies, then check the spend did not move.
	spentBefore := ds.TotalSpent
	for _, a := range ackedFinal {
		resp, body, err := tryPostV1(p.tsB.URL+"/v1/query", a.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay of %s: status %d: %s", a.req.IdempotencyKey, resp.StatusCode, body)
		}
		if string(body) != string(a.body) {
			t.Fatalf("replay of %s not byte-identical:\n  acked:  %s\n  replay: %s",
				a.req.IdempotencyKey, a.body, body)
		}
	}
	if got := p.sB.datasets["hotspot"].policy.TotalSpent(); math.Abs(got-spentBefore) > 1e-9 {
		t.Fatalf("idempotent replays moved the spend: %v -> %v", spentBefore, got)
	}

	// The promoted primary accepts NEW spends from the replayed
	// boundary onward.
	fresh := api.QueryRequest{
		Analyst: "analyst-0", Dataset: "hotspot", Query: "count", Epsilon: epsilon,
		IdempotencyKey: fmt.Sprintf("post-%d", seed),
	}
	resp, body, err = tryPostV1(p.tsB.URL+"/v1/query", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh spend on promoted primary: status %d: %s", resp.StatusCode, body)
	}
	if got := p.sB.datasets["hotspot"].policy.TotalSpent(); math.Abs(got-(spentBefore+epsilon)) > 1e-9 {
		t.Fatalf("fresh spend: total %v, want %v", got, spentBefore+epsilon)
	}
	if got := p.ledB.Epoch(); got != pr.Epoch {
		t.Fatalf("ledger epoch %d, want promoted epoch %d", got, pr.Epoch)
	}
}

// tryPostV1 is postV1 without t.Fatal on transport errors — the storm
// must survive the kill it is part of.
func tryPostV1(url string, body any) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

// TestKillPrimaryFailover is the single-cycle acceptance test: one
// storm, one kill, one promotion, all invariants checked.
func TestKillPrimaryFailover(t *testing.T) {
	failoverCycle(t, 42)
}

// failoverMinRounds is the floor of the soak: seeds 100..227 always
// run, however loaded the machine, so the set of subtests does not
// depend on timing. The -failoverdur budget only adds rounds past it.
const failoverMinRounds = 128

// TestFailoverStorm soaks the cycle with fresh seeds until the
// -failoverdur budget runs out (check.sh smokes ~3s; `make chaos`
// runs 30s), and never fewer than failoverMinRounds.
func TestFailoverStorm(t *testing.T) {
	deadline := time.Now().Add(*failoverDur)
	rounds := 0
	for seed := uint64(100); rounds < failoverMinRounds || time.Now().Before(deadline); seed++ {
		rounds++
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			failoverCycle(t, seed)
		})
		if t.Failed() {
			t.Fatalf("failover invariant violated in round %d", rounds)
		}
	}
	t.Logf("failover storm: %d rounds clean (budget %v)", rounds, *failoverDur)
}

// TestKeyedReingestAfterFailover is TestKeyedReingestAfterRestart's
// twin across a promotion: replication carries budgets, not records,
// so the promoted follower must append a re-sent keyed batch instead
// of replaying the dead primary's ACK over a dataset that never held it.
func TestKeyedReingestAfterFailover(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "ack in memory"
		if journaled {
			name = "ack journaled by an older build"
		}
		t.Run(name, func(t *testing.T) {
			p := newFailoverPair(t, 7)
			base := len(restartTrace())
			ack := reingest(t, p.tsA.URL, base+30)
			if journaled {
				if err := p.ledA.Append(oldIngestReply(ack)); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, func() bool {
					st := getReady(t, p.tsB)
					return st.Repl != nil && st.Repl.LagSeq == 0
				}, "follower to apply the stored ACK")
			}
			p.tsA.CloseClientConnections()
			p.sA.CloseReplication()
			p.tsA.Close()

			if resp, body, err := tryPostV1(p.tsB.URL+"/v1/admin/promote", struct{}{}); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("promote: %v %s", err, body)
			}
			if got := hostedRecords(t, p.tsB.URL, "hotspot"); got != base {
				t.Fatalf("promoted with %d records, want the %d registered", got, base)
			}
			after := reingest(t, p.tsB.URL, base+30)
			if again := reingest(t, p.tsB.URL, base+30); !bytes.Equal(again, after) {
				t.Fatalf("second re-send after failover appended again:\n was: %s\n now: %s", after, again)
			}
		})
	}
}

// TestStartReplicationRequiresDurableLedger: a server built without
// WithLedger refuses both replication roles — its in-memory ledger keeps
// no segments to catch a follower up from — and starts neither, so its
// spends are not refused.
func TestStartReplicationRequiresDurableLedger(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, cfg := range []ReplicationConfig{{Listen: ln, Name: "p"}, {Follow: ln.Addr().String(), Name: "f"}} {
		if err := s.StartReplication(cfg); err == nil || !strings.Contains(err.Error(), "WithLedger") {
			t.Errorf("StartReplication(%+v) = %v, want a refusal naming WithLedger", cfg, err)
		}
	}
	if err := s.spendRefusal(); err != nil {
		t.Errorf("a refused StartReplication left spends refused: %v", err)
	}
}
