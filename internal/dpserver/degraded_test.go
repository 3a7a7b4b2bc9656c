package dpserver

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/vfs"
)

// These are the PR's end-to-end robustness tests: a ledger that
// degrades mid-storm must fail closed without half-states, a panic
// anywhere in query execution must become a 500 envelope while the
// server keeps serving, and /readyz must tell load balancers the
// difference between "alive" and "willing to spend ε".

// faultLedgerServer builds a ledger over a fault-injectable
// filesystem and a server on top of it.
func faultLedgerServer(t *testing.T, total, perAnalyst float64) (*Server, *httptest.Server, *vfs.FaultFS, string) {
	t.Helper()
	fsys := vfs.NewFaultFS(vfs.OS{})
	dir := t.TempDir()
	led, err := ledger.Open(ledger.Options{
		Dir: dir, FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s := New(noise.NewSeededSource(1, 2), WithLedger(led))
	if err := s.AddPacketTrace("hotspot", restartTrace(), total, perAnalyst); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, fsys, dir
}

// TestDegradedLedgerStormFailsClosed is the frozen-ledger acceptance
// test: under a concurrent query storm the WAL starts rejecting
// writes mid-flight, and every in-flight spend must resolve to
// exactly one of two states — a fully-journaled 200, or a zero-ε 503
// with the ledger_refused envelope. Never a half-state: the live
// policy total must equal the acked sum, and the on-disk journal must
// replay to at least every acked charge.
func TestDegradedLedgerStormFailsClosed(t *testing.T) {
	s, ts, fsys, dir := faultLedgerServer(t, math.Inf(1), math.Inf(1))

	const (
		workers = 8
		perG    = 20
		epsilon = 0.01
		faultAt = workers * perG / 2 // inject roughly mid-storm
	)
	var (
		acked   atomic.Int64 // number of 200s
		refused atomic.Int64 // number of 503 ledger_refused
		started atomic.Int64
		bad     sync.Map // status or code violations, by description
		wg      sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if started.Add(1) == faultAt {
					fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO, Sticky: true})
				}
				resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
					Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: epsilon,
				}, nil)
				switch resp.StatusCode {
				case http.StatusOK:
					acked.Add(1)
				case http.StatusServiceUnavailable:
					var e apiError
					if err := json.Unmarshal(body, &e); err != nil || e.Code != codeLedgerRefused {
						bad.Store(string(body), resp.StatusCode)
					} else {
						refused.Add(1)
					}
				default:
					bad.Store(string(body), resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	bad.Range(func(k, v any) bool {
		t.Errorf("unexpected response %v: %s", v, k)
		return true
	})
	if refused.Load() == 0 {
		t.Fatal("fault never caused a refusal; storm did not exercise degradation")
	}
	if acked.Load() == 0 {
		t.Fatal("no query succeeded before the fault; storm did not exercise the happy path")
	}

	// Invariant 1: the live policy holds exactly the acked charges —
	// a refused spend left no in-memory residue.
	ackedEps := float64(acked.Load()) * epsilon
	if got := s.datasets["hotspot"].policy.TotalSpent(); math.Abs(got-ackedEps) > 1e-9 {
		t.Fatalf("live spent = %v, want acked sum %v", got, ackedEps)
	}
	// Invariant 2: no charge was acked without a journaled record —
	// a read-only replay of the directory recovers at least (here,
	// exactly: the write fault leaves nothing partial) the acked sum.
	state, _, err := ledger.Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := state.Datasets["hotspot"].TotalSpent; got < ackedEps-1e-9 {
		t.Fatalf("journal replays %v, below acked %v: a charge was acked without a record", got, ackedEps)
	}

	// The degraded server sheds new spends immediately, fail closed…
	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-degrade query: status %d, body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeLedgerRefused || !e.Retryable {
		t.Fatalf("post-degrade envelope = %s", body)
	}

	// …while the read-only surface keeps serving: liveness stays 200
	// (restarting would not help) but flags the degradation, readiness
	// goes 503 so balancers stop routing spends here.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthStatus
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !h.Degraded || h.Status != "degraded" || h.LedgerError == "" {
		t.Fatalf("healthz = %d %+v, want 200 degraded with cause", hr.StatusCode, h)
	}
	rr, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready api.ReadyStatus
	json.NewDecoder(rr.Body).Decode(&ready)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Status != "ledger_refused" {
		t.Fatalf("readyz = %d %+v, want 503 ledger_refused", rr.StatusCode, ready)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	out := rec.Body.String()
	if !strings.Contains(out, "dp_degraded 1") || !strings.Contains(out, "dp_ledger_degraded 1") {
		t.Fatalf("metrics should report degradation:\n%s", out)
	}
}

// TestHandlerPanicBecomesInternalEnvelope: a panic inside query
// execution must not kill the process — the middleware converts it to
// a 500 {code:"internal"} envelope and a dp_panics_total increment,
// and the very next query on the same server succeeds.
func TestHandlerPanicBecomesInternalEnvelope(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	var explode atomic.Bool
	s.execHook = func(context.Context) {
		if explode.Load() {
			panic("injected handler bug")
		}
	}

	explode.Store(true)
	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if e.Code != codeInternal {
		t.Fatalf("code = %q, want %q", e.Code, codeInternal)
	}
	// The hook runs before any agent.Apply: nothing may be charged.
	if got := s.datasets["hotspot"].policy.TotalSpent(); got != 0 {
		t.Fatalf("spent after pre-Apply panic = %v, want 0", got)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if !strings.Contains(rec.Body.String(), `dp_panics_total{site="/query"} 1`) {
		t.Fatalf("dp_panics_total missing:\n%s", rec.Body.String())
	}

	// The server survives: the next query works.
	explode.Store(false)
	resp, body = postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovered panic: status %d, body %s", resp.StatusCode, body)
	}
}

// TestWorkerPanicCrossesToEnvelope drives a genuine parallel-worker
// panic — a *core.WorkerPanic re-raised on the coordinating goroutine
// — through the HTTP layer: the envelope must carry the worker
// message and the server must keep serving.
func TestWorkerPanicCrossesToEnvelope(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	var explode atomic.Bool
	s.execHook = func(context.Context) {
		if !explode.Load() {
			return
		}
		vals := make([]int, 100)
		q, _ := core.NewQueryable(vals, math.Inf(1), noise.NewSeededSource(3, 4))
		q = q.WithExecOptions(core.ExecOptions{Workers: 4, Threshold: 1})
		q.Where(func(int) bool { panic("worker bug") })
	}

	explode.Store(true)
	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeInternal || !strings.Contains(e.Message, "parallel worker") {
		t.Fatalf("envelope = %+v, want internal with worker-panic message", e)
	}

	explode.Store(false)
	resp, _ = postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive worker panic: %d", resp.StatusCode)
	}
}

// TestReadyzDistinguishesDrainingFromReady: readiness is its own
// signal — ready while serving, 503 "draining" once shutdown begins,
// while liveness stays 200 throughout.
func TestReadyzDistinguishesDrainingFromReady(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))

	rr, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready api.ReadyStatus
	json.NewDecoder(rr.Body).Decode(&ready)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || !ready.Ready || ready.Status != "ready" {
		t.Fatalf("readyz = %d %+v, want 200 ready", rr.StatusCode, ready)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rr, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready = api.ReadyStatus{}
	json.NewDecoder(rr.Body).Decode(&ready)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Status != "draining" {
		t.Fatalf("readyz after Shutdown = %d %+v, want 503 draining", rr.StatusCode, ready)
	}
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness)", hr.StatusCode)
	}
}

// TestFrozenLedgerStillHostsReadOnly pins the startup half of degraded
// mode: when the ledger recovers corrupt *before* a dataset's
// registration record (so the dataset is absent from the replayed
// state and cannot be journaled), the server must still come up and
// host it read-only — spends shed 503, dataset listing and readiness
// report the truth — rather than refusing to start and taking the
// diagnostic surface down with it.
func TestFrozenLedgerStillHostsReadOnly(t *testing.T) {
	dir := t.TempDir()
	// A WAL whose very first record is garbage: nothing replays, the
	// ledger freezes, and no dataset exists in the recovered state.
	bad := append([]byte("dpwal01\n"), 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF)
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.wal"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	led := openLedger(t, dir)
	if led.Frozen() == nil {
		t.Fatal("corrupt WAL did not freeze the ledger")
	}
	events := qlog.New(qlog.Options{})
	s := New(noise.NewSeededSource(1, 2), WithLedger(led), WithEventLog(events))
	if err := s.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatalf("registration on a frozen ledger must host read-only, got %v", err)
	}
	// Both halves of the story reach the event log: the freeze, and the
	// registration hosted without a journal record.
	seen := map[string]bool{}
	for _, e := range events.Recent(0) {
		seen[e.Name] = true
	}
	if !seen["ledger_frozen"] || !seen["registration_unjournaled"] {
		t.Fatalf("events %v, want ledger_frozen and registration_unjournaled", seen)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spend on frozen ledger: status %d, body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeLedgerRefused {
		t.Fatalf("envelope = %s", body)
	}
	if got := s.datasets["hotspot"].policy.TotalSpent(); got != 0 {
		t.Fatalf("refused spend left ε residue: %v", got)
	}

	dr, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("dataset listing on frozen ledger = %d, want 200", dr.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready api.ReadyStatus
	json.NewDecoder(rr.Body).Decode(&ready)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable || ready.Status != "ledger_refused" {
		t.Fatalf("readyz = %d %+v, want 503 ledger_refused", rr.StatusCode, ready)
	}
}
