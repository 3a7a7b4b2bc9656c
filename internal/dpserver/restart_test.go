package dpserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// restartTrace is a tiny fixed dataset: budget arithmetic, not query
// accuracy, is what these tests exercise.
func restartTrace() []trace.Packet {
	pkts := make([]trace.Packet, 64)
	for i := range pkts {
		pkts[i] = trace.Packet{SrcIP: trace.IPv4(i), DstIP: 1, DstPort: 80, Proto: 6, Len: 100}
	}
	return pkts
}

// openLedger opens (or re-opens) a ledger over dir. The "kill" below is
// dropping the server without Close.
func openLedger(t *testing.T, dir string) *ledger.Ledger {
	t.Helper()
	led, err := ledger.Open(ledger.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return led
}

func ledgerServer(t *testing.T, led *ledger.Ledger, total, perAnalyst float64) (*Server, *httptest.Server) {
	t.Helper()
	s := New(noise.NewSeededSource(1, 2), WithLedger(led))
	if err := s.AddPacketTrace("hotspot", restartTrace(), total, perAnalyst); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestKillAndRestartPreservesBudgets is the PR's acceptance test:
// charge against a ledger-backed server, drop it without any shutdown
// (the in-process stand-in for kill -9), restart over the same
// directory, and the replayed server must sit at the identical budget
// state — same per-analyst spend, same refusal boundary, and a
// byte-identical idempotent replay that costs zero additional ε.
func TestKillAndRestartPreservesBudgets(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	s1, ts1 := ledgerServer(t, led1, 2.0, 1.0)

	// alice spends 0.8 of her 1.0 cap; the second query carries an
	// idempotency key so its reply is journaled for replay.
	resp, _ := postV1(t, ts1.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.4,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first charge: status %d", resp.StatusCode)
	}
	keyed := QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count",
		Epsilon: 0.4, IdempotencyKey: "restart-key-1"}
	resp, body1 := postV1(t, ts1.URL+"/v1/query", keyed, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed charge: status %d: %s", resp.StatusCode, body1)
	}

	spent1 := s1.datasets["hotspot"].policy.SpentBy("alice")
	total1 := s1.datasets["hotspot"].policy.TotalSpent()
	if spent1 != 0.4+0.4 {
		t.Fatalf("live spend %v, want 0.8", spent1)
	}

	// Kill: no Server shutdown, no ledger Close. Every acked charge
	// was already appended to the WAL before its response was sent.
	ts1.Close()

	led2 := openLedger(t, dir)
	defer led2.Close()
	s2, ts2 := ledgerServer(t, led2, 2.0, 1.0)

	if got := s2.datasets["hotspot"].policy.SpentBy("alice"); got != spent1 {
		t.Fatalf("replayed spend %v, live was %v — not bit-identical", got, spent1)
	}
	if got := s2.datasets["hotspot"].policy.TotalSpent(); got != total1 {
		t.Fatalf("replayed total %v, live was %v", got, total1)
	}

	// The idempotent replay must serve the journaled bytes without
	// executing (and so without charging) anything.
	resp, body2 := postV1(t, ts2.URL+"/v1/query", keyed, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed keyed query: status %d: %s", resp.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("idempotent replay not byte-identical across restart:\n pre: %s\npost: %s", body1, body2)
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("alice"); got != spent1 {
		t.Fatalf("idempotent replay charged ε: spend %v, want %v", got, spent1)
	}

	// The refusal boundary carried over: alice has 0.2 of headroom, so
	// 0.4 is refused exactly as it would have been before the kill.
	resp, body := postV1(t, ts2.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.4,
	}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget charge after restart: status %d: %s", resp.StatusCode, body)
	}
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil || ae.Code != codeBudgetExhausted {
		t.Fatalf("refusal envelope %s (err %v), want code %q", body, err, codeBudgetExhausted)
	}
	// ...while a charge within the surviving headroom still lands.
	resp, body = postV1(t, ts2.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.15,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget charge after restart: status %d: %s", resp.StatusCode, body)
	}

	// The pre-kill audit entries survived the restart alongside the
	// budgets (plus the refusal and charge recorded just above).
	if n := len(s2.Audit()); n < 3 {
		t.Fatalf("audit trail has %d entries after restart, want the full history", n)
	}
}

// TestRestartRefusesMismatchedRegistration: re-registering a recovered
// dataset with different bounds would silently re-open spent budget,
// so it must fail loudly instead.
func TestRestartRefusesMismatchedRegistration(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	s1 := New(noise.NewSeededSource(1, 2), WithLedger(led1))
	if err := s1.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatal(err)
	}
	led1.Close()

	led2 := openLedger(t, dir)
	defer led2.Close()
	s2 := New(noise.NewSeededSource(1, 2), WithLedger(led2))
	err := s2.AddPacketTrace("hotspot", restartTrace(), 5.0, 1.0)
	if !errors.Is(err, ErrLedgerMismatch) {
		t.Fatalf("mismatched total budget: %v, want ErrLedgerMismatch", err)
	}
	if err := s2.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatalf("matching re-registration: %v", err)
	}
}

// TestFrozenLedgerFailsClosed: corrupt history freezes the ledger;
// recovered budgets still refuse over-budget queries, and every query
// that would need a journal append is refused with a retryable 503.
func TestFrozenLedgerFailsClosed(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	s1 := New(noise.NewSeededSource(1, 2), WithLedger(led1))
	if err := s1.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, _ := postV1(t, ts1.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.4,
	}, nil)
	ts1.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("setup charge: status %d", resp.StatusCode)
	}
	led1.Close()

	// Flip the final byte: a complete record whose CRC no longer
	// checks out — corruption, not a torn tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	led2 := openLedger(t, dir)
	defer led2.Close()
	if led2.Frozen() == nil {
		t.Fatal("corrupt WAL did not freeze the ledger")
	}
	s2 := New(noise.NewSeededSource(1, 2), WithLedger(led2))
	// The corrupted record was the trailing audit entry; the charge
	// before it replayed, so alice's 0.4 survives into the frozen
	// state and the matching registration succeeds.
	if err := s2.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("alice"); got != 0.4 {
		t.Fatalf("frozen-state spend %v, want the replayed 0.4", got)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp, body := postV1(t, ts2.URL+"/v1/query", QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("charge on frozen ledger: status %d: %s", resp.StatusCode, body)
	}
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil || ae.Code != codeLedgerRefused || !ae.Retryable {
		t.Fatalf("frozen-ledger envelope %s (err %v), want retryable code %q", body, err, codeLedgerRefused)
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("alice"); got != 0.4 {
		t.Fatalf("refused charge on frozen ledger moved spend to %v, want 0.4", got)
	}
}
