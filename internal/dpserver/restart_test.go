package dpserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// restartTrace is a tiny fixed dataset: budget arithmetic, not query
// accuracy, is what these tests exercise.
func restartTrace() []trace.Packet {
	pkts := make([]trace.Packet, 64)
	for i := range pkts {
		pkts[i] = trace.Packet{Header: trace.Header{SrcIP: trace.IPv4(i), DstIP: 1, DstPort: 80, Proto: 6, Len: 100}}
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
	resp, _ := postV1(t, ts1.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.4,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first charge: status %d", resp.StatusCode)
	}
	keyed := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count",
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
	resp, body := postV1(t, ts2.URL+"/v1/query", api.QueryRequest{
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
	resp, body = postV1(t, ts2.URL+"/v1/query", api.QueryRequest{
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

// TestReplayOutlivesCacheCapacity: every unexpired reply the ledger
// stores replays, however many there are — on the server that answered
// it and after a restart. A bounded cache beside the ledger kept only
// its newest 1,024, so a retry of an older key executed and charged ε a
// second time for the same answer.
func TestReplayOutlivesCacheCapacity(t *testing.T) {
	const sent = 1100
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	s1, ts1 := ledgerServer(t, led1, math.Inf(1), math.Inf(1))
	if sent <= s1.idem.capacity {
		t.Fatalf("%d replies fit the %d-entry table; the test needs more", sent, s1.idem.capacity)
	}
	keyed := func(i int) api.QueryRequest {
		return api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count",
			Epsilon: 0.01, IdempotencyKey: fmt.Sprintf("key-%d", i)}
	}
	bodies := make([][]byte, sent)
	for i := range bodies {
		resp, body := postV1(t, ts1.URL+"/v1/query", keyed(i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed charge %d: status %d: %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	replayAll := func(s *Server, url, when string) {
		t.Helper()
		spent := s.datasets["hotspot"].policy.TotalSpent()
		for i := range bodies {
			resp, body := postV1(t, url+"/v1/query", keyed(i), nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[i]) {
				t.Fatalf("%s: key %d of %d did not replay: status %d\n pre: %s\npost: %s",
					when, i, sent, resp.StatusCode, bodies[i], body)
			}
		}
		if got := s.datasets["hotspot"].policy.TotalSpent(); got != spent {
			t.Fatalf("%s: replays charged ε: spent %v -> %v", when, spent, got)
		}
	}
	replayAll(s1, ts1.URL, "same server")
	ts1.Close()
	led1.Close()

	led2 := openLedger(t, dir)
	defer led2.Close()
	s2, ts2 := ledgerServer(t, led2, math.Inf(1), math.Inf(1))
	replayAll(s2, ts2.URL, "after a restart")
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

	// A link dataset, as older servers journaled it: a packet trace
	// under its name is refused at equal budgets too, the refusal adds
	// nothing to the ledger, and the history still replays in full (what
	// dpledger verify checks).
	if err := led2.Append(ledger.Event{
		Type: ledger.EventDatasetCreated, Dataset: "isp", Kind: "link",
		Total: ledger.EncodeBudget(2.0), PerAnalyst: ledger.EncodeBudget(1.0),
	}); err != nil {
		t.Fatal(err)
	}
	led2.Close()
	led3 := openLedger(t, dir)
	defer led3.Close()
	seq := led3.StagedSeq()
	s3 := New(noise.NewSeededSource(1, 2), WithLedger(led3))
	if err := s3.AddPacketTrace("isp", restartTrace(), 2.0, 1.0); !errors.Is(err, ErrLedgerMismatch) || !strings.Contains(err.Error(), "kind=link") {
		t.Fatalf("packet trace over a journaled link dataset: %v, want ErrLedgerMismatch naming kind=link", err)
	}
	if err := s3.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatalf("re-registration beside the link dataset: %v", err)
	}
	if got := led3.StagedSeq(); got != seq {
		t.Errorf("the refused registration journaled: seq %d → %d", seq, got)
	}
	state, rec, err := ledger.Replay(dir, 0)
	if err != nil || rec.TornBytes != 0 {
		t.Fatalf("replay after the refusal: %v (%d torn bytes)", err, rec.TornBytes)
	}
	if ds, ok := state.Datasets["isp"]; !ok || ds.Kind != "link" {
		t.Errorf("replayed isp = %+v, want the link dataset", ds)
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
	resp, _ := postV1(t, ts1.URL+"/v1/query", api.QueryRequest{
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

	resp, body := postV1(t, ts2.URL+"/v1/query", api.QueryRequest{
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

// hostedRecords reads a dataset's record count from GET /v1/datasets.
func hostedRecords(t *testing.T, base, name string) int {
	t.Helper()
	resp, body := getBody(t, base+"/v1/datasets")
	var infos []api.DatasetInfo
	if err := json.Unmarshal(body, &infos); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("datasets: %d %s (err %v)", resp.StatusCode, body, err)
	}
	for _, info := range infos {
		if info.Name == name {
			return info.Records
		}
	}
	t.Fatalf("dataset %q not listed: %s", name, body)
	return 0
}

// reingest sends one keyed 30-record batch and checks the ACK and the
// dataset's record count against want.
func reingest(t *testing.T, base string, want int) []byte {
	t.Helper()
	resp, body := postIngestKeyed(t, base+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(30)), "probe", "1")
	var ack api.IngestResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ack) != nil {
		t.Fatalf("keyed ingest: %d %s", resp.StatusCode, body)
	}
	if got := hostedRecords(t, base, "hotspot"); got != want || ack.TotalRecords != want {
		t.Fatalf("the ACK says %d records, the dataset holds %d, want %d: %s", ack.TotalRecords, got, want, body)
	}
	return body
}

// oldIngestReply is the idem_reply a build that journaled ingest ACKs
// left in the WAL for reingest's batch: restore and follower warm-up
// must skip it as well.
func oldIngestReply(ack []byte) ledger.Event {
	return ledger.Event{
		Type: ledger.EventIdemReply, Endpoint: "/v1/ingest/hotspot",
		Dataset: "hotspot", Analyst: "probe", Key: "probe\x001",
		Status: http.StatusOK, Body: ack, Expires: time.Now().Add(time.Hour).UnixNano(),
	}
}

// TestKeyedReingestAfterRestart: a keyed ingest ACK must not outlive
// the records it acknowledges. Ingested records live in memory only, so
// after a kill and restart the sender's re-send of the same
// (source, seq) is appended again — not answered with the first
// server's ACK over a dataset that lost the batch — and within the new
// server's lifetime a second re-send still replays instead of
// appending twice.
func TestKeyedReingestAfterRestart(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "ack in memory"
		if journaled {
			name = "ack journaled by an older build"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := len(restartTrace())
			led1 := openLedger(t, dir)
			_, ts1 := ledgerServer(t, led1, math.Inf(1), math.Inf(1))
			first := reingest(t, ts1.URL, base+30)
			if again := reingest(t, ts1.URL, base+30); !bytes.Equal(again, first) {
				t.Fatalf("re-send within one lifetime is not a replay:\n was: %s\n now: %s", first, again)
			}
			if journaled {
				if err := led1.Append(oldIngestReply(first)); err != nil {
					t.Fatal(err)
				}
			}
			ts1.Close()

			led2 := openLedger(t, dir)
			defer led2.Close()
			_, ts2 := ledgerServer(t, led2, math.Inf(1), math.Inf(1))
			if got := hostedRecords(t, ts2.URL, "hotspot"); got != base {
				t.Fatalf("restarted with %d records, want the %d registered", got, base)
			}
			after := reingest(t, ts2.URL, base+30)
			if again := reingest(t, ts2.URL, base+30); !bytes.Equal(again, after) {
				t.Fatalf("second re-send after restart appended again:\n was: %s\n now: %s", after, again)
			}
		})
	}
}

// TestAuditSameWithAndWithoutLedger: a server with a durable ledger and
// one without list the same /v1/audit entries, times aside, for the
// same requests — ok, amplified, refused and keyed-replayed — since
// both fold them through a ledger.
func TestAuditSameWithAndWithoutLedger(t *testing.T) {
	led := openLedger(t, t.TempDir())
	defer led.Close()
	_, durable := ledgerServer(t, led, 1, 0.5)
	mem := New(noise.NewSeededSource(1, 2))
	if err := mem.AddPacketTrace("hotspot", restartTrace(), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(mem.Handler())
	defer memTS.Close()

	audit := func(ts *httptest.Server) []AuditEntry {
		for _, req := range []api.QueryRequest{
			{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.2},
			{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.1},
			{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.2},
			{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.3, IdempotencyKey: "k"},
			{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.3, IdempotencyKey: "k"},
		} {
			postQuery(t, ts, req)
		}
		_, body := getBody(t, ts.URL+"/v1/audit")
		var out []AuditEntry
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			out[i].Time = time.Time{}
		}
		return out
	}
	withLedger, without := audit(durable), audit(memTS)
	if len(withLedger) != 4 || withLedger[2].Outcome != "refused" {
		t.Fatalf("durable server's trail: %+v, want 4 entries, the third refused", withLedger)
	}
	if !reflect.DeepEqual(withLedger, without) {
		t.Fatalf("/v1/audit differs:\nwith WithLedger: %+v\nwithout:         %+v", withLedger, without)
	}
}
