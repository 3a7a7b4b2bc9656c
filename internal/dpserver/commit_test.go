package dpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/vfs"
)

// This file pins the server half of the durable-before-release
// contract: every record a request journals is staged as it happens and
// made durable by ONE commit at the point its answer would leave the
// server; no response, stored reply, ingest ACK or standing window
// result is observable before that commit; a crash keeps a prefix of
// the request's records (never a reply or window result without its
// charge); and a failed commit withholds the answer while the charge
// stands.

// crashCase is one kind of request driven through the crash matrix.
type crashCase struct {
	name string
	// total and perAnalyst are the dataset's budgets (zero = unlimited);
	// want is the status a healthy server answers (zero = 200).
	total, perAnalyst float64
	want              int
	// setup runs on a healthy server before any fault is armed (its
	// journal records are committed).
	setup func(t *testing.T, base string)
	// do sends the request under test (same bytes and key every time).
	do func(t *testing.T, base string) (*http.Response, []byte)
	// analyst whose spend the request moves; idemKey of its stored
	// reply in the ledger state.
	analyst string
	idemKey string
	// appends is the number of records the request ingests. Its keyed
	// ACK lives in the process only — the records are not journaled, so
	// no stored reply may outlive them — and a retry after the restart
	// appends them again, charging no window twice.
	appends int
	// retried reports the analyst's spend a retry after restart must
	// land on, given the replayed spend and whether the reply survived.
	retried func(eps, replayed float64, hasReply bool) float64
	// seen reports the ε of every result the client can hold once the
	// request has been answered: the response's own (a query), or what
	// the read endpoints show (the windows an ingest batch closed).
	seen func(t *testing.T, base string, acked bool, eps float64) float64
}

func postIngestKeyed(t *testing.T, url string, body []byte, source, seq string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	req.Header.Set(api.BatchSourceHeader, source)
	req.Header.Set(api.BatchSeqHeader, seq)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func (tc *crashCase) budgets() (total, perAnalyst float64) {
	total, perAnalyst = math.Inf(1), math.Inf(1)
	if tc.total > 0 {
		total, perAnalyst = tc.total, tc.perAnalyst
	}
	return total, perAnalyst
}

func (tc *crashCase) status() int {
	if tc.want != 0 {
		return tc.want
	}
	return http.StatusOK
}

func crashCases() []crashCase {
	spend := func(eps, replayed float64, hasReply bool) float64 {
		if hasReply {
			return replayed // stored bytes, no new charge
		}
		return replayed + eps // executed once more
	}
	query := func(kind, key string) func(*testing.T, string) (*http.Response, []byte) {
		return func(t *testing.T, base string) (*http.Response, []byte) {
			return postV1(t, base+"/v1/query", api.QueryRequest{
				Analyst: "alice", Dataset: "hotspot", Query: kind, Epsilon: 0.1, IdempotencyKey: key,
			}, nil)
		}
	}
	answered := func(_ *testing.T, _ string, acked bool, eps float64) float64 {
		if acked {
			return eps
		}
		return 0
	}
	return []crashCase{
		{
			name: "keyed count", do: query("count", "k-count"), analyst: "alice", seen: answered,
			idemKey: ledger.IdemKeyString("/v1/query", "hotspot", "alice", "k-count"), retried: spend,
		},
		{
			// Hundreds of partition charges in memory, one charge record.
			name: "lencdf", do: query("lencdf", "k-lencdf"), analyst: "alice", seen: answered,
			idemKey: ledger.IdemKeyString("/v1/query", "hotspot", "alice", "k-lencdf"), retried: spend,
		},
		{
			// The analyst's cap accepts (charge journaled), the shared
			// total refuses (rollback journaled): four records, net ε 0.
			// A prefix that keeps the charge without its rollback
			// over-counts; the retry is refused again either way.
			name: "count refused by the shared total", total: 0.05, perAnalyst: 1, want: http.StatusForbidden,
			do: query("count", "k-refused"), analyst: "alice", seen: answered,
			idemKey: ledger.IdemKeyString("/v1/query", "hotspot", "alice", "k-refused"),
			retried: func(_, replayed float64, _ bool) float64 { return replayed },
		},
		{
			name: "ingest batch closing 4 windows",
			setup: func(t *testing.T, base string) {
				for i := 0; i < 4; i++ {
					resp, body := postV1(t, base+"/v1/standing/hotspot", api.StandingRequest{
						Analyst: "mon", ID: fmt.Sprintf("sq-%d", i), Query: "count", Epsilon: 0.1,
						Reservation: 1, Window: api.StandingWindow{Width: 20},
					}, nil)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("register standing %d: %d %s", i, resp.StatusCode, body)
					}
				}
			},
			do: func(t *testing.T, base string) (*http.Response, []byte) {
				return postIngestKeyed(t, base+"/v1/ingest/hotspot",
					trace.MarshalPacketsNDJSON(ingestPkts(20)), "probe", "1")
			},
			analyst: "mon",
			idemKey: ledger.IdemKeyString("/v1/ingest/hotspot", "hotspot", "probe", "probe\x001"),
			appends: 20,
			// A window's charge and cursor are one record: whatever
			// survived is not fired again, whatever did not fires once
			// when the re-sent batch brings the records back.
			retried: func(eps, _ float64, _ bool) float64 { return eps },
			// The ACK itself carries no result; the windows' results are
			// read through the (journal-free) results endpoint.
			seen: func(t *testing.T, base string, _ bool, _ float64) float64 {
				total := 0.0
				for i := 0; i < 4; i++ {
					results, _ := standingResults(t, base, "hotspot", fmt.Sprintf("sq-%d", i))
					for _, r := range results {
						total += r.Charged
					}
				}
				return total
			},
		},
	}
}

// TestCrashMatrix kills the server after each staged record of a
// request and on either side of its commit sync — by power loss (only
// fsynced bytes survive) and by process kill (the page cache survives,
// so a true prefix of the request's records does) — and checks what a
// restart finds.
func TestCrashMatrix(t *testing.T) {
	for _, tc := range crashCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Dry run: how many WAL records does the request stage, how
			// many syncs, how much ε?
			total, perAnalyst := tc.budgets()
			s, ts, fsys, _ := faultLedgerServer(t, total, perAnalyst)
			if tc.setup != nil {
				tc.setup(t, ts.URL)
			}
			before := fsys.Counts()
			resp, body := tc.do(t, ts.URL)
			if resp.StatusCode != tc.status() {
				t.Fatalf("dry run: %d %s", resp.StatusCode, body)
			}
			after := fsys.Counts()
			writes := after[vfs.OpWrite] - before[vfs.OpWrite]
			if syncs := after[vfs.OpSync] - before[vfs.OpSync]; syncs != 1 || writes < 3 {
				t.Fatalf("request staged %d records over %d syncs, want >= 3 records and exactly 1 sync", writes, syncs)
			}
			eps := s.datasets["hotspot"].policy.SpentBy(tc.analyst)
			if (eps > 0) != (tc.status() == http.StatusOK) {
				t.Fatalf("dry run answered %d and left ε=%v spent", resp.StatusCode, eps)
			}

			type point struct {
				name string
				rule *vfs.Rule
			}
			points := []point{}
			for k := 1; k <= writes; k++ {
				points = append(points, point{fmt.Sprintf("before record %d", k),
					&vfs.Rule{Op: vfs.OpWrite, Path: "wal-", N: k, Crash: true}})
			}
			points = append(points,
				point{"in the commit sync", &vfs.Rule{Op: vfs.OpSync, Path: "wal-", Crash: true}},
				point{"after the commit", nil})
			for _, pt := range points {
				for _, powerLoss := range []bool{true, false} {
					name := pt.name + ", process kill"
					if powerLoss {
						name = pt.name + ", power loss"
					}
					t.Run(name, func(t *testing.T) { crashAndRestart(t, tc, eps, pt.rule, powerLoss) })
				}
			}
		})
	}
}

func crashAndRestart(t *testing.T, tc crashCase, eps float64, rule *vfs.Rule, powerLoss bool) {
	total, perAnalyst := tc.budgets()
	_, ts, fsys, dir := faultLedgerServer(t, total, perAnalyst)
	if tc.setup != nil {
		tc.setup(t, ts.URL)
	}
	if rule != nil {
		fsys.Inject(*rule)
	}
	resp, clientBody := tc.do(t, ts.URL)
	acked := resp.StatusCode == tc.status()
	if !acked && bytes.Contains(clientBody, []byte(`"values"`)) {
		t.Fatalf("a %d response carries result bytes: %s", resp.StatusCode, clientBody)
	}
	seen := tc.seen(t, ts.URL, acked, eps)
	ts.Close()
	if powerLoss {
		if err := fsys.SimulateCrash(); err != nil {
			t.Fatal(err)
		}
	}

	// What the directory holds.
	st, rec, err := ledger.Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay: %v (%+v)", err, rec)
	}
	replayed := st.Datasets["hotspot"].Spent[tc.analyst]
	_, hasReply := st.Idem[tc.idemKey]
	windows, windowEps := 0, 0.0
	for _, sq := range st.Standing {
		for _, w := range sq.Windows {
			windows++
			windowEps += w.Charged
		}
	}
	if hasReply && replayed < eps-1e-9 {
		t.Fatalf("replay holds the reply without its charge: spent %v of %v", replayed, eps)
	}
	if windowEps > replayed+1e-9 {
		t.Fatalf("replay holds %d window results (ε %v) without their charge (spent %v)", windows, windowEps, replayed)
	}
	if replayed < seen-1e-9 {
		t.Fatalf("the client has seen results worth ε=%v, the ledger replays only %v", seen, replayed)
	}
	if tc.appends > 0 && hasReply {
		t.Fatal("an ingest ACK was journaled: it would outlive the records it acknowledges")
	}
	if tc.appends == 0 && acked && (seen > 0 || tc.want != 0) && !hasReply {
		t.Fatalf("the client holds a %d (ε=%v) whose stored reply did not survive", resp.StatusCode, seen)
	}

	// Restart and retry with the same key, twice.
	led2 := openLedger(t, dir)
	defer led2.Close()
	s2, ts2 := ledgerServer(t, led2, total, perAnalyst)
	spent := func() float64 { return s2.datasets["hotspot"].policy.SpentBy(tc.analyst) }
	if got := spent(); math.Abs(got-replayed) > 1e-9 {
		t.Fatalf("restarted at spend %v, replay says %v", got, replayed)
	}
	resp1, body1 := tc.do(t, ts2.URL)
	if resp1.StatusCode != tc.status() {
		t.Fatalf("retry after restart: %d %s", resp1.StatusCode, body1)
	}
	if acked && !bytes.Equal(body1, clientBody) {
		t.Fatalf("retry did not replay the bytes the client already holds:\n was: %s\n now: %s", clientBody, body1)
	}
	if want, got := tc.retried(eps, replayed, hasReply), spent(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("retry left spend %v, want %v (replayed %v, reply stored: %v)", got, want, replayed, hasReply)
	}
	records := len(restartTrace()) + tc.appends
	if got := hostedRecords(t, ts2.URL, "hotspot"); got != records {
		t.Fatalf("retry after restart left %d records, want %d", got, records)
	}
	settled := spent()
	resp2, body2 := tc.do(t, ts2.URL)
	if resp2.StatusCode != tc.status() || !bytes.Equal(body2, body1) {
		t.Fatalf("second retry not byte-identical: %d %s", resp2.StatusCode, body2)
	}
	if got := spent(); got != settled {
		t.Fatalf("second retry charged again: %v -> %v", settled, got)
	}
	if got := hostedRecords(t, ts2.URL, "hotspot"); got != records {
		t.Fatalf("second retry left %d records, want %d", got, records)
	}
}

// A failed commit fsync: the result is withheld (503, no result bytes),
// the charge stands, the ledger degrades, and the key is not served
// from the idempotency cache — neither to a retry nor to a duplicate.
func TestCommitSyncFailureWithholdsResult(t *testing.T) {
	s, ts, fsys, dir := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	req := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1, IdempotencyKey: "k1"}

	resp, body := postV1(t, ts.URL+"/v1/query", req, nil)
	var e apiError
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &e) != nil ||
		e.Code != codeLedgerRefused || !e.Retryable {
		t.Fatalf("commit failure answered %d %s, want a retryable 503 ledger_refused", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("values")) {
		t.Fatalf("withheld response carries result bytes: %s", body)
	}
	if got := s.datasets["hotspot"].policy.SpentBy("alice"); got != 0.1 {
		t.Fatalf("charge did not stand across the failed commit: spent %v, want 0.1", got)
	}
	if s.ledger.Degraded() == nil {
		t.Fatal("a failed commit fsync must degrade the ledger")
	}
	// The retry is shed by the degraded gate, not answered from cache.
	resp, body = postV1(t, ts.URL+"/v1/query", req, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retry of a withheld result: %d %s", resp.StatusCode, body)
	}
	if hits := s.metrics.Counter("dp_idem_hits_total").Value(); hits != 0 {
		t.Fatalf("the withheld outcome was served from the idempotency cache %v times", hits)
	}
	// The execution's one wide event says what was served.
	evs := eventsNamed(s, "query")
	if len(evs) != 1 {
		t.Fatalf("%d query events, want 1", len(evs))
	}
	if status := fieldValue(evs[0], "status"); status != http.StatusServiceUnavailable {
		t.Fatalf("query event status %v, want 503", status)
	}
	// Over-count only: whatever the disk kept is at most the live spend.
	if st, _, err := ledger.Replay(dir, 0); err != nil || st.Datasets["hotspot"].Spent["alice"] > 0.1+1e-9 {
		t.Fatalf("replay after failed commit: %v, spent %v", err, st.Datasets["hotspot"].Spent["alice"])
	}
}

// A write fault that hits a request's audit record, after its charge was
// staged, does not withhold the result: the charge is intact in the WAL,
// the commit makes it durable, and the audit record was best-effort all
// along. (Only new charges are refused from then on.)
func TestWriteFaultAfterChargeStillCommits(t *testing.T) {
	s, ts, fsys, dir := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", N: 2, Err: syscall.EIO, Sticky: true})
	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query whose audit record hit EIO: %d %s, want the paid-for 200", resp.StatusCode, body)
	}
	if s.ledger.Degraded() == nil {
		t.Fatal("the write fault should have degraded the ledger")
	}
	st, _, err := ledger.Replay(dir, 0)
	if err != nil || st.Datasets["hotspot"].Spent["alice"] != 0.1 {
		t.Fatalf("replay: %v, spent %v, want the released answer's 0.1", err, st.Datasets["hotspot"].Spent["alice"])
	}
	resp, _ = postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("next spend on the degraded ledger: %d, want 503", resp.StatusCode)
	}
}

// A quorum that never acks: the records are durable locally, the
// client gets a 503 with no result bytes, the charge stands, nothing is
// cached for the key.
func TestAckTimeoutWithholdsResult(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ledA, err := ledger.Open(ledger.Options{Dir: dirA, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ledA.Close()
	sA := New(noise.NewSeededSource(1, 2), WithLedger(ledA))
	if err := sA.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.StartReplication(ReplicationConfig{
		Listen: ln, MinSync: 1, AckTimeout: 200 * time.Millisecond, Name: "a",
	}); err != nil {
		t.Fatal(err)
	}
	defer sA.CloseReplication()
	tsA := httptest.NewServer(sA.Handler())
	defer tsA.Close()

	// The standby's disk dies at its next fsync: it receives the
	// request's records, cannot make them durable, and never acks.
	fsysB := vfs.NewFaultFS(nil)
	ledB, err := ledger.Open(ledger.Options{Dir: dirB, FS: fsysB, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ledB.Close()
	sB := New(noise.NewSeededSource(3, 4), WithLedger(ledB))
	if err := sB.StartReplication(ReplicationConfig{Follow: ln.Addr().String(), Name: "b"}); err != nil {
		t.Fatal(err)
	}
	defer sB.CloseReplication()
	waitFor(t, 5*time.Second, func() bool {
		return sA.replPrimaryHandle().Connected() == 1 && ledB.CommittedSeq() == ledA.CommittedSeq()
	}, "standby catch-up")
	fsysB.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO, Sticky: true})

	req := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1, IdempotencyKey: "k1"}
	resp, body := postV1(t, tsA.URL+"/v1/query", req, nil)
	var e apiError
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &e) != nil ||
		e.Code != codeLedgerRefused || !e.Retryable {
		t.Fatalf("ack timeout answered %d %s, want a retryable 503 ledger_refused", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("values")) {
		t.Fatalf("withheld response carries result bytes: %s", body)
	}
	if got := sA.datasets["hotspot"].policy.SpentBy("alice"); got != 0.1 {
		t.Fatalf("charge did not stand across the ack timeout: spent %v, want 0.1", got)
	}
	if ledA.Degraded() != nil {
		t.Fatalf("an ack timeout is not local damage, yet the ledger degraded: %v", ledA.Degraded())
	}
	// Locally the request's records are all durable, in order.
	st, _, err := ledger.Replay(dirA, 0)
	if err != nil || st.Datasets["hotspot"].Spent["alice"] != 0.1 {
		t.Fatalf("primary replay: %v, spent %v", err, st.Datasets["hotspot"].Spent["alice"])
	}
	// One quorum wait for the whole request, stamped on its event.
	evs := eventsNamed(sA, "query")
	if len(evs) != 1 {
		t.Fatalf("%d query events, want 1", len(evs))
	}
	if wait, _ := fieldValue(evs[0], "quorum_wait_ms").(float64); wait < 150 {
		t.Fatalf("quorum_wait_ms = %v, want about the 200ms ack timeout", wait)
	}
	// The retry re-executes or is refused for lack of quorum — it is not
	// served the withheld bytes.
	postV1(t, tsA.URL+"/v1/query", req, nil)
	if hits := sA.metrics.Counter("dp_idem_hits_total").Value(); hits != 0 {
		t.Fatalf("the withheld outcome was served from the idempotency cache %v times", hits)
	}
}

// Eight analysts spending at once on one ledger share fsyncs — strictly
// fewer syncs than requests — and the directory still replays every
// ACKed spend exactly once.
func TestConcurrentSpendersShareSyncs(t *testing.T) {
	s, ts, fsys, dir := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	const workers, perG, eps = 8, 20, 0.01
	syncs := fsys.Counts()[vfs.OpSync]
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
					Analyst: fmt.Sprintf("a%d", g), Dataset: "hotspot", Query: "count", Epsilon: eps,
					IdempotencyKey: fmt.Sprintf("k-%d-%d", g, i),
				}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("spend %d/%d: %d %s", g, i, resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	spends := workers * perG
	if got := fsys.Counts()[vfs.OpSync] - syncs; got >= spends {
		t.Fatalf("%d syncs for %d concurrent spends: no commit was shared", got, spends)
	}
	// dp_ledger_commit_records saw the sharing: fewer commits than spends,
	// three records per spend in total.
	h := s.metrics.Histogram("dp_ledger_commit_records", nil)
	if h.Count() >= uint64(spends)+1 || h.Sum() != float64(3*spends+1) {
		t.Fatalf("dp_ledger_commit_records: %d commits of %v records, want < %d commits of %d records",
			h.Count(), h.Sum(), spends+1, 3*spends+1)
	}

	charges := map[string]int{}
	replies := 0
	if err := ledger.Events(dir, func(ev ledger.Event) error {
		switch ev.Type {
		case ledger.EventCharge:
			charges[ev.Analyst]++
		case ledger.EventIdemReply:
			replies++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		if n := charges[fmt.Sprintf("a%d", g)]; n != perG {
			t.Fatalf("analyst a%d: %d charge records, want %d (each ACKed spend exactly once)", g, n, perG)
		}
	}
	st, _, err := ledger.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replies != spends || len(st.Idem) != spends {
		t.Fatalf("%d reply records, %d stored keys, want %d each", replies, len(st.Idem), spends)
	}
	if got := st.Datasets["hotspot"].TotalSpent; math.Abs(got-float64(spends)*eps) > 1e-9 {
		t.Fatalf("replayed total %v, want %v", got, float64(spends)*eps)
	}
}

// A keyed duplicate waiting on the leader's execution is a release too:
// it wakes only after the leader's commit, and a failed commit hands it
// nothing to replay.
func TestDuplicateGetsNothingFromFailedCommit(t *testing.T) {
	s, ts, fsys, _ := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	// Hold the leader inside its execution until the duplicate has been
	// admitted behind the same key.
	proceed := make(chan struct{})
	s.execHook = func(context.Context) { <-proceed }
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	req := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1, IdempotencyKey: "k1"}

	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body, err := tryPostV1(ts.URL+"/v1/query", req)
			if err != nil {
				t.Error(err)
				replies <- reply{}
				return
			}
			replies <- reply{resp.StatusCode, body}
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return s.inflightGauge.Load() == 2 }, "both requests admitted")
	close(proceed)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusServiceUnavailable || bytes.Contains(r.body, []byte("values")) {
			t.Fatalf("request %d got %d %s, want a 503 without result bytes", i, r.status, r.body)
		}
	}
	if hits := s.metrics.Counter("dp_idem_hits_total").Value(); hits != 0 {
		t.Fatalf("a duplicate was served the withheld outcome (%v cache hits)", hits)
	}
	if got := s.datasets["hotspot"].policy.SpentBy("alice"); got != 0.1 {
		t.Fatalf("spent %v, want exactly the leader's standing charge 0.1", got)
	}
}

// The windows a batch closes are journaled inside the ingest apply but
// published — ring, long-poll, wide event — only by the request's
// commit; when that commit fails they stay invisible while their
// charges stand.
func TestWindowResultsWaitForCommit(t *testing.T) {
	s, ts, fsys, _ := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	resp, body := postV1(t, ts.URL+"/v1/standing/hotspot", api.StandingRequest{
		Analyst: "mon", ID: "sq", Query: "count", Epsilon: 0.1, Reservation: 1,
		Window: api.StandingWindow{Width: 20},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	// A healthy batch closing two windows: one commit, both published,
	// each window's event stamped with what staging and the commit cost.
	syncs := fsys.Counts()[vfs.OpSync]
	if resp, body := postIngestKeyed(t, ts.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(40)), "probe", "1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if got := fsys.Counts()[vfs.OpSync] - syncs; got != 1 {
		t.Fatalf("a batch closing 2 windows with a keyed ACK used %d syncs, want 1", got)
	}
	results, out := standingResults(t, ts.URL, "hotspot", "sq")
	if len(results) != 2 || out.NextWindow != 2 {
		t.Fatalf("after the commit: %d results, cursor %d, want 2 and 2", len(results), out.NextWindow)
	}
	for _, name := range []string{"standing_window", "ingest"} {
		evs := eventsNamed(s, name)
		if want := map[string]int{"standing_window": 2, "ingest": 1}[name]; len(evs) != want {
			t.Fatalf("%d %s events, want %d", len(evs), name, want)
		}
		for _, key := range []string{"stage_ms", "commit_fsync_ms", "quorum_wait_ms"} {
			if fieldValue(evs[0], key) == nil {
				t.Fatalf("%s event lacks %s: %+v", name, key, evs[0])
			}
		}
	}

	// The next batch's commit fsync fails: the ACK is withheld, the two
	// windows it closed stay unpublished, their charges stand.
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	resp, body = postIngestKeyed(t, ts.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(40)), "probe", "2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with a failed commit: %d %s, want 503", resp.StatusCode, body)
	}
	results, out = standingResults(t, ts.URL, "hotspot", "sq")
	if len(results) != 2 || out.NextWindow != 2 {
		t.Fatalf("uncommitted windows are visible: %d results, cursor %d", len(results), out.NextWindow)
	}
	if evs := eventsNamed(s, "standing_window"); len(evs) != 2 {
		t.Fatalf("%d standing_window events, want the 2 committed ones", len(evs))
	}
	if got := s.datasets["hotspot"].policy.SpentBy("mon"); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("window charges did not stand: spent %v, want 0.4", got)
	}
}
