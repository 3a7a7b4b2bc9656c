package dpserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func testServer(t *testing.T, total, perAnalyst float64) *httptest.Server {
	t.Helper()
	_, ts := hotspotServer(t, total, perAnalyst)
	return ts
}

// hotspotServer hosts a small hotspot trace as "hotspot".
func hotspotServer(t *testing.T, total, perAnalyst float64) (*Server, *httptest.Server) {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 300
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	packets, _ := tracegen.Hotspot(cfg)
	s := New(noise.NewSeededSource(1, 2))
	s.AddPacketTrace("hotspot", packets, total, perAnalyst)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req api.QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServerCountQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	port := 80
	resp, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count",
		Epsilon: 1.0, Filter: &api.Filter{DstPort: &port},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Values) != 1 || qr.Values[0] < 100 {
		t.Fatalf("implausible count response: %+v", qr)
	}
	if math.Abs(qr.NoiseStd-math.Sqrt2) > 1e-9 {
		t.Errorf("noiseStd %v, want sqrt(2)", qr.NoiseStd)
	}
	if math.Abs(qr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", qr.Spent)
	}
}

func TestServerHostsQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	port := 80
	resp, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts",
		Epsilon: 0.5, Filter: &api.Filter{DstPort: &port}, MinBytes: 1024,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// GroupBy doubles: 0.5 query spends 1.0.
	if math.Abs(qr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", qr.Spent)
	}
}

func TestServerCDFQueries(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	for _, kind := range []string{"lencdf", "portcdf"} {
		resp, body := postQuery(t, ts, api.QueryRequest{
			Analyst: "bob", Dataset: "hotspot", Query: kind, Epsilon: 1.0,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", kind, resp.StatusCode, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Values) == 0 || len(qr.Values) != len(qr.Buckets) {
			t.Fatalf("%s: %d values, %d buckets", kind, len(qr.Values), len(qr.Buckets))
		}
	}
}

func TestServerBudgetRefusal(t *testing.T) {
	ts := testServer(t, math.Inf(1), 1.0)
	ok, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d: %s", ok.StatusCode, body)
	}
	refused, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if refused.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget status %d: %s", refused.StatusCode, body)
	}
	var er apiError
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != codeBudgetExhausted || math.Abs(er.Remaining-0.2) > 1e-9 {
		t.Errorf("remaining %v, want 0.2", er.Remaining)
	}
	// A different analyst is unaffected.
	other, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("bob's query status %d: %s", other.StatusCode, body)
	}
}

func TestServerSharedTotalAcrossAnalysts(t *testing.T) {
	ts := testServer(t, 1.0, math.Inf(1))
	if resp, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.7,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postQuery(t, ts, api.QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.7,
	}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("shared total not enforced: status %d", resp.StatusCode)
	}
}

func TestServerValidation(t *testing.T) {
	ts := testServer(t, 1, 1)
	cases := []struct {
		req  api.QueryRequest
		want int
	}{
		{api.QueryRequest{Dataset: "hotspot", Query: "count", Epsilon: 1}, http.StatusBadRequest},          // no analyst
		{api.QueryRequest{Analyst: "a", Query: "count", Epsilon: 1}, http.StatusBadRequest},                // no dataset
		{api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: "count"}, http.StatusBadRequest},        // no epsilon
		{api.QueryRequest{Analyst: "a", Dataset: "nope", Query: "count", Epsilon: 1}, http.StatusNotFound}, // unknown dataset
		{api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: "zap", Epsilon: 1}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postQuery(t, ts, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status %d, want %d (%s)", i, resp.StatusCode, c.want, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d", resp.StatusCode)
	}
}

// TestServerDatasetsAndBudgetEndpoints: /v1/datasets lists every
// hosted dataset with its record count and budget state, and
// /v1/budget answers for each.
func TestServerDatasetsAndBudgetEndpoints(t *testing.T) {
	s, ts := hotspotServer(t, 5.0, 2.0)
	live := ingestPkts(40)
	if err := s.AddPacketTrace("live", live, 3.0, 1.0); err != nil {
		t.Fatal(err)
	}
	for _, req := range []api.QueryRequest{
		{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 1.0},
		{Analyst: "bob", Dataset: "live", Query: "count", Epsilon: 0.25},
	} {
		if resp, body := postQuery(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", req.Dataset, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []api.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 {
		t.Fatalf("datasets: %+v", infos)
	}
	for i, want := range []struct {
		name    string
		records int
		spent   float64
	}{{"hotspot", int(s.datasets["hotspot"].watermark), 1.0}, {"live", len(live), 0.25}} {
		if got := infos[i]; got.Name != want.name || got.Records != want.records || got.TotalSpent != want.spent {
			t.Errorf("dataset %d: %+v, want %s, %d records, %v spent", i, got, want.name, want.records, want.spent)
		}
	}
	if math.Abs(infos[0].TotalSpent-1.0) > 1e-9 || math.Abs(infos[0].TotalRemaining-4.0) > 1e-9 {
		t.Errorf("budget state: %+v", infos[0])
	}

	for _, c := range []struct {
		dataset, analyst string
		spent, remaining float64
	}{{"hotspot", "alice", 1.0, 1.0}, {"live", "bob", 0.25, 0.75}, {"live", "alice", 0, 1.0}} {
		resp, body := getBody(t, ts.URL+"/v1/budget?dataset="+c.dataset+"&analyst="+c.analyst)
		var budget map[string]float64
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &budget) != nil {
			t.Fatalf("%s budget: %d %s", c.dataset, resp.StatusCode, body)
		}
		if math.Abs(budget["spent"]-c.spent) > 1e-9 || math.Abs(budget["remaining"]-c.remaining) > 1e-9 {
			t.Errorf("%s budget of %s: %v, want spent %v, remaining %v", c.dataset, c.analyst, budget, c.spent, c.remaining)
		}
	}
}

func TestServerConcurrentAnalysts(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				body, _ := json.Marshal(api.QueryRequest{
					Analyst: fmt.Sprintf("analyst-%d", id),
					Dataset: "hotspot", Query: "count", Epsilon: 0.5,
				})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFilterMatching(t *testing.T) {
	p := trace.Header{DstPort: 80, SrcPort: 1234, Len: 100, Proto: trace.ProtoTCP}
	intp := func(v int) *int { return &v }
	cases := []struct {
		f    *api.Filter
		want bool
	}{
		{nil, true},
		{&api.Filter{}, true},
		{&api.Filter{DstPort: intp(80)}, true},
		{&api.Filter{DstPort: intp(443)}, false},
		{&api.Filter{SrcPort: intp(1234), MinLen: intp(50)}, true},
		{&api.Filter{MinLen: intp(200)}, false},
		{&api.Filter{Proto: intp(trace.ProtoUDP)}, false},
	}
	for i, c := range cases {
		if got := c.f.MatchHeader(&p); got != c.want {
			t.Errorf("case %d: match = %v, want %v", i, got, c.want)
		}
	}
}

func TestServerFlowQueries(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	for _, kind := range []string{"rttcdf", "losscdf"} {
		resp, body := postQuery(t, ts, api.QueryRequest{
			Analyst: "carol", Dataset: "hotspot", Query: kind, Epsilon: 1.0,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", kind, resp.StatusCode, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Values) == 0 || len(qr.Values) != len(qr.Buckets) {
			t.Fatalf("%s: %d values, %d buckets", kind, len(qr.Values), len(qr.Buckets))
		}
		// The derived statistics cost 2x (self-join / GroupBy).
		if qr.Spent < 2.0-1e-9 {
			t.Errorf("%s: spent %v, want >= 2.0", kind, qr.Spent)
		}
	}
}

func TestServerMedianQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	resp, body := postQuery(t, ts, api.QueryRequest{
		Analyst: "dave", Dataset: "hotspot", Query: "medianlen", Epsilon: 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Values) != 1 || qr.Values[0] < 40 || qr.Values[0] > 1500 {
		t.Fatalf("implausible median length: %+v", qr)
	}
}

// errInjected is an execution failure a test injects through the
// execPacket seam: a well-formed query that fails while it executes.
var errInjected = errors.New("injected execution failure")

// failQueriesBy makes every query by analyst fail in execution, before
// it charges, with errInjected; other analysts' queries run as served.
// Call it before the server takes requests.
func failQueriesBy(s *Server, analyst string) {
	s.execPacket = func(q *core.Queryable[trace.Header], k *queryKind, req *api.QueryRequest) (*api.QueryResponse, error) {
		if req.Analyst == analyst {
			return nil, errInjected
		}
		return runKind(q, k, req)
	}
}

func TestAuditLedger(t *testing.T) {
	s, ts := hotspotServer(t, math.Inf(1), 1.0)
	failQueriesBy(s, "bob")
	// One ok query (GroupBy: charged 2x epsilon), one refusal, one error.
	_, _ = postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.4,
	})
	_, _ = postQuery(t, ts, api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.9,
	})
	_, _ = postQuery(t, ts, api.QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	})

	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	var entries []AuditEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 3 {
		t.Fatalf("got %d audit entries, want 3", len(entries))
	}
	if entries[0].Outcome != "ok" || math.Abs(entries[0].Charged-0.8) > 1e-9 {
		t.Errorf("first entry: %+v (want ok, charged 0.8)", entries[0])
	}
	if entries[1].Outcome != "refused" || entries[1].Charged != 0 {
		t.Errorf("second entry: %+v (want refused, charged 0)", entries[1])
	}
	if entries[2].Outcome != "error" || entries[2].Charged != 0 {
		t.Errorf("third entry: %+v (want error, charged 0)", entries[2])
	}

	// Filtered view.
	resp, err = http.Get(ts.URL + "/v1/audit?analyst=bob")
	if err != nil {
		t.Fatal(err)
	}
	entries = nil
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 1 || entries[0].Analyst != "bob" {
		t.Fatalf("filtered audit: %+v", entries)
	}

	// An entry records the charge the request made, as its own agent
	// applied it: exactly 0.2 after a 0.1 charge, where the difference
	// of the analyst's running totals is not (0.1 + 0.2 − 0.1 is not
	// 0.2 in floats).
	for _, eps := range []float64{0.1, 0.2} {
		resp, body := postQuery(t, ts, api.QueryRequest{Analyst: "carol", Dataset: "hotspot", Query: "count", Epsilon: eps})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("count at %v: %d %s", eps, resp.StatusCode, body)
		}
	}
	_, body := getBody(t, ts.URL+"/v1/audit?analyst=carol")
	entries = nil
	if err := json.Unmarshal(body, &entries); err != nil || len(entries) != 2 {
		t.Fatalf("carol's audit: %v %s", err, body)
	}
	if last := entries[1]; last.Charged != 0.2 || last.Outcome != "ok" {
		t.Errorf("audit entry %+v, want charged 0.2", last)
	}
}

// TestAuditChargedPerRequest: two requests by one analyst in flight at
// once each record their own charge — in the audit trail the ledger
// keeps, in their "query" wide events and in their profiles — however
// their charges interleave on the analyst's shared budget.
func TestAuditChargedPerRequest(t *testing.T) {
	s, ts := ledgerServer(t, openLedger(t, t.TempDir()), math.Inf(1), math.Inf(1))
	held, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failing test must not leave the held request blocking the server's Close
	s.execPacket = func(q *core.Queryable[trace.Header], k *queryKind, req *api.QueryRequest) (*api.QueryResponse, error) {
		if req.Epsilon == 0.25 {
			close(held)
			<-gate
		}
		return runKind(q, k, req)
	}
	query := func(eps float64) (int, error) {
		body, _ := json.Marshal(api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: eps})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	type answer struct {
		status int
		err    error
	}
	first := make(chan answer, 1)
	go func() {
		status, err := query(0.25)
		first <- answer{status, err}
	}()
	select {
	case <-held: // the 0.25 count is inside its execution, not yet charged
	case a := <-first:
		t.Fatalf("0.25 count answered without executing: %d %v", a.status, a.err)
	}
	if status, err := query(0.5); err != nil || status != http.StatusOK {
		t.Fatalf("0.5 count: %d %v", status, err)
	}
	release()
	if a := <-first; a.err != nil || a.status != http.StatusOK {
		t.Fatalf("0.25 count: %d %v", a.status, a.err)
	}

	var sum float64
	for _, e := range s.Audit() {
		if e.Charged != e.Epsilon {
			t.Errorf("audit entry at ε %v records charged %v", e.Epsilon, e.Charged)
		}
		sum += e.Charged
	}
	if spent := s.datasets["hotspot"].policy.SpentBy("alice"); sum != spent {
		t.Errorf("audit charges sum to %v, the analyst spent %v", sum, spent)
	}
	events := eventsNamed(s, "query")
	if len(events) != 2 {
		t.Fatalf("got %d query events, want 2", len(events))
	}
	for _, e := range events {
		eps := fieldValue(e, "epsilon").(float64)
		if got := fieldValue(e, "charged_epsilon").(float64); got != eps {
			t.Errorf("query event at ε %v: charged_epsilon %v", eps, got)
		}
		prof := fieldValue(e, "profile").(*obs.Profile)
		if len(prof.Aggs) != 1 || prof.Aggs[0].EpsilonCharged != eps {
			t.Errorf("query event at ε %v: profile aggs %+v, want one row charging %v", eps, prof.Aggs, eps)
		}
	}
}

// TestMalformedQueryStagesNothing: a query the kind table refuses — an
// unknown kind, a bucketStep wider than the kind's domain, srcfreq
// without its key (idempotency-keyed) — is answered 400 at the door:
// nothing is staged in the ledger, audited, counted among the
// analyst's queries, or emitted as a "query" event.
func TestMalformedQueryStagesNothing(t *testing.T) {
	led := openLedger(t, t.TempDir())
	s, ts := ledgerServer(t, led, math.Inf(1), math.Inf(1))
	if resp, body := postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("count: %d %s", resp.StatusCode, body)
	}
	queries := func() int {
		_, body := getBody(t, ts.URL+"/v1/datasets")
		var infos []api.DatasetInfo
		if err := json.Unmarshal(body, &infos); err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			for _, u := range info.Analysts {
				if info.Name == "hotspot" && u.Analyst == "alice" {
					return u.Queries
				}
			}
		}
		t.Fatalf("no usage row for alice: %s", body)
		return 0
	}
	audited := func() []byte {
		_, body := getBody(t, ts.URL+"/v1/audit")
		return body
	}
	seq, audit, count, events := led.StagedSeq(), audited(), queries(), len(eventsNamed(s, "query"))
	for _, req := range []api.QueryRequest{
		{Query: "bogus"},
		{Query: "lencdf", BucketStep: 2000},
		{Query: "srcfreq", IdempotencyKey: "k1"},
	} {
		req.Analyst, req.Dataset, req.Epsilon = "alice", "hotspot", 0.1
		resp, body := postQuery(t, ts, req)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Code != "bad_request" {
			t.Errorf("%s: %d %s, want 400 bad_request", req.Query, resp.StatusCode, body)
		}
		if got := led.StagedSeq(); got != seq {
			t.Errorf("%s: the ledger staged through seq %d, was %d", req.Query, got, seq)
		}
		if got := audited(); !bytes.Equal(got, audit) {
			t.Errorf("%s: /v1/audit moved: %s", req.Query, got)
		}
		if got := queries(); got != count {
			t.Errorf("%s: /v1/datasets counts %d queries for alice, was %d", req.Query, got, count)
		}
		if got := len(eventsNamed(s, "query")); got != events {
			t.Errorf("%s: %d query events, was %d", req.Query, got, events)
		}
	}
}

// TestAuditLogBounded: a server's audit trail, the ledger's fold, keeps
// at most ledger.AuditCap entries however many are recorded.
func TestAuditLogBounded(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	for i := 0; i < 2*ledger.AuditCap+5; i++ {
		s.recordAudit(&queryOutcome{analyst: "a", outcome: "ok"})
	}
	if got := len(s.Audit()); got > ledger.AuditCap {
		t.Fatalf("audit log grew to %d entries, cap %d", got, ledger.AuditCap)
	}
}

// TestServerParallelExecutionDeterminism is the end-to-end half of the
// engine's determinism guarantee: two servers over the same trace and
// noise seed, one sequential and one on four workers at threshold 1,
// must return byte-identical query results and identical budget
// state; and the parallel server must actually have taken the
// parallel path (visible in dp_parallel_exec_total).
func TestServerParallelExecutionDeterminism(t *testing.T) {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 500
	packets, _ := tracegen.Hotspot(cfg)

	// hosts folds in one ordered range whatever the worker count; lencdf's
	// Partition pass is the one that runs per worker range.
	run := func(parallel bool) ([]api.QueryResponse, float64, *Server) {
		s := New(noise.NewSeededSource(21, 22))
		s.exec = core.ExecOptions{}
		if parallel {
			// Threshold 1 so the modest test trace exercises the
			// parallel strategies.
			s.exec = core.ExecOptions{Workers: 4, Threshold: 1}
		}
		if err := s.AddPacketTrace("hotspot", packets, math.Inf(1), math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		port := 80
		var out []api.QueryResponse
		for _, kind := range []string{"hosts", "lencdf"} {
			body, _ := json.Marshal(api.QueryRequest{
				Analyst: "alice", Dataset: "hotspot", Query: kind,
				Epsilon: 0.5, Filter: &api.Filter{DstPort: &port}, MinBytes: 512,
			})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", kind, resp.StatusCode)
			}
			var qr api.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			out = append(out, qr)
		}
		return out, s.datasets["hotspot"].policy.SpentBy("alice"), s
	}

	before := core.ParallelExecutions()
	seq, seqSpent, _ := run(false)
	mid := core.ParallelExecutions()
	if mid != before {
		t.Fatalf("sequential server took a parallel path (%d executions)", mid-before)
	}
	par, parSpent, ps := run(true)
	if core.ParallelExecutions() == mid {
		t.Fatal("parallel server never took a parallel path")
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Values, par[i].Values) {
			t.Fatalf("parallel result differs: seq %v, par %v", seq[i].Values, par[i].Values)
		}
	}
	if seqSpent != parSpent {
		t.Fatalf("budget charge differs: seq %v, par %v", seqSpent, parSpent)
	}

	// The parallel-execution counter is exposed for owner dashboards.
	rec := httptest.NewRecorder()
	ps.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte("dp_parallel_exec_total")) {
		t.Fatal("metrics exposition missing dp_parallel_exec_total")
	}
}
