package dpserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/tracegen"
)

// obsServer is like testServer but also returns the Server so tests
// can compare scraped telemetry against in-process ground truth.
func obsServer(t *testing.T, total, perAnalyst float64, opts ...HandlerOption) (*Server, *httptest.Server) {
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
	if err := s.AddPacketTrace("hotspot", packets, total, perAnalyst); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(opts...))
	t.Cleanup(ts.Close)
	return s, ts
}

func scrapeText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func scrapeJSON(t *testing.T, ts *httptest.Server) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// gaugeValue finds one gauge by name and label subset; fails the test
// if absent.
func gaugeValue(t *testing.T, snap *obs.Snapshot, name string, labels map[string]string) float64 {
	t.Helper()
	for _, g := range snap.Gauges {
		if g.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if g.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return g.Value
		}
	}
	t.Fatalf("gauge %s%v not in snapshot", name, labels)
	return 0
}

// TestMetricsEndpointEndToEnd is the tentpole acceptance test: run a
// mix of queries against a live server, scrape GET /metrics, and
// assert every advertised family is present with the right values —
// then query again and assert the scraped values move.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	srv, ts := obsServer(t, 10.0, 1.0)

	// alice: two ok queries (0.5 + 2×0.2 charged = 0.9 spent), then a
	// refusal (0.7 > 0.1 remaining); bob: an invalid query kind.
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.2})
	if resp, _ := postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.7}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget query status %d, want 403", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "bogus", Epsilon: 0.1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus query status %d, want 400", resp.StatusCode)
	}

	text := scrapeText(t, ts)
	// Per-endpoint request counters, labeled by response code.
	for _, want := range []string{
		`dpserver_requests_total{code="200",endpoint="/query"} 2`,
		`dpserver_requests_total{code="403",endpoint="/query"} 1`,
		`dpserver_requests_total{code="400",endpoint="/query"} 1`,
		// Latency histogram saw all four requests.
		`dpserver_request_seconds_count{endpoint="/query"} 4`,
		// Per-operator engine rows: the filter is a fused stage, so it
		// runs only under a scan — the two ok queries, not the refused
		// or the bogus one — and hosts adds GroupBy plus the heaviness
		// Where.
		`dp_op_duration_seconds_count{op="where"} 3`,
		`dp_op_duration_seconds_count{op="groupby"} 1`,
		// Aggregation outcomes: count ok twice, refused once.
		`dp_agg_total{agg="count",outcome="ok"} 2`,
		`dp_agg_total{agg="count",outcome="refused"} 1`,
		`dp_agg_duration_seconds_count{agg="count"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Histogram families render cumulative le buckets.
	if !strings.Contains(text, `dp_op_duration_seconds_bucket{op="where",le="+Inf"} 3`) {
		t.Errorf("scrape missing the +Inf where bucket")
	}
	// Records-in/out counters exist for the instrumented operators.
	for _, prefix := range []string{
		`dp_op_records_in_total{op="where"}`,
		`dp_op_records_out_total{op="groupby"}`,
	} {
		if !strings.Contains(text, prefix) {
			t.Errorf("scrape missing %q series", prefix)
		}
	}

	// Budget gauges equal the policy's own view, exactly.
	snap := scrapeJSON(t, ts)
	d := srv.datasets["hotspot"]
	labels := map[string]string{"dataset": "hotspot"}
	if got := gaugeValue(t, snap, "dp_budget_total", labels); got != 10.0 {
		t.Errorf("dp_budget_total %v, want 10", got)
	}
	if got, want := gaugeValue(t, snap, "dp_budget_spent", labels), d.policy.TotalSpent(); got != want {
		t.Errorf("dp_budget_spent %v, policy says %v", got, want)
	}
	if got, want := gaugeValue(t, snap, "dp_budget_remaining", labels), d.policy.TotalRemaining(); got != want {
		t.Errorf("dp_budget_remaining %v, policy says %v", got, want)
	}
	// The ε-spend counter sums the ε successful aggregations asked
	// for (0.5 + 0.2); the charged total (0.9, GroupBy doubles) is the
	// gauges' business — the counter is for spend-rate alerting.
	spendSeen := false
	for _, c := range snap.Counters {
		if c.Name == "dp_budget_spend_total" {
			spendSeen = true
			if math.Abs(c.Value-0.7) > 1e-9 {
				t.Errorf("dp_budget_spend_total %v, want 0.7", c.Value)
			}
		}
	}
	if !spendSeen {
		t.Error("dp_budget_spend_total missing from snapshot")
	}
	// The audit-depth gauge matches the ledger.
	if got := gaugeValue(t, snap, "dpserver_audit_entries", nil); got != float64(srv.audit.len()) {
		t.Errorf("dpserver_audit_entries %v, ledger has %d", got, srv.audit.len())
	}

	// One more query: the scraped values move accordingly.
	postQuery(t, ts, QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	text = scrapeText(t, ts)
	for _, want := range []string{
		`dpserver_requests_total{code="200",endpoint="/query"} 3`,
		`dp_agg_total{agg="count",outcome="ok"} 3`,
		`dp_op_duration_seconds_count{op="where"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("after extra query, scrape missing %q", want)
		}
	}
	snap = scrapeJSON(t, ts)
	if got, want := gaugeValue(t, snap, "dp_budget_spent", labels), d.policy.TotalSpent(); got != want || want <= 0.9 {
		t.Errorf("dp_budget_spent %v after extra query, policy %v (want >0.9)", got, want)
	}
}

// TestTraceCarriesNoRecordCount: "trace":true hands the analyst a span
// per operator, and an operator's record count is a pre-noise value —
// distinctsrc's distinct row is the exact answer beside the noisy one.
// Every packet kind's spans carry only the labels below.
func TestTraceCarriesNoRecordCount(t *testing.T) {
	_, ts := obsServer(t, math.Inf(1), math.Inf(1))
	allowed := map[string]bool{"strategy": true, "workers": true, "outcome": true, "epsilon": true}
	for _, kind := range api.QueryKinds() {
		if kind.Dataset != "packet" {
			continue
		}
		resp, body := postQuery(t, ts, QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind.Name,
			Epsilon: 0.1, Key: "10.0.0.1", Trace: true})
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK || qr.Trace == nil {
			t.Fatalf("%s: status %d, %v: %s", kind.Name, resp.StatusCode, err, body)
		}
		if len(qr.Trace.Children) < 2 {
			t.Fatalf("%s: %d spans, want the operators and the aggregation", kind.Name, len(qr.Trace.Children))
		}
		for _, c := range qr.Trace.Children {
			for k, v := range c.Labels {
				if !allowed[k] {
					t.Errorf("%s: span %s carries %s=%s", kind.Name, c.Name, k, v)
				}
			}
		}
	}
}

// TestQueryTraceSpanTree covers the tracing acceptance criterion: a
// query with "trace":true returns a span tree naming each operator in
// the executed pipeline with non-zero durations, and the same trace
// lands in GET /debug/traces.
func TestQueryTraceSpanTree(t *testing.T) {
	_, ts := obsServer(t, math.Inf(1), math.Inf(1))
	resp, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts",
		Epsilon: 0.2, MinBytes: 1024, Trace: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("trace:true but no trace in response")
	}
	root := qr.Trace
	if root.Name != "query:hosts" {
		t.Errorf("root span %q, want query:hosts", root.Name)
	}
	for k, want := range map[string]string{
		"analyst": "alice", "dataset": "hotspot", "outcome": "ok",
	} {
		if root.Labels[k] != want {
			t.Errorf("root label %s=%q, want %q", k, root.Labels[k], want)
		}
	}
	if root.Duration <= 0 {
		t.Errorf("root duration %v, want > 0", root.Duration)
	}
	// The hosts pipeline is Where → GroupBy → Where → NoisyCount.
	var names []string
	for _, c := range root.Children {
		names = append(names, c.Name)
		if c.Duration <= 0 {
			t.Errorf("child %s duration %v, want > 0", c.Name, c.Duration)
		}
	}
	want := []string{"where", "groupby", "where", "aggregate:count"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("span children %v, want %v", names, want)
	}
	agg := root.Children[3]
	if agg.Labels["outcome"] != "ok" {
		t.Errorf("aggregate span outcome %q, want ok", agg.Labels["outcome"])
	}
	// The groupby's records out is the exact number of sources: the
	// analyst's trace must not carry it (TestTraceCarriesNoRecordCount).
	if l := root.Children[1].Labels; l["strategy"] == "" || l["records_in"] != "" || l["records_out"] != "" {
		t.Errorf("groupby span labels %v: want a strategy and no record counts", l)
	}

	// A traced response omitting "trace" still lands in the ring.
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1})
	httpResp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var spans []*obs.Span
	if err := json.NewDecoder(httpResp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if len(spans) != 2 {
		t.Fatalf("debug/traces has %d spans, want 2", len(spans))
	}
	// Newest first.
	if spans[0].Name != "query:count" || spans[1].Name != "query:hosts" {
		t.Errorf("trace order %q, %q; want count then hosts", spans[0].Name, spans[1].Name)
	}

	// ?n= limits; invalid n is a 400.
	httpResp, err = http.Get(ts.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	spans = nil
	if err := json.NewDecoder(httpResp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if len(spans) != 1 || spans[0].Name != "query:count" {
		t.Errorf("?n=1 returned %d spans", len(spans))
	}
	httpResp, err = http.Get(ts.URL + "/debug/traces?n=-3")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n status %d, want 400", httpResp.StatusCode)
	}
}

// TestAddTraceNameCollision is the satellite fix: re-registering any
// dataset kind under a taken name is refused, across kinds too.
func TestAddTraceNameCollision(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("d", nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPacketTrace("d", nil, 1, 1); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("packet/packet collision: %v, want ErrDatasetExists", err)
	}
	if err := s.AddLinkTrace("d", nil, 2, 2, 1, 1); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("link/packet collision: %v, want ErrDatasetExists", err)
	}
	if err := s.AddHopTrace("d", nil, 2, 1, 1); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("hop/packet collision: %v, want ErrDatasetExists", err)
	}
	if err := s.AddLinkTrace("links", nil, 2, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPacketTrace("links", nil, 1, 1); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("packet/link collision: %v, want ErrDatasetExists", err)
	}
}

// TestAuditEvictionConcurrent hammers the bounded ledger from many
// goroutines (run under -race) and checks the cap holds and the most
// recent entries survive eviction.
func TestAuditEvictionConcurrent(t *testing.T) {
	const logCap = 64
	l := newAuditLog(logCap, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.add(AuditEntry{Analyst: fmt.Sprintf("g%d", g), Epsilon: float64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := l.len(); got > logCap || got == 0 {
		t.Fatalf("ledger depth %d after concurrent writes, want 1..%d", got, logCap)
	}

	// Sequential markers: eviction must keep the newest entries in
	// arrival order.
	for i := 0; i < logCap; i++ {
		l.add(AuditEntry{Analyst: "marker", Epsilon: float64(i)})
	}
	snap := l.snapshot()
	if len(snap) > logCap {
		t.Fatalf("snapshot depth %d, cap %d", len(snap), logCap)
	}
	last := snap[len(snap)-1]
	if last.Analyst != "marker" || last.Epsilon != float64(logCap-1) {
		t.Fatalf("newest entry %+v, want the last marker", last)
	}
	// Markers appear as a contiguous, ordered suffix.
	firstMarker := -1
	for i, e := range snap {
		if e.Analyst == "marker" {
			firstMarker = i
			break
		}
	}
	for i, j := firstMarker, 0; i < len(snap); i, j = i+1, j+1 {
		if snap[i].Analyst != "marker" || snap[i].Epsilon != snap[firstMarker].Epsilon+float64(j) {
			t.Fatalf("marker suffix broken at %d: %+v", i, snap[i])
		}
	}
}

// TestConcurrentQueriesNeverOverspend races many analysts against one
// shared total budget and asserts the policy never over-commits and
// the exported gauges agree with the policy's own view.
func TestConcurrentQueriesNeverOverspend(t *testing.T) {
	srv, ts := obsServer(t, 2.0, math.Inf(1))
	const (
		analysts = 4
		queries  = 10
		eps      = 0.1
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, refused := 0, 0
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				resp, _ := postQuery(t, ts, QueryRequest{
					Analyst: fmt.Sprintf("analyst%d", a), Dataset: "hotspot",
					Query: "count", Epsilon: eps,
				})
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusForbidden:
					refused++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()

	d := srv.datasets["hotspot"]
	spent := d.policy.TotalSpent()
	if spent > 2.0+1e-9 {
		t.Fatalf("policy over-spent: %v > total 2.0", spent)
	}
	if refused == 0 {
		t.Errorf("4 ε requested against total 2: expected refusals, got none (%d ok)", ok)
	}
	if math.Abs(spent-float64(ok)*eps) > 1e-9 {
		t.Errorf("spent %v, but %d ok queries × %v = %v", spent, ok, eps, float64(ok)*eps)
	}

	// The exported gauges are the policy's view, not a shadow copy.
	snap := scrapeJSON(t, ts)
	labels := map[string]string{"dataset": "hotspot"}
	if got := gaugeValue(t, snap, "dp_budget_spent", labels); got != d.policy.TotalSpent() {
		t.Errorf("dp_budget_spent gauge %v, policy %v", got, d.policy.TotalSpent())
	}
	if got := gaugeValue(t, snap, "dp_budget_total", labels); got != 2.0 {
		t.Errorf("dp_budget_total gauge %v, want 2", got)
	}
	if got, want := gaugeValue(t, snap, "dp_budget_remaining", labels), d.policy.TotalRemaining(); got != want {
		t.Errorf("dp_budget_remaining gauge %v, policy %v", got, want)
	}
}

// TestDatasetsAnalystUsage covers the satellite surface: /datasets
// reports per-analyst charged-vs-requested totals from the ledger,
// reconciled with the policy's spent ground truth.
func TestDatasetsAnalystUsage(t *testing.T) {
	_, ts := obsServer(t, 10.0, 1.0)
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.25})
	postQuery(t, ts, QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 2.0}) // refused

	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || len(infos[0].Analysts) != 2 {
		t.Fatalf("got %+v, want 1 dataset with 2 analysts", infos)
	}
	alice, bob := infos[0].Analysts[0], infos[0].Analysts[1]
	if alice.Analyst != "alice" || bob.Analyst != "bob" {
		t.Fatalf("analysts not sorted: %+v", infos[0].Analysts)
	}
	if alice.Queries != 2 || math.Abs(alice.Requested-0.75) > 1e-9 {
		t.Errorf("alice usage %+v, want 2 queries, requested 0.75", alice)
	}
	// GroupBy doubles the hosts charge: 0.5 + 2×0.25 = 1.0.
	if math.Abs(alice.Charged-1.0) > 1e-9 || math.Abs(alice.Spent-alice.Charged) > 1e-9 {
		t.Errorf("alice charged %v spent %v, want both 1.0", alice.Charged, alice.Spent)
	}
	if bob.Queries != 1 || bob.Charged != 0 || bob.Spent != 0 || math.Abs(bob.Requested-2.0) > 1e-9 {
		t.Errorf("bob usage %+v, want 1 refused query, charged/spent 0, requested 2", bob)
	}
}

// TestAuditOutcomeAndLimitFilters covers the new /audit query params.
func TestAuditOutcomeAndLimitFilters(t *testing.T) {
	_, ts := obsServer(t, 10.0, 1.0)
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.9}) // refused
	postQuery(t, ts, QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.3})

	get := func(params string) []AuditEntry {
		t.Helper()
		resp, err := http.Get(ts.URL + "/audit" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /audit%s status %d", params, resp.StatusCode)
		}
		var entries []AuditEntry
		if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
			t.Fatal(err)
		}
		return entries
	}

	if entries := get("?outcome=refused"); len(entries) != 1 || entries[0].Epsilon != 0.9 {
		t.Errorf("outcome=refused: %+v", entries)
	}
	if entries := get("?limit=1"); len(entries) != 1 || entries[0].Analyst != "bob" {
		t.Errorf("limit=1 should keep the most recent entry: %+v", entries)
	}
	if entries := get("?analyst=alice&outcome=ok"); len(entries) != 1 || entries[0].Epsilon != 0.5 {
		t.Errorf("analyst=alice&outcome=ok: %+v", entries)
	}
	resp, err := http.Get(ts.URL + "/audit?limit=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := obsServer(t, math.Inf(1), math.Inf(1))
	postQuery(t, ts, QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hs HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.Datasets != 1 || hs.UptimeSeconds < 0 || hs.Goroutines <= 0 {
		t.Errorf("healthz %+v", hs)
	}
	if hs.AuditEntries != 1 || hs.RecentTraces != 1 {
		t.Errorf("healthz counts %+v, want 1 audit entry and 1 trace", hs)
	}
}

// TestPprofOptIn: profiling handlers exist only with WithPprof().
func TestPprofOptIn(t *testing.T) {
	_, plain := obsServer(t, 1, 1)
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without WithPprof()")
	}

	s := New(noise.NewSeededSource(3, 4))
	withPprof := httptest.NewServer(s.Handler(WithPprof()))
	defer withPprof.Close()
	resp, err = http.Get(withPprof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d with WithPprof()", resp.StatusCode)
	}
}
