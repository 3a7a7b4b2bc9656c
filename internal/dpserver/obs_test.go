package dpserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
)

// obsServer is like testServer but also returns the Server so tests
// can compare scraped telemetry against in-process ground truth.
func obsServer(t *testing.T, total, perAnalyst float64, opts ...HandlerOption) (*Server, *httptest.Server) {
	t.Helper()
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("hotspot", obsPackets(300), total, perAnalyst); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(opts...))
	t.Cleanup(ts.Close)
	return s, ts
}

func scrapeText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
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

// seriesValue reads one series' value out of a Prometheus text scrape;
// series is the sample's name and labels as the exposition spells them.
func seriesValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not in scrape", series)
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
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.2})
	if resp, _ := postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.7}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget query status %d, want 403", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts, api.QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "bogus", Epsilon: 0.1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus query status %d, want 400", resp.StatusCode)
	}

	text := scrapeText(t, ts)
	// Per-endpoint request counters, labeled by response code.
	for _, want := range []string{
		`dpserver_requests_total{code="200",endpoint="/v1/query"} 2`,
		`dpserver_requests_total{code="403",endpoint="/v1/query"} 1`,
		`dpserver_requests_total{code="400",endpoint="/v1/query"} 1`,
		// Latency histogram saw all four requests.
		`dpserver_request_seconds_count{endpoint="/v1/query"} 4`,
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
	d := srv.datasets["hotspot"]
	if got := seriesValue(t, text, `dp_budget_total{dataset="hotspot"}`); got != 10.0 {
		t.Errorf("dp_budget_total %v, want 10", got)
	}
	if got, want := seriesValue(t, text, `dp_budget_spent{dataset="hotspot"}`), d.policy.TotalSpent(); got != want {
		t.Errorf("dp_budget_spent %v, policy says %v", got, want)
	}
	if got, want := seriesValue(t, text, `dp_budget_remaining{dataset="hotspot"}`), d.policy.TotalRemaining(); got != want {
		t.Errorf("dp_budget_remaining %v, policy says %v", got, want)
	}
	// The ε-spend counter sums the ε successful aggregations asked
	// for (0.5 + 0.2); the charged total (0.9, GroupBy doubles) is the
	// gauges' business — the counter is for spend-rate alerting.
	if got := seriesValue(t, text, "dp_budget_spend_total"); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("dp_budget_spend_total %v, want 0.7", got)
	}
	// The audit-depth gauge matches the trail.
	if got := seriesValue(t, text, "dpserver_audit_entries"); got != float64(len(srv.Audit())) {
		t.Errorf("dpserver_audit_entries %v, trail has %d", got, len(srv.Audit()))
	}

	// One more query: the scraped values move accordingly.
	postQuery(t, ts, api.QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	text = scrapeText(t, ts)
	for _, want := range []string{
		`dpserver_requests_total{code="200",endpoint="/v1/query"} 3`,
		`dp_agg_total{agg="count",outcome="ok"} 3`,
		`dp_op_duration_seconds_count{op="where"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("after extra query, scrape missing %q", want)
		}
	}
	if got, want := seriesValue(t, text, `dp_budget_spent{dataset="hotspot"}`), d.policy.TotalSpent(); got != want || want <= 0.9 {
		t.Errorf("dp_budget_spent %v after extra query, policy %v (want >0.9)", got, want)
	}
}

// TestAddTraceNameCollision: re-registering a dataset under a taken
// name is refused, whatever its budgets, and leaves the first
// registration hosted.
func TestAddTraceNameCollision(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("d", nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPacketTrace("d", nil, 1, 1); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("collision: %v, want ErrDatasetExists", err)
	}
	if err := s.AddPacketTrace("d", ingestPkts(3), 5, 5); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("collision with other budgets: %v, want ErrDatasetExists", err)
	}
	if d := s.datasets["d"]; d.watermark != 0 || d.policy.TotalRemaining() != 1 {
		t.Errorf("the refused registration replaced the first: %d records, %v remaining", d.watermark, d.policy.TotalRemaining())
	}
}

// TestAuditEvictionConcurrent hammers the bounded ledger from many
// goroutines (run under -race) and checks the cap holds and the most
// recent entries survive eviction.
func TestAuditEvictionConcurrent(t *testing.T) {
	const logCap = ledger.AuditCap
	l := new(auditLog)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < logCap/2; i++ {
				l.add(ledger.AuditRecord{Analyst: fmt.Sprintf("g%d", g), Epsilon: float64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := len(l.trail()); got > logCap || got == 0 {
		t.Fatalf("ledger depth %d after concurrent writes, want 1..%d", got, logCap)
	}

	// Sequential markers: eviction must keep the newest entries in
	// arrival order.
	for i := 0; i < logCap; i++ {
		l.add(ledger.AuditRecord{Analyst: "marker", Epsilon: float64(i)})
	}
	snap := l.trail()
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
				resp, _ := postQuery(t, ts, api.QueryRequest{
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
	text := scrapeText(t, ts)
	if got := seriesValue(t, text, `dp_budget_spent{dataset="hotspot"}`); got != d.policy.TotalSpent() {
		t.Errorf("dp_budget_spent gauge %v, policy %v", got, d.policy.TotalSpent())
	}
	if got := seriesValue(t, text, `dp_budget_total{dataset="hotspot"}`); got != 2.0 {
		t.Errorf("dp_budget_total gauge %v, want 2", got)
	}
	if got, want := seriesValue(t, text, `dp_budget_remaining{dataset="hotspot"}`), d.policy.TotalRemaining(); got != want {
		t.Errorf("dp_budget_remaining gauge %v, policy %v", got, want)
	}
}

// TestDatasetsAnalystUsage covers the satellite surface: /datasets
// reports per-analyst charged-vs-requested totals from the ledger,
// reconciled with the policy's spent ground truth.
func TestDatasetsAnalystUsage(t *testing.T) {
	_, ts := obsServer(t, 10.0, 1.0)
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.25})
	postQuery(t, ts, api.QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 2.0}) // refused

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []api.DatasetInfo
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
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5})
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.9}) // refused
	postQuery(t, ts, api.QueryRequest{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.3})

	get := func(params string) []AuditEntry {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/audit" + params)
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
	resp, err := http.Get(ts.URL + "/v1/audit?limit=nope")
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
	postQuery(t, ts, api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hs api.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.Datasets != 1 || hs.UptimeSeconds < 0 || hs.Goroutines <= 0 {
		t.Errorf("healthz %+v", hs)
	}
	if hs.AuditEntries != 1 {
		t.Errorf("healthz counts %+v, want 1 audit entry", hs)
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
