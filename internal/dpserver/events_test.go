package dpserver

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
)

// eventsNamed filters a server's recent events by name, oldest last
// (Recent returns newest first).
func eventsNamed(s *Server, name string) []qlog.Event {
	var out []qlog.Event
	for _, e := range s.Events().Recent(0) {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// fieldValue extracts one field from an event (nil if absent).
func fieldValue(e qlog.Event, key string) any {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return nil
}

// TestQueryWideEventInvariant is the PR's acceptance test: every
// completed budget-spending request emits exactly ONE "query" wide
// event, carrying the operator-tree execution profile, and the events
// are retrievable through GET /debug/queries.
func TestQueryWideEventInvariant(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatal(err)
	}
	failQueriesBy(s, "bob")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three spending requests with three outcomes: ok, refused (over
	// the per-analyst cap), and error (a failure in execution).
	for _, req := range []api.QueryRequest{
		{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5},
		{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 5.0},
		{Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.1},
	} {
		postV1(t, ts.URL+"/v1/query", req, nil)
	}

	events := eventsNamed(s, "query")
	if len(events) != 3 {
		t.Fatalf("got %d query events, want exactly 3 (one per spending request)", len(events))
	}
	outcomes := map[string]bool{}
	for _, e := range events {
		outcomes[fieldValue(e, "outcome").(string)] = true
	}
	for _, want := range []string{"ok", "refused", "error"} {
		if !outcomes[want] {
			t.Errorf("no query event with outcome %q (got %v)", want, outcomes)
		}
	}

	// The newest-first ring: events[2] is the successful query. Its
	// profile must hold the operator tree (the where row) and the
	// aggregation's ε accounting.
	okEvent := events[2]
	if got := fieldValue(okEvent, "charged_epsilon").(float64); got != 0.5 {
		t.Errorf("charged_epsilon = %v, want 0.5", got)
	}
	prof, ok := fieldValue(okEvent, "profile").(*obs.Profile)
	if !ok {
		t.Fatalf("profile field is %T, want *obs.Profile", fieldValue(okEvent, "profile"))
	}
	if len(prof.Ops) == 0 || prof.Ops[0].Op != "where" {
		t.Fatalf("profile ops = %+v, want the where row first", prof.Ops)
	}
	if prof.Ops[0].RecordsIn != 64 {
		t.Errorf("owner-side profile records_in = %v, want 64 (unredacted)", prof.Ops[0].RecordsIn)
	}
	if len(prof.Aggs) != 1 || prof.Aggs[0].EpsilonCharged != 0.5 {
		t.Errorf("profile aggs = %+v, want one count row charging 0.5", prof.Aggs)
	}

	// The same events come back over GET /debug/queries.
	resp, err := http.Get(ts.URL + "/v1/debug/queries?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fetched []qlog.Event
	if err := json.NewDecoder(resp.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 3 {
		t.Fatalf("GET /debug/queries?n=3 returned %d events", len(fetched))
	}
	// Decoded field values are generic JSON; the profile must survive
	// the trip with its operator rows intact.
	profAny, ok := fieldValue(fetched[2], "profile").(map[string]any)
	if !ok {
		t.Fatalf("fetched profile is %T", fieldValue(fetched[2], "profile"))
	}
	if ops, ok := profAny["ops"].([]any); !ok || len(ops) == 0 {
		t.Fatalf("fetched profile has no ops: %v", profAny)
	}
}

// TestWideEventPerEndpoint extends the one-event invariant to every
// query kind the spending endpoint serves: each successful request
// emits one "query" event naming the endpoint, with a non-empty
// operator profile.
func TestWideEventPerEndpoint(t *testing.T) {
	s := New(noise.NewSeededSource(3, 4))
	if err := s.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, k := range queryKinds {
		postV1(t, ts.URL+"/v1/query", api.QueryRequest{
			Analyst: "alice", Dataset: "hotspot", Query: k.name, Epsilon: 0.5, Key: "0.0.0.1",
		}, nil)
		events := eventsNamed(s, "query")
		if len(events) != i+1 {
			t.Fatalf("%s: got %d query events after %d requests", k.name, len(events), i+1)
		}
		e := events[0] // newest first
		if ep := fieldValue(e, "endpoint"); ep != "/query" {
			t.Errorf("%s: endpoint = %v, want /query", k.name, ep)
		}
		if out := fieldValue(e, "outcome"); out != "ok" {
			t.Errorf("%s: outcome = %v, want ok", k.name, out)
		}
		prof, ok := fieldValue(e, "profile").(*obs.Profile)
		if !ok || len(prof.Ops) == 0 || len(prof.Aggs) == 0 {
			t.Errorf("%s: profile empty: %+v", k.name, fieldValue(e, "profile"))
		}
	}
}

// TestSlowQueryBoundary pins the threshold comparison: a query landing
// exactly ON the threshold is slow (>=), one below is not, and zero
// disables the log entirely.
func TestSlowQueryBoundary(t *testing.T) {
	for _, tc := range []struct {
		d, threshold time.Duration
		want         bool
	}{
		{d: 5 * time.Millisecond, threshold: 0, want: false},
		{d: time.Hour, threshold: 0, want: false},
		{d: 4 * time.Millisecond, threshold: 5 * time.Millisecond, want: false},
		{d: 5*time.Millisecond - time.Nanosecond, threshold: 5 * time.Millisecond, want: false},
		{d: 5 * time.Millisecond, threshold: 5 * time.Millisecond, want: true},
		{d: 5*time.Millisecond + time.Nanosecond, threshold: 5 * time.Millisecond, want: true},
	} {
		if got := slowQuery(tc.d, tc.threshold); got != tc.want {
			t.Errorf("slowQuery(%v, %v) = %v, want %v", tc.d, tc.threshold, got, tc.want)
		}
	}
}

// TestSlowQueryEvent drives the threshold end to end: a query delayed
// past Limits.SlowQuery emits the warning event, a fast one does not.
func TestSlowQueryEvent(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2), WithLimits(Limits{SlowQuery: 2 * time.Millisecond}))
	if err := s.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	var delay time.Duration
	s.execHook = func(context.Context) { time.Sleep(delay) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	delay = 0
	postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1}, nil)
	if n := len(eventsNamed(s, "slow_query")); n != 0 {
		t.Fatalf("fast query emitted %d slow_query events", n)
	}

	delay = 10 * time.Millisecond
	postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1}, nil)
	slow := eventsNamed(s, "slow_query")
	if len(slow) != 1 {
		t.Fatalf("slow query emitted %d slow_query events, want 1", len(slow))
	}
	if e := slow[0]; e.Level != qlog.Warn || fieldValue(e, "query") != "count" {
		t.Errorf("slow_query event = %+v", e)
	}
	if ms := fieldValue(slow[0], "duration_ms").(float64); ms < 2 {
		t.Errorf("slow_query duration_ms = %v, want >= threshold", ms)
	}
	// The slow query still emitted exactly one wide event per request.
	if n := len(eventsNamed(s, "query")); n != 2 {
		t.Errorf("got %d query events for 2 requests", n)
	}
}

// explainLedgerServer builds one ledger-backed seeded server for the
// ε-parity test below.
func explainLedgerServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	led, err := ledger.Open(ledger.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s := New(noise.NewSeededSource(7, 11), WithLedger(led))
	if err := s.AddPacketTrace("hotspot", restartTrace(), 2.0, 1.0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestExplainZeroEpsilonParity is the acceptance test for X-DP-Explain:
// two identically-seeded ledger-backed servers run the same queries,
// one with the explain header on every request. The explained run must
// return the profile, charge identical ε, and leave a byte-identical
// ledger tail (modulo append timestamps) — proving explain costs
// nothing and touches no accounting.
func TestExplainZeroEpsilonParity(t *testing.T) {
	dirPlain, dirExplain := t.TempDir(), t.TempDir()
	_, tsPlain := explainLedgerServer(t, dirPlain)
	_, tsExplain := explainLedgerServer(t, dirExplain)

	reqs := []api.QueryRequest{
		{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.3},
		{Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.2, MinBytes: 10},
		{Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 9.0}, // refused
	}
	explainHdr := map[string]string{api.ExplainHeader: "true"}
	var lastPlain, lastExplain api.QueryResponse
	for _, req := range reqs {
		respP, bodyP := postV1(t, tsPlain.URL+"/v1/query", req, nil)
		respE, bodyE := postV1(t, tsExplain.URL+"/v1/query", req, explainHdr)
		if respP.StatusCode != respE.StatusCode {
			t.Fatalf("status diverged: %d vs %d", respP.StatusCode, respE.StatusCode)
		}
		if respP.StatusCode == http.StatusOK {
			if err := json.Unmarshal(bodyP, &lastPlain); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(bodyE, &lastExplain); err != nil {
				t.Fatal(err)
			}
			if lastPlain.Spent != lastExplain.Spent {
				t.Fatalf("spent diverged: %v vs %v", lastPlain.Spent, lastExplain.Spent)
			}
			if lastPlain.Values[0] != lastExplain.Values[0] {
				t.Fatalf("values diverged: %v vs %v (same seed, same noise draws)", lastPlain.Values[0], lastExplain.Values[0])
			}
		}
	}

	// The explained responses carry the redacted profile; plain ones
	// carry none.
	if lastPlain.Profile != nil {
		t.Error("plain response unexpectedly has a profile")
	}
	p := lastExplain.Profile
	if p == nil {
		t.Fatal("explain response has no profile")
	}
	if !p.Redacted {
		t.Error("explain profile not redacted")
	}
	for _, op := range p.Ops {
		if op.RecordsIn != 0 || op.RecordsOut != 0 {
			t.Errorf("explain profile leaked record counts: %+v (§S31)", op)
		}
	}
	if len(p.Aggs) == 0 || p.TotalCharged() == 0 {
		t.Errorf("explain profile lost ε accounting: %+v", p.Aggs)
	}

	// The ledger tails are byte-identical once append timestamps are
	// normalized: explain produced not one extra or different event.
	normalize := func(dir string) []string {
		var lines []string
		if err := ledger.Events(dir, func(ev ledger.Event) error {
			ev.Time = 0
			b, err := json.Marshal(ev)
			lines = append(lines, string(b))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	plainTail, explainTail := normalize(dirPlain), normalize(dirExplain)
	if len(plainTail) != len(explainTail) {
		t.Fatalf("ledger event counts diverged: %d vs %d", len(plainTail), len(explainTail))
	}
	for i := range plainTail {
		if plainTail[i] != explainTail[i] {
			t.Fatalf("ledger tails diverged at event %d:\n  plain:   %s\n  explain: %s",
				i, plainTail[i], explainTail[i])
		}
	}
}

// TestShedAndReplayEvents covers the remaining lifecycle event types:
// a shed under overload, a drain pair on Shutdown, and an idempotent
// replay event on a cache hit.
func TestShedAndReplayEvents(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("hotspot", restartTrace(), math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keyed := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "count",
		Epsilon: 0.1, IdempotencyKey: "replay-me"}
	postV1(t, ts.URL+"/v1/query", keyed, nil)
	postV1(t, ts.URL+"/v1/query", keyed, nil) // replayed from cache
	if n := len(eventsNamed(s, "query")); n != 1 {
		t.Errorf("replay re-executed: %d query events, want 1", n)
	}
	replays := eventsNamed(s, "query_replayed")
	if len(replays) != 1 {
		t.Fatalf("got %d query_replayed events, want 1", len(replays))
	}
	if a := fieldValue(replays[0], "analyst"); a != "alice" {
		t.Errorf("replay analyst = %v", a)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1}, nil)
	if n := len(eventsNamed(s, "drain_started")); n != 1 {
		t.Errorf("drain_started events = %d, want 1", n)
	}
	if n := len(eventsNamed(s, "drain_completed")); n != 1 {
		t.Errorf("drain_completed events = %d, want 1", n)
	}
	sheds := eventsNamed(s, "query_shed")
	if len(sheds) != 1 || fieldValue(sheds[0], "reason") != "shutting_down" {
		t.Errorf("query_shed events = %+v, want one shutting_down shed", sheds)
	}
}

// TestAnalystBudgetTelemetry checks the two new series: the per-query
// ε histogram and the per-analyst burn-rate gauge.
func TestAnalystBudgetTelemetry(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("hotspot", restartTrace(), 4.0, 2.0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		postV1(t, ts.URL+"/v1/query", api.QueryRequest{
			Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5}, nil)
	}

	if n := s.Metrics().Histogram("dp_query_epsilon", obs.EpsilonBuckets(),
		"analyst", "alice", "dataset", "hotspot").Count(); n != 2 {
		t.Errorf("dp_query_epsilon{analyst=alice} count = %d, want 2", n)
	}
	var text strings.Builder
	if err := s.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	// spent 1.0 of a 2.0 cap
	if want := `dp_analyst_budget_spent_ratio{analyst="alice",dataset="hotspot"} 0.5` + "\n"; !strings.Contains(text.String(), want) {
		t.Errorf("scrape missing %q:\n%s", want, text.String())
	}
}
