package dpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/tracegen"
)

// lifecycleServer builds a server with the given options plus an
// httptest listener, exposing the Server for ledger assertions.
func lifecycleServer(t *testing.T, total, perAnalyst float64, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 200
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	packets, _ := tracegen.Hotspot(cfg)
	s := New(noise.NewSeededSource(1, 2), opts...)
	if err := s.AddPacketTrace("hotspot", packets, total, perAnalyst); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postV1(t *testing.T, url string, body any, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
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

// TestIdempotentQueryStorm is the differential at-most-once proof: N
// goroutines × R retries hammer the same idempotency keys, and the
// policy ledger must show exactly one ε charge per distinct key with
// every response byte-identical to its first execution.
func TestIdempotentQueryStorm(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	const (
		distinct = 5
		workers  = 8
		retries  = 4
		eps      = 0.1
	)
	bodies := make([][][]byte, distinct) // [key][attempt] -> body
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := 0; a < retries; a++ {
				key := (w + a) % distinct
				resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
					Analyst: "alice", Dataset: "hotspot", Query: "count",
					Epsilon: eps, IdempotencyKey: fmt.Sprintf("storm-%d", key),
				}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				mu.Lock()
				bodies[key] = append(bodies[key], body)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for key, got := range bodies {
		for i, b := range got {
			if !bytes.Equal(b, got[0]) {
				t.Errorf("key %d attempt %d: body diverged\n first: %s\n later: %s", key, i, got[0], b)
			}
		}
	}
	policy := s.datasets["hotspot"].policy
	want := float64(distinct) * eps
	if spent := policy.TotalSpent(); math.Abs(spent-want) > 1e-9 {
		t.Fatalf("total ε = %v, want %v (one charge per distinct key)", spent, want)
	}
}

// TestIdempotentReplayOfFailures pins that refusals replay too: a
// budget-exhausted response under a key comes back byte-identically
// without touching the ledger again.
func TestIdempotentReplayOfFailures(t *testing.T) {
	_, ts := lifecycleServer(t, math.Inf(1), 1.0)
	// Exhaust alice's allowance.
	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 1.0,
		IdempotencyKey: "spend-all",
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("setup query failed: %d %s", resp.StatusCode, body)
	}
	var first, second []byte
	resp, first = postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5,
		IdempotencyKey: "over-budget",
	}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	resp, second = postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5,
		IdempotencyKey: "over-budget",
	}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replay status = %d, want 403", resp.StatusCode)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("refusal replay diverged:\n first: %s\n second: %s", first, second)
	}
	var e apiError
	if err := json.Unmarshal(first, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeBudgetExhausted || e.Retryable {
		t.Fatalf("envelope = %+v, want code=%s retryable=false", e, codeBudgetExhausted)
	}
}

// TestShedUnderSaturation saturates a MaxConcurrent=1 limiter with an
// injected-latency handler and asserts the overflow request is shed
// with 429 + Retry-After, visible in dp_shed_total, instead of
// queueing unboundedly.
func TestShedUnderSaturation(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1),
		WithLimits(Limits{MaxConcurrent: 1, QueueWait: 10 * time.Millisecond}))
	s.execHook = func(ctx context.Context) {
		entered <- struct{}{}
		<-block
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		postV1(t, ts.URL+"/v1/query", api.QueryRequest{
			Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
		}, nil)
	}()
	<-entered // the slot is now held

	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeOverloaded || !e.Retryable {
		t.Fatalf("envelope = %+v, want code=%s retryable=true", e, codeOverloaded)
	}

	close(block)
	<-done

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if !strings.Contains(rec.Body.String(), `dp_shed_total{endpoint="/query"} 1`) {
		t.Fatalf("dp_shed_total not visible in metrics:\n%s", rec.Body.String())
	}
}

// TestShutdownDrains starts a slow in-flight query, begins Shutdown,
// and asserts (a) new queries are refused with 503 shutting_down,
// (b) the in-flight query still completes and charges normally, and
// (c) Shutdown returns once it drains.
func TestShutdownDrains(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	s.execHook = func(ctx context.Context) {
		entered <- struct{}{}
		<-block
	}

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
			Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.25,
		}, nil)
		inflight <- result{resp.StatusCode, body}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Drain flag flips inside Shutdown; poll until new work is refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
			Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
		}, nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != codeShuttingDown || !e.Retryable {
				t.Fatalf("envelope = %+v, want code=%s retryable=true", e, codeShuttingDown)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 during drain missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain refusal never appeared; last status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a query was in flight", err)
	default:
	}

	close(block)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query during drain: status %d, body %s", r.status, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if spent := s.datasets["hotspot"].policy.TotalSpent(); spent != 0.25 {
		t.Fatalf("drained query charged ε = %v, want 0.25", spent)
	}
}

// TestDeadlineCancelsBeforeCharge asserts the whole-stack zero-ε
// invariant: a request whose deadline expires before the aggregation
// runs returns the deadline_exceeded envelope, charges nothing, and
// lands in the audit ledger as "canceled".
func TestDeadlineCancelsBeforeCharge(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1),
		WithLimits(Limits{MaxTimeout: time.Minute}))
	s.execHook = func(ctx context.Context) { <-ctx.Done() }

	resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5,
	}, map[string]string{api.TimeoutHeader: "30"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeDeadlineExceeded || !e.Retryable || e.Charged != 0 {
		t.Fatalf("envelope = %+v, want code=%s retryable=true charged=0", e, codeDeadlineExceeded)
	}
	if spent := s.datasets["hotspot"].policy.TotalSpent(); spent != 0 {
		t.Fatalf("cancelled query charged ε = %v, want 0", spent)
	}
	entries := s.Audit()
	if len(entries) != 1 || entries[0].Outcome != "canceled" || entries[0].Charged != 0 {
		t.Fatalf("audit = %+v, want one canceled entry with zero charge", entries)
	}
}

// TestCancelledOutcomeNotCached: a deadline failure that charged
// nothing must not be replayed for its idempotency key — the retry
// (with a workable deadline) executes and succeeds.
func TestCancelledOutcomeNotCached(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	hang := true
	s.execHook = func(ctx context.Context) {
		if hang {
			<-ctx.Done()
		}
	}
	req := api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.5,
		IdempotencyKey: "retry-after-timeout",
	}
	resp, _ := postV1(t, ts.URL+"/v1/query", req, map[string]string{api.TimeoutHeader: "30"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("first attempt status = %d, want 504", resp.StatusCode)
	}
	hang = false
	resp, body := postV1(t, ts.URL+"/v1/query", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, want 200; body %s", resp.StatusCode, body)
	}
	if spent := s.datasets["hotspot"].policy.TotalSpent(); spent != 0.5 {
		t.Fatalf("ε = %v, want 0.5 (timeout charged nothing, retry once)", spent)
	}
}

// TestV1ErrorEnvelope sweeps the v1 endpoints' failure paths and
// asserts the uniform {code, message, retryable} shape.
func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", "POST", "/v1/query", "{", http.StatusBadRequest, codeBadRequest},
		{"missing fields", "POST", "/v1/query", `{"epsilon":1}`, http.StatusBadRequest, codeBadRequest},
		{"unknown dataset", "POST", "/v1/query", `{"analyst":"a","dataset":"nope","query":"count","epsilon":1}`, http.StatusNotFound, codeNotFound},
		{"budget params", "GET", "/v1/budget", "", http.StatusBadRequest, codeBadRequest},
		{"budget unknown", "GET", "/v1/budget?dataset=nope&analyst=a", "", http.StatusNotFound, codeNotFound},
		{"audit bad limit", "GET", "/v1/audit?limit=-1", "", http.StatusBadRequest, codeBadRequest},
		{"events bad n", "GET", "/v1/debug/queries?n=-1", "", http.StatusBadRequest, codeBadRequest},
		{"trace field", "POST", "/v1/query", `{"analyst":"a","dataset":"hotspot","query":"count","epsilon":1,"trace":true}`, http.StatusBadRequest, codeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.wantStatus, raw)
			}
			var e apiError
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("not an envelope: %s", raw)
			}
			if e.Code != tc.wantCode || e.Message == "" {
				t.Fatalf("envelope = %+v, want code %q with a message", e, tc.wantCode)
			}
		})
	}
}

// TestUnversionedPathsNotFound: /v1 is the API. Every route's path
// without the prefix answers 404 and spends nothing.
func TestUnversionedPathsNotFound(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	for _, rt := range Routes() {
		path := strings.NewReplacer("{dataset}", "hotspot", "{id}", "sq-1").Replace(rt.Path)
		req, err := http.NewRequest(rt.Method, ts.URL+path,
			strings.NewReader(`{"analyst":"alice","dataset":"hotspot","query":"count","epsilon":0.1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", rt.Method, path, resp.StatusCode)
		}
	}
	if spent := s.datasets["hotspot"].policy.TotalSpent(); spent != 0 {
		t.Fatalf("unversioned requests spent ε %v", spent)
	}
}

// TestIdempotencyMetrics checks the hit/miss counters around one
// keyed query and its replay.
func TestIdempotencyMetrics(t *testing.T) {
	s, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	req := api.QueryRequest{Analyst: "alice", Dataset: "hotspot", Query: "lencdf", Epsilon: 0.2, IdempotencyKey: "m1"}
	_, first := postV1(t, ts.URL+"/v1/query", req, nil)
	_, second := postV1(t, ts.URL+"/v1/query", req, nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("replay diverged:\n%s\n%s", first, second)
	}
	if spent := s.datasets["hotspot"].policy.TotalSpent(); spent != 0.2 {
		t.Fatalf("ε = %v, want one 0.2 charge", spent)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	out := rec.Body.String()
	if !strings.Contains(out, "dp_idem_misses_total 1") || !strings.Contains(out, "dp_idem_hits_total 1") {
		t.Fatalf("idempotency counters wrong:\n%s", out)
	}
}

// TestIdemCacheEviction exercises capacity eviction and expiry,
// including the aliasing case: after an entry expires and its key is
// re-claimed, the stale FIFO slot must not evict the new entry.
func TestIdemCacheEviction(t *testing.T) {
	c := newIdemCache()
	c.capacity = 2
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	k := func(i int) idemKey {
		return idemKey{endpoint: "/v1/query", dataset: "d", analyst: "a", key: fmt.Sprint(i)}
	}
	e1, lead := c.begin(k(1))
	if !lead {
		t.Fatal("first begin should lead")
	}
	c.finish(k(1), e1, 200, []byte("one"), true)

	// Replay hit.
	if e, lead := c.begin(k(1)); lead || string(e.body) != "one" {
		t.Fatalf("expected cached entry, lead=%v", lead)
	}

	// Expiry: after the TTL the same key re-executes.
	now = now.Add(c.ttl + time.Second)
	e1b, lead := c.begin(k(1))
	if !lead {
		t.Fatal("expired key should re-lead")
	}
	c.finish(k(1), e1b, 200, []byte("one-b"), true)
	if e, lead := c.begin(k(1)); lead || string(e.body) != "one-b" {
		t.Fatalf("stale slot shadowed the refreshed entry; lead=%v", lead)
	}

	// Capacity: filling past cap evicts the oldest completed entry.
	for i := 2; i <= 4; i++ {
		e, lead := c.begin(k(i))
		if !lead {
			t.Fatalf("key %d should lead", i)
		}
		c.finish(k(i), e, 200, []byte(fmt.Sprint(i)), true)
	}
	if len(c.entries) > 2 {
		t.Fatalf("cache size %d exceeds capacity 2", len(c.entries))
	}
	if _, lead := c.begin(k(4)); lead {
		t.Fatal("newest entry should have survived eviction")
	}

	// Non-cacheable outcomes drop the entry: next begin leads again.
	e5, _ := c.begin(k(5))
	c.finish(k(5), e5, 504, []byte("timeout"), false)
	if _, lead := c.begin(k(5)); !lead {
		t.Fatal("non-cacheable outcome should not replay")
	}
}
