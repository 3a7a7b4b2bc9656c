package dpclient

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/tracegen"
)

func clientAndServer(t *testing.T, total, perAnalyst float64, opts ...Option) *Client {
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
	s := dpserver.New(noise.NewSeededSource(1, 2))
	s.AddPacketTrace("hotspot", packets, total, perAnalyst)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL, "alice", opts...)
}

// count is a count query on dataset at epsilon.
func count(dataset string, epsilon float64) api.QueryRequest {
	return api.QueryRequest{Dataset: dataset, Query: "count", Epsilon: epsilon}
}

// value runs req through c.Query and returns its one noisy value.
func value(t *testing.T, c *Client, req api.QueryRequest) float64 {
	t.Helper()
	r, err := c.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 1 {
		t.Fatalf("%s: %d values, want 1", req.Query, len(r.Values))
	}
	return r.Values[0]
}

func TestClientCountAndBudget(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, 10, 5)
	if n := value(t, c, count("hotspot", 1.0)); n < 1000 {
		t.Errorf("implausible count %v", n)
	}
	spent, remaining, err := c.Budget(ctx, "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spent-1.0) > 1e-9 || math.Abs(remaining-4.0) > 1e-9 {
		t.Errorf("budget spent %v remaining %v, want 1/4", spent, remaining)
	}
}

func TestClientHostsQuery(t *testing.T) {
	c := clientAndServer(t, math.Inf(1), math.Inf(1))
	port := 80
	hosts := value(t, c, api.QueryRequest{Dataset: "hotspot", Query: "hosts", Epsilon: 0.5,
		Filter: &api.Filter{DstPort: &port}, MinBytes: 1024})
	if hosts < 10 {
		t.Errorf("implausible hosts %v", hosts)
	}
}

func TestClientCDFs(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, math.Inf(1), math.Inf(1))
	lens, err := c.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "lencdf", Epsilon: 1.0, BucketStep: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(lens.Values) == 0 || len(lens.Values) != len(lens.Buckets) {
		t.Fatalf("length CDF shape: %d/%d", len(lens.Values), len(lens.Buckets))
	}
	rtts, err := c.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "rttcdf", Epsilon: 1.0, BucketStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts.Values) == 0 {
		t.Fatal("empty RTT CDF")
	}
}

func TestClientBudgetRefusalTyped(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, math.Inf(1), 1.0)
	value(t, c, count("hotspot", 0.9))
	_, err := c.Query(ctx, count("hotspot", 0.5))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("got %T, want *APIError", err)
	}
	if ae.StatusCode != http.StatusForbidden || ae.Retryable {
		t.Fatalf("APIError %+v, want 403 non-retryable", ae)
	}
	if math.Abs(ae.Remaining-0.1) > 1e-9 {
		t.Errorf("remaining %v, want 0.1", ae.Remaining)
	}
}

func TestClientDatasets(t *testing.T) {
	c := clientAndServer(t, 3, 3)
	infos, err := c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "hotspot" {
		t.Fatalf("datasets %+v", infos)
	}
}

func TestClientServerErrors(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, 1, 1)
	if _, err := c.Query(ctx, count("nope", 0.1)); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := c.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "zap", Epsilon: 1}); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestClientObservability(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, 10, 5)

	// An explained query carries its redacted plan through the client.
	r, err := c.Explain(ctx, api.QueryRequest{
		Dataset: "hotspot", Query: "count", Epsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile == nil || !r.Profile.Redacted || len(r.Profile.Ops) == 0 || r.Profile.Ops[0].Op != "where" {
		t.Fatalf("explained query returned profile %+v, want a redacted plan opening with where", r.Profile)
	}

	// Plain queries do not.
	r, err = c.Query(ctx, api.QueryRequest{
		Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != nil {
		t.Error("plain query returned a profile")
	}

	hs, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.Datasets != 1 || hs.AuditEntries != 2 {
		t.Errorf("health %+v", hs)
	}

	events, err := c.RecentEvents(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "query" {
		t.Errorf("recent events %+v", events)
	}

	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dpserver_requests_total{code="200",endpoint="/v1/query"} 2`,
		`dp_agg_total{agg="count",outcome="ok"} 2`,
		`dp_budget_spent{dataset="hotspot"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q", want)
		}
	}
}

// TestClientSketchQueries drives the sketch-backed kinds end-to-end —
// quantile, per-source frequency, distinct sources — and checks via
// Explain that they executed on the fused streaming path.
func TestClientSketchQueries(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, math.Inf(1), math.Inf(1))

	median := value(t, c, api.QueryRequest{Dataset: "hotspot", Query: "lenquantile", Epsilon: 5, Fraction: 0.5})
	if median <= 0 || median > 1500 {
		t.Errorf("implausible median packet length %v", median)
	}
	p99 := value(t, c, api.QueryRequest{Dataset: "hotspot", Query: "lenquantile", Epsilon: 5, Fraction: 0.99, SketchEps: 0.01})
	if p99 < median {
		t.Errorf("p99 %v below median %v", p99, median)
	}

	value(t, c, api.QueryRequest{Dataset: "hotspot", Query: "srcfreq", Epsilon: 5, Key: "10.0.0.1"})
	if _, err := c.Query(ctx, api.QueryRequest{
		Dataset: "hotspot", Query: "srcfreq", Epsilon: 1,
	}); err == nil {
		t.Error("srcfreq without key should fail")
	}

	distinct := value(t, c, api.QueryRequest{Dataset: "hotspot", Query: "distinctsrc", Epsilon: 5})
	if distinct < 2 {
		t.Errorf("implausible distinct sources %v", distinct)
	}

	// The filter runs as a fused stage: Explain shows a "fused" where
	// row and the quantile aggregation row, with the ε charge intact.
	r, err := c.Explain(ctx, api.QueryRequest{
		Dataset: "hotspot", Query: "lenquantile", Epsilon: 2, Fraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile == nil {
		t.Fatal("Explain returned no profile")
	}
	if got := r.Profile.FusedOps(); got != 1 {
		t.Errorf("fused ops = %d, want 1 (profile %+v)", got, r.Profile)
	}
	if len(r.Profile.Aggs) != 1 || r.Profile.Aggs[0].Agg != "quantile" {
		t.Errorf("agg rows %+v, want one quantile row", r.Profile.Aggs)
	}
}

// TestClientRetriesShedsOnce stands up a fake server that sheds the
// first attempt with 429 + Retry-After and succeeds on the second; the
// client must retry with the SAME idempotency key and surface success.
func TestClientRetriesShedsOnce(t *testing.T) {
	var attempts atomic.Int64
	keys := make(chan string, 4)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.QueryRequest
		json.NewDecoder(r.Body).Decode(&req)
		keys <- req.IdempotencyKey
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"code":"overloaded","message":"at capacity","retryable":true}` + "\n"))
			return
		}
		json.NewEncoder(w).Encode(api.QueryResponse{Values: []float64{42}})
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	}))
	if v := value(t, c, count("d", 0.1)); v != 42 {
		t.Fatalf("value %v, want 42", v)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("attempts = %d, want 2", n)
	}
	k1, k2 := <-keys, <-keys
	if k1 == "" || k1 != k2 {
		t.Fatalf("idempotency keys %q / %q, want identical non-empty", k1, k2)
	}
}

// TestClientDoesNotRetryRefusals: a budget refusal is terminal — the
// client must not burn attempts re-asking.
func TestClientDoesNotRetryRefusals(t *testing.T) {
	var attempts atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"code":"budget_exhausted","message":"no","retryable":false,"remaining":0.25}` + "\n"))
	}))
	defer fake.Close()

	c := New(fake.URL, "alice")
	_, err := c.Query(context.Background(), count("d", 0.1))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("attempts = %d, want 1 (refusals are not retryable)", n)
	}
}

// TestClientRetriesExhaust: persistent shedding surfaces the last
// APIError after MaxAttempts tries.
func TestClientRetriesExhaust(t *testing.T) {
	var attempts atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"code":"shutting_down","message":"draining","retryable":true}` + "\n"))
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}))
	_, err := c.Query(context.Background(), count("d", 0.1))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "shutting_down" {
		t.Fatalf("got %v, want shutting_down APIError", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}
}

// TestClientTimeoutHeader: a caller deadline (or WithTimeout default)
// is advertised to the server via X-DP-Timeout-Ms.
func TestClientTimeoutHeader(t *testing.T) {
	var sawMs atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(api.TimeoutHeader), 10, 64)
		sawMs.Store(ms)
		json.NewEncoder(w).Encode(api.QueryResponse{Values: []float64{1}})
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithTimeout(30*time.Second), WithRetryPolicy(NoRetry()))
	if _, err := c.Query(context.Background(), count("d", 0.1)); err != nil {
		t.Fatal(err)
	}
	if ms := sawMs.Load(); ms <= 0 || ms > 30_000 {
		t.Fatalf("advertised timeout %dms, want (0, 30000]", ms)
	}

	// An explicit caller deadline wins over the client default.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, count("d", 0.1)); err != nil {
		t.Fatal(err)
	}
	if ms := sawMs.Load(); ms <= 0 || ms > 5_000 {
		t.Fatalf("advertised timeout %dms, want (0, 5000]", ms)
	}
}

// TestClientContextCancelStopsRetries: a cancelled context aborts the
// retry loop immediately.
func TestClientContextCancelStopsRetries(t *testing.T) {
	var attempts atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"code":"overloaded","message":"busy","retryable":true}` + "\n"))
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithRetryPolicy(RetryPolicy{
		MaxAttempts: 10, BaseBackoff: time.Hour, MaxBackoff: time.Hour,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, count("d", 0.1))
		done <- err
	}()
	// Let the first attempt land, then cancel during the 1h backoff.
	for attempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("attempts = %d, want 1", n)
	}
}

// TestNewIdempotencyKeyFallback pins the no-panic contract: if
// crypto/rand fails, keys must still be minted — unique and clearly
// marked — because an idempotency key deduplicates retries rather
// than guarding a secret, and crashing the caller over entropy is
// strictly worse.
func TestNewIdempotencyKeyFallback(t *testing.T) {
	orig := randRead
	randRead = func([]byte) (int, error) { return 0, errors.New("entropy pool on fire") }
	defer func() { randRead = orig }()

	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		key := NewIdempotencyKey()
		if key == "" {
			t.Fatal("fallback produced an empty key")
		}
		if !strings.HasPrefix(key, "fallback-") {
			t.Fatalf("fallback key %q should be marked as such", key)
		}
		if seen[key] {
			t.Fatalf("fallback key %q repeated", key)
		}
		seen[key] = true
	}

	randRead = orig
	key := NewIdempotencyKey()
	if strings.HasPrefix(key, "fallback-") || len(key) != 32 {
		t.Fatalf("healthy path should mint 16 random bytes hex-encoded, got %q", key)
	}
}
