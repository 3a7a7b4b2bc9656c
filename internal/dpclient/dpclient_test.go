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

func TestClientCountAndBudget(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, 10, 5)
	count, err := c.Count(ctx, "hotspot", 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count < 1000 {
		t.Errorf("implausible count %v", count)
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
	hosts, err := c.Hosts(context.Background(), "hotspot", 0.5, &dpserver.Filter{DstPort: &port}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if hosts < 10 {
		t.Errorf("implausible hosts %v", hosts)
	}
}

func TestClientCDFs(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, math.Inf(1), math.Inf(1))
	lens, err := c.LengthCDF(ctx, "hotspot", 1.0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lens.Values) == 0 || len(lens.Values) != len(lens.Buckets) {
		t.Fatalf("length CDF shape: %d/%d", len(lens.Values), len(lens.Buckets))
	}
	rtts, err := c.RTTCDF(ctx, "hotspot", 1.0, 10)
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
	if _, err := c.Count(ctx, "hotspot", 0.9, nil); err != nil {
		t.Fatal(err)
	}
	_, err := c.Count(ctx, "hotspot", 0.5, nil)
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
	if _, err := c.Count(ctx, "nope", 0.1, nil); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := c.Query(ctx, dpserver.QueryRequest{Dataset: "hotspot", Query: "zap", Epsilon: 1}); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestClientLoadMatrixAndMonitorAverages(t *testing.T) {
	ctx := context.Background()
	isp := tracegen.IspConfig{Seed: 5, Links: 8, Bins: 12, MeanPacketsPerBin: 40, NoiseFrac: 0.05}
	samples, _ := tracegen.IspTraffic(isp)
	scatter := tracegen.DefaultScatterConfig()
	scatter.IPsPerCluster = 40
	scatter.Clusters = 3
	scatter.Monitors = 5
	records, _ := tracegen.IPScatter(scatter)

	s := dpserver.New(noise.NewSeededSource(9, 10))
	s.AddLinkTrace("isp", samples, isp.Links, isp.Bins, math.Inf(1), math.Inf(1))
	s.AddHopTrace("scatter", records, scatter.Monitors, math.Inf(1), 1.5)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	c := New(ts.URL, "carol")
	mr, err := c.LoadMatrix(ctx, "isp", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Bins != isp.Bins || mr.Links != isp.Links || len(mr.Data) != isp.Bins*isp.Links {
		t.Fatalf("matrix shape %dx%d/%d", mr.Bins, mr.Links, len(mr.Data))
	}
	avgs, err := c.MonitorAverages(ctx, "scatter", 1.0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != scatter.Monitors {
		t.Fatalf("got %d averages", len(avgs))
	}
	// Second hop query exceeds the 1.5 cap.
	if _, err := c.MonitorAverages(ctx, "scatter", 1.0, 32); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-cap: %v", err)
	}
}

func TestClientObservability(t *testing.T) {
	ctx := context.Background()
	c := clientAndServer(t, 10, 5)

	// An explained query carries its redacted plan through the client.
	r, err := c.Explain(ctx, dpserver.QueryRequest{
		Dataset: "hotspot", Query: "count", Epsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile == nil || !r.Profile.Redacted || len(r.Profile.Ops) == 0 || r.Profile.Ops[0].Op != "where" {
		t.Fatalf("explained query returned profile %+v, want a redacted plan opening with where", r.Profile)
	}

	// Plain queries do not.
	r, err = c.Query(ctx, dpserver.QueryRequest{
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

	median, err := c.LengthQuantile(ctx, "hotspot", 5, 0.5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if median <= 0 || median > 1500 {
		t.Errorf("implausible median packet length %v", median)
	}
	p99, err := c.LengthQuantile(ctx, "hotspot", 5, 0.99, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < median {
		t.Errorf("p99 %v below median %v", p99, median)
	}

	if _, err := c.SourceFrequency(ctx, "hotspot", 5, "10.0.0.1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, dpserver.QueryRequest{
		Dataset: "hotspot", Query: "srcfreq", Epsilon: 1,
	}); err == nil {
		t.Error("srcfreq without key should fail")
	}

	distinct, err := c.DistinctSources(ctx, "hotspot", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if distinct < 2 {
		t.Errorf("implausible distinct sources %v", distinct)
	}

	// The filter runs as a fused stage: Explain shows a "fused" where
	// row and the quantile aggregation row, with the ε charge intact.
	r, err := c.Explain(ctx, dpserver.QueryRequest{
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
		var req dpserver.QueryRequest
		json.NewDecoder(r.Body).Decode(&req)
		keys <- req.IdempotencyKey
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"code":"overloaded","message":"at capacity","retryable":true}` + "\n"))
			return
		}
		json.NewEncoder(w).Encode(dpserver.QueryResponse{Values: []float64{42}})
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	}))
	v, err := c.Count(context.Background(), "d", 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
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
	_, err := c.Count(context.Background(), "d", 0.1, nil)
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
	_, err := c.Count(context.Background(), "d", 0.1, nil)
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
		ms, _ := strconv.ParseInt(r.Header.Get(dpserver.TimeoutHeader), 10, 64)
		sawMs.Store(ms)
		json.NewEncoder(w).Encode(dpserver.QueryResponse{Values: []float64{1}})
	}))
	defer fake.Close()

	c := New(fake.URL, "alice", WithTimeout(30*time.Second), WithRetryPolicy(NoRetry()))
	if _, err := c.Count(context.Background(), "d", 0.1, nil); err != nil {
		t.Fatal(err)
	}
	if ms := sawMs.Load(); ms <= 0 || ms > 30_000 {
		t.Fatalf("advertised timeout %dms, want (0, 30000]", ms)
	}

	// An explicit caller deadline wins over the client default.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Count(ctx, "d", 0.1, nil); err != nil {
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
		_, err := c.Count(ctx, "d", 0.1, nil)
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
