// Package dpclient is the analyst's side of the mediated-analysis
// protocol: a typed HTTP client for internal/dpserver. It speaks the
// versioned v1 API, wraps the JSON endpoints in context-aware Go
// methods, surfaces budget refusals as ErrBudgetExceeded (with the
// remaining allowance), and carries the analyst identity on every
// request.
//
// Reliability is built in: every budget-spending call auto-attaches an
// idempotency key, so the retry policy (exponential backoff with
// jitter, honouring Retry-After) can safely re-send after sheds and
// transport failures without risking a double ε charge — the server
// replays the first execution's bytes.
package dpclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/retry"
)

// ErrBudgetExceeded reports a budget_exhausted refusal from the
// server. Match with errors.Is; the concrete error is an *APIError
// carrying the remaining allowance.
var ErrBudgetExceeded = errors.New("dpclient: privacy budget exceeded")

// APIError is a decoded v1 error envelope, plus the HTTP status it
// arrived with.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	Retryable  bool
	Remaining  float64
	Charged    float64

	// retryAfter carries the server's Retry-After hint to the retry
	// loop; unexported so the public struct mirrors the envelope.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code == "budget_exhausted" {
		return fmt.Sprintf("dpclient: %s: %s (remaining %.3f)", e.Code, e.Message, e.Remaining)
	}
	return fmt.Sprintf("dpclient: %s: %s", e.Code, e.Message)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match refusals.
func (e *APIError) Is(target error) bool {
	return target == ErrBudgetExceeded && e.Code == "budget_exhausted"
}

// RetryPolicy controls how calls retry shed (429), draining (503) and
// transport failures. Other failures — refusals, validation errors,
// deadline overruns — are never retried by the client; re-sending them
// cannot change the answer. A Retry-After hint from the server
// overrides the computed backoff when longer.
//
// The backoff/jitter engine lives in internal/retry, shared with the
// replication follower's reconnect loop.
type RetryPolicy = retry.Policy

// DefaultRetryPolicy retries up to 3 times after the first attempt,
// starting at 100ms and backing off to 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.2}
}

// NoRetry disables retries: one attempt, errors surface immediately.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// Client queries one server as one analyst.
type Client struct {
	baseURL string
	analyst string
	http    *http.Client
	retry   RetryPolicy
	timeout time.Duration

	// ingestID mints (source, seq) batch identities for live
	// ingestion (see ingest.go); pointer so Client copies stay cheap.
	ingestID *ingestIdentity
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default
// http.DefaultClient).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) {
		if h != nil {
			c.http = h
		}
	}
}

// WithTimeout sets a default per-call deadline applied whenever the
// caller's context has none. The deadline is also advertised to the
// server via X-DP-Timeout-Ms so it can cancel execution server-side.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetryPolicy replaces the default retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New creates a client for the server at baseURL acting as analyst.
func New(baseURL, analyst string, opts ...Option) *Client {
	c := &Client{
		baseURL:  baseURL,
		analyst:  analyst,
		http:     http.DefaultClient,
		retry:    DefaultRetryPolicy(),
		ingestID: &ingestIdentity{},
	}
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	return c
}

// randRead is crypto/rand.Read behind a test seam, so the fallback
// path below is coverable without breaking the process's entropy.
var randRead = rand.Read

// fallbackKeyCounter disambiguates fallback keys minted within one
// nanosecond tick.
var fallbackKeyCounter atomic.Uint64

// NewIdempotencyKey returns a fresh random key for at-most-once
// queries. Query and Explain call it automatically when the request
// carries none; set your own to deduplicate across
// client instances or process restarts.
//
// If crypto/rand fails (it essentially never does on a healthy OS),
// the key falls back to a pid+timestamp+counter construction instead
// of panicking: idempotency keys deduplicate retries, they are not
// secrets, so a unique-but-predictable key degrades gracefully while a
// crash would take the caller's process with it.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := randRead(b[:]); err != nil {
		n := fallbackKeyCounter.Add(1)
		return fmt.Sprintf("fallback-%d-%x-%d", os.Getpid(), time.Now().UnixNano(), n)
	}
	return hex.EncodeToString(b[:])
}

// call performs one HTTP exchange with retries, returning the response
// body on any 200. Non-200 responses become *APIError; 429/503 and
// transport failures are retried per the policy, honouring Retry-After.
func (c *Client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.callWith(ctx, method, path, body, nil)
}

// callWith is call with extra request headers (X-DP-Explain and
// friends), applied identically on every retry attempt.
func (c *Client) callWith(ctx context.Context, method, path string, body []byte, headers map[string]string) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var lastErr error
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.retry.Delay(attempt - 1)
			var ae *APIError
			if errors.As(lastErr, &ae) && ae.StatusCode != 0 {
				if ra := ae.retryAfter; ra > delay {
					delay = ra
				}
			}
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("dpclient: %w (last attempt: %w)", ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		out, err, retriable := c.once(ctx, method, path, body, headers)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !retriable {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("dpclient: %w (last attempt: %w)", ctx.Err(), lastErr)
		}
	}
	return nil, lastErr
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, headers map[string]string) ([]byte, error, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("dpclient: %w", err), false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(api.TimeoutHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport failure: retriable unless the context ended it.
		return nil, fmt.Errorf("dpclient: %w", err), ctx.Err() == nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dpclient: reading response: %w", err), true
	}
	if resp.StatusCode == http.StatusOK {
		return out, nil, false
	}
	ae := &APIError{StatusCode: resp.StatusCode}
	if jsonErr := json.Unmarshal(out, ae); jsonErr != nil || ae.Code == "" {
		ae.Code = "http_" + strconv.Itoa(resp.StatusCode)
		ae.Message = string(bytes.TrimSpace(out))
	}
	if ra, raErr := strconv.Atoi(resp.Header.Get("Retry-After")); raErr == nil && ra > 0 {
		ae.retryAfter = time.Duration(ra) * time.Second
	}
	shed := resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
	return nil, ae, shed
}

// UnmarshalJSON maps the v1 envelope onto APIError.
func (e *APIError) UnmarshalJSON(b []byte) error {
	var env struct {
		Code      string  `json:"code"`
		Message   string  `json:"message"`
		Retryable bool    `json:"retryable"`
		Remaining float64 `json:"remaining"`
		Charged   float64 `json:"charged"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return err
	}
	e.Code, e.Message, e.Retryable = env.Code, env.Message, env.Retryable
	e.Remaining, e.Charged = env.Remaining, env.Charged
	return nil
}

// Result is a successful query's payload.
type Result struct {
	Values    []float64
	Buckets   []int64
	NoiseStd  float64
	Spent     float64
	Remaining float64 // -1 means unlimited
	// Profile is the query's execution profile, present on Explain
	// calls. It is redacted server-side (no record counts) and costs
	// no extra ε.
	Profile *obs.Profile
}

// Query runs one query: any kind the server's kind table declares
// (dpserver.PacketKinds), with the fields of api.QueryRequest. The
// analyst field is filled in by the client, and an idempotency key is
// attached when the request carries none so retries spend ε at most
// once.
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (*Result, error) {
	return c.query(ctx, req, nil)
}

// Explain is Query with the X-DP-Explain header set: the result
// additionally carries the server's execution profile — the operator
// plan, timings, strategies, and per-aggregation ε accounting.
// Explaining is free; the budget charge is identical to Query.
func (c *Client) Explain(ctx context.Context, req api.QueryRequest) (*Result, error) {
	return c.query(ctx, req, map[string]string{api.ExplainHeader: "true"})
}

func (c *Client) query(ctx context.Context, req api.QueryRequest, headers map[string]string) (*Result, error) {
	req.Analyst = c.analyst
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = NewIdempotencyKey()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dpclient: encoding request: %w", err)
	}
	out, err := c.callWith(ctx, http.MethodPost, "/v1/query", body, headers)
	if err != nil {
		return nil, err
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(out, &qr); err != nil {
		return nil, fmt.Errorf("dpclient: decoding response: %w", err)
	}
	return &Result{
		Values: qr.Values, Buckets: qr.Buckets, NoiseStd: qr.NoiseStd,
		Spent: qr.Spent, Remaining: qr.Remaining, Profile: qr.Profile,
	}, nil
}

// Budget reports the analyst's spent and remaining allowance on a
// dataset (remaining -1 means unlimited).
func (c *Client) Budget(ctx context.Context, dataset string) (spent, remaining float64, err error) {
	path := fmt.Sprintf("/v1/budget?dataset=%s&analyst=%s",
		url.QueryEscape(dataset), url.QueryEscape(c.analyst))
	out, err := c.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, 0, err
	}
	var body map[string]float64
	if err := json.Unmarshal(out, &body); err != nil {
		return 0, 0, fmt.Errorf("dpclient: decoding budget: %w", err)
	}
	return body["spent"], body["remaining"], nil
}

// Datasets lists the server's hosted datasets with their sizes and
// every analyst's usage. It is an owner-side route (see the dpserver
// package docs), for the data owner's tooling rather than analysts.
func (c *Client) Datasets(ctx context.Context) ([]api.DatasetInfo, error) {
	out, err := c.call(ctx, http.MethodGet, "/v1/datasets", nil)
	if err != nil {
		return nil, err
	}
	var infos []api.DatasetInfo
	if err := json.Unmarshal(out, &infos); err != nil {
		return nil, fmt.Errorf("dpclient: decoding datasets: %w", err)
	}
	return infos, nil
}

// Health fetches the server's GET /healthz status.
func (c *Client) Health(ctx context.Context) (*api.HealthStatus, error) {
	out, err := c.call(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	var hs api.HealthStatus
	if err := json.Unmarshal(out, &hs); err != nil {
		return nil, fmt.Errorf("dpclient: decoding healthz: %w", err)
	}
	return &hs, nil
}

// Ready fetches GET /v1/readyz without the retry loop: not-ready IS
// the answer, not a transient to paper over. The body decodes on both
// 200 and 503 — a follower answers 503 with Role "follower" and its
// replication lag, which is how a failover script decides the standby
// is safe to promote (LagSeq 0 = fully caught up).
func (c *Client) Ready(ctx context.Context) (*api.ReadyStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/readyz", nil)
	if err != nil {
		return nil, fmt.Errorf("dpclient: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dpclient: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dpclient: reading readyz: %w", err)
	}
	var rs api.ReadyStatus
	if err := json.Unmarshal(out, &rs); err != nil {
		return nil, fmt.Errorf("dpclient: decoding readyz (HTTP %d): %w", resp.StatusCode, err)
	}
	return &rs, nil
}

// Promote asks a follower to take over as primary (POST
// /v1/admin/promote): the replication stream is sealed, the WAL tail
// verified against a full replay, and the fencing epoch bumped before
// the first spend is accepted. Returns the new epoch.
func (c *Client) Promote(ctx context.Context) (uint64, error) {
	out, err := c.call(ctx, http.MethodPost, "/v1/admin/promote", nil)
	if err != nil {
		return 0, err
	}
	var pr api.PromoteResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return 0, fmt.Errorf("dpclient: decoding promote result: %w", err)
	}
	return pr.Epoch, nil
}

// RecentEvents fetches the server's ring of recent wide events
// (newest first); n ≤ 0 fetches everything the server holds. This is
// an owner-side surface — see the dpserver package docs.
func (c *Client) RecentEvents(ctx context.Context, n int) ([]qlog.Event, error) {
	path := "/v1/debug/queries"
	if n > 0 {
		path += "?n=" + url.QueryEscape(fmt.Sprint(n))
	}
	out, err := c.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var events []qlog.Event
	if err := json.Unmarshal(out, &events); err != nil {
		return nil, fmt.Errorf("dpclient: decoding events: %w", err)
	}
	return events, nil
}

// MetricsText fetches the server's Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	out, err := c.call(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(out), nil
}
