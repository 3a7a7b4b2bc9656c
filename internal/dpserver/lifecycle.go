package dpserver

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
)

// This file is the request-lifecycle layer that makes the query API
// safe to operate under real traffic: per-request deadlines, a
// concurrency limiter with bounded wait and load shedding, graceful
// shutdown that drains in-flight queries, and — the DP-specific piece
// — idempotency keys giving budget-spending requests at-most-once
// ε-spend semantics. The privacy invariant it protects: a client that
// retries an ambiguous failure must never double-charge the budget,
// and a request cancelled before its aggregation fires charges
// nothing (see internal/core's cancellation contract).

// Limits configures the server's admission control. The zero value
// imposes nothing: no concurrency cap, no default deadline.
type Limits struct {
	// MaxConcurrent caps concurrently-executing query requests
	// (POST /v1/query and friends; read-only endpoints are exempt).
	// Zero means unlimited.
	MaxConcurrent int
	// QueueWait bounds how long an over-limit request waits for a slot
	// before being shed with 429. Zero sheds immediately.
	QueueWait time.Duration
	// DefaultTimeout is the per-request execution deadline applied
	// when the client sends none. Zero means no deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (the
	// X-DP-Timeout-Ms header). Zero means clients may ask for any
	// deadline.
	MaxTimeout time.Duration
	// SlowQuery is the slow-query log threshold: a completed execution
	// taking at least this long additionally emits a "slow_query"
	// warning event. Zero disables the slow-query log.
	SlowQuery time.Duration
}

// ServerOption configures New.
type ServerOption func(*Server)

// WithLimits installs admission-control limits (see Limits).
func WithLimits(l Limits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// retryAfter is the Retry-After hint, in whole seconds, on every 429
// and 503.
const retryAfter = "1"

// Error codes of the v1 envelope (defined in the api package; clients
// branch on these, not on message text).
const (
	codeBadRequest       = api.CodeBadRequest
	codeNotFound         = api.CodeNotFound
	codeBudgetExhausted  = api.CodeBudgetExhausted
	codeCanceled         = api.CodeCanceled
	codeDeadlineExceeded = api.CodeDeadlineExceeded
	codeOverloaded       = api.CodeOverloaded
	codeShuttingDown     = api.CodeShuttingDown
	codeLedgerRefused    = api.CodeLedgerRefused
	codeTooLarge         = api.CodeTooLarge
	codeInternal         = api.CodeInternal
)

// apiError is the uniform v1 error envelope (api.Error): a stable
// code, a human message, and whether a retry can succeed.
type apiError = api.Error

// writeError writes the error envelope e as the response.
func writeError(w http.ResponseWriter, status int, e apiError) {
	writeRaw(w, status, marshalJSON(e))
}

// writeRaw writes a pre-marshaled JSON body — the replay path for
// idempotent requests, which must be byte-identical across retries.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// classify maps a query-execution error to its HTTP status and v1
// envelope. remaining is the analyst's post-failure allowance and
// charged the ε the failed execution still consumed (partial
// multi-aggregation runs).
func classify(err error, remaining, charged float64) (int, apiError) {
	e := apiError{Message: err.Error(), Remaining: remaining, Charged: charged}
	switch {
	case errors.Is(err, core.ErrBudgetExceeded):
		e.Code = codeBudgetExhausted
		return http.StatusForbidden, e
	case errors.Is(err, core.ErrJournal):
		// The durable ledger refused to journal the spend, so the
		// charge was refused (fail closed). Transient causes (disk
		// pressure) may clear; a frozen ledger will not.
		e.Code = codeLedgerRefused
		e.Retryable = true
		return http.StatusServiceUnavailable, e
	case errors.Is(err, context.DeadlineExceeded):
		e.Code = codeDeadlineExceeded
		// Nothing (or only a reported partial charge) was spent; the
		// client may retry with a longer deadline.
		e.Retryable = charged == 0
		return http.StatusGatewayTimeout, e
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled):
		e.Code = codeCanceled
		e.Retryable = charged == 0
		// 499 is the de-facto "client closed request" status; the
		// client is usually gone, but the audit trail still matters.
		return 499, e
	case errors.Is(err, core.ErrInternal):
		// A recovered panic inside the engine. Same ε-contract as
		// cancellation: panics before agent.Apply charged nothing and a
		// retry is safe; with a charge standing the client must decide.
		e.Code = codeInternal
		e.Retryable = charged == 0
		return http.StatusInternalServerError, e
	default:
		e.Code = codeBadRequest
		return http.StatusBadRequest, e
	}
}

// auditOutcome is the ledger outcome for a failed execution.
func auditOutcome(err error) string {
	switch {
	case errors.Is(err, core.ErrBudgetExceeded):
		return "refused"
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// requestContext derives the execution context for one query request:
// the client's own context (so disconnects cancel work) bounded by the
// effective deadline — the client's X-DP-Timeout-Ms capped at
// Limits.MaxTimeout, else Limits.DefaultTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.limits.DefaultTimeout
	if h := r.Header.Get(api.TimeoutHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if max := s.limits.MaxTimeout; max > 0 && (timeout <= 0 || timeout > max) {
		timeout = max
	}
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// draining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	return s.draining
}

// enter registers one in-flight query request, refusing when the
// server is draining. The draining check and the WaitGroup add are
// atomic so Shutdown's Wait cannot miss a request it let in.
func (s *Server) enter() bool {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// acquire takes a concurrency slot, waiting at most Limits.QueueWait.
// It reports false when the request should be shed.
func (s *Server) acquire(ctx context.Context) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.limits.QueueWait <= 0 {
		return false
	}
	t := time.NewTimer(s.limits.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// admit wraps a query-executing endpoint with the full lifecycle:
// drain refusal (503), concurrency limiting with bounded wait and
// shedding (429 + Retry-After + dp_shed_total), in-flight tracking
// for Shutdown, and the per-request execution deadline. Read-only
// endpoints are mounted without it — health checks and scrapes keep
// working while a drain is in progress.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		endpoint := strings.TrimPrefix(r.URL.Path, "/v1")
		if !s.enter() {
			s.events.Log(qlog.Warn, "query_shed",
				qlog.F("endpoint", endpoint), qlog.F("reason", "shutting_down"))
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusServiceUnavailable, apiError{
				Code: codeShuttingDown, Message: "server is shutting down", Retryable: true,
			})
			return
		}
		defer s.inflight.Done()
		s.noteDegraded(s.ledger.Refusing())
		if cause := s.spendRefusal(); cause != nil {
			// Fail closed: no spend can be journaled right now — the
			// ledger refuses appends (frozen history or a runtime
			// journal failure), this node is a replication follower,
			// or the primary lacks its synchronous quorum. Shed before
			// burning a concurrency slot or touching the budget;
			// read-only endpoints are mounted without admit and keep
			// serving.
			code, msg := shedCodeFor(cause)
			s.events.Log(qlog.Warn, "query_shed",
				qlog.F("endpoint", endpoint), qlog.F("reason", code),
				qlog.F("cause", cause.Error()))
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusServiceUnavailable, apiError{
				Code: code, Message: msg, Retryable: true,
			})
			return
		}
		if !s.acquire(r.Context()) {
			s.metrics.Counter("dp_shed_total", "endpoint", endpoint).Inc()
			s.events.Log(qlog.Warn, "query_shed",
				qlog.F("endpoint", endpoint), qlog.F("reason", "overloaded"))
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusTooManyRequests, apiError{
				Code: codeOverloaded, Message: "concurrency limit reached; retry later", Retryable: true,
			})
			return
		}
		defer s.release()
		s.inflightGauge.Add(1)
		defer s.inflightGauge.Add(-1)
		ctx, cancel := s.requestContext(r)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// Shutdown drains the server: new query requests are refused with 503
// shutting_down while in-flight ones run to completion (or until ctx
// expires, whichever is first). Read-only endpoints stay available.
// It is the caller's job to stop the listener afterwards
// (http.Server.Shutdown composes naturally around it).
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifecycleMu.Lock()
	already := s.draining
	s.draining = true
	s.lifecycleMu.Unlock()
	start := time.Now()
	if !already {
		s.events.Log(qlog.Info, "drain_started",
			qlog.F("inflight", s.inflightGauge.Load()))
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every admitted ingest batch is now answered; stop the
		// pipeline so later batches answer 503.
		s.ingest.Close()
		if !already {
			s.events.Log(qlog.Info, "drain_completed",
				qlog.F("duration_ms", durationMs(time.Since(start))))
		}
		return nil
	case <-ctx.Done():
		s.ingest.Close()
		if !already {
			s.events.Log(qlog.Warn, "drain_completed",
				qlog.F("duration_ms", durationMs(time.Since(start))),
				qlog.F("error", ctx.Err().Error()))
		}
		return ctx.Err()
	}
}

// --- idempotency -----------------------------------------------------

// idemKey identifies one logical budget-spending request. The request
// path scopes it (each route answers its own body shape), and
// dataset+analyst scope it to one ledger so analysts cannot replay
// each other's responses.
type idemKey struct {
	endpoint string
	dataset  string
	analyst  string
	key      string
}

// idemEntry is one in-flight or completed execution. done closes when
// the outcome is known; cached reports whether status/body may be
// replayed (executions that charged nothing and were cancelled
// re-execute instead), and stored that they were read from the
// ledger's fold, so they are released only through a commit.
type idemEntry struct {
	done    chan struct{}
	status  int
	body    []byte
	cached  bool
	stored  bool
	expires time.Time
}

type idemRef struct {
	k idemKey
	e *idemEntry
}

// idemCache is the at-most-once table: concurrent duplicates of one key
// coalesce onto the first execution (singleflight) rather than racing
// the budget. A journaled reply (a query's, a standing registration's)
// leaves the table when its execution finishes — the ledger's fold is
// its one store, and begin reads it there. Only ingest ACKs, which are
// never journaled (ingestReply), stay, under a TTL and a FIFO capacity
// bound. Lock order is the table, then the ledger.
type idemCache struct {
	mu       sync.Mutex
	entries  map[idemKey]*idemEntry
	order    []idemRef // finished ingest ACKs, oldest first, for capacity eviction
	capacity int
	ttl      time.Duration
	now      func() time.Time // test seam
}

func newIdemCache() *idemCache {
	return &idemCache{
		entries:  make(map[idemKey]*idemEntry),
		capacity: 1024,
		ttl:      10 * time.Minute,
		now:      time.Now,
	}
}

// begin claims key k. The first caller (leader=true) must execute the
// request and call finish; later callers get the same entry and wait
// on entry.done for the leader's outcome. A key with no entry in the
// table whose reply the ledger holds (never an ingest ACK's) gets a
// finished, stored entry of its own. Reading the ledger under the
// table lock means a reply the leader staged is found in its entry or
// in the fold.
func (c *idemCache) begin(k idemKey, led *ledger.Ledger) (*idemEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		expired := false
		select {
		case <-e.done:
			expired = c.now().After(e.expires)
		default:
			// In-flight entries never expire.
		}
		if !expired {
			return e, false
		}
		delete(c.entries, k)
	}
	if !ingestReply(k.endpoint) {
		if rec, ok := led.Reply(k.endpoint, k.dataset, k.analyst, k.key); ok {
			e := &idemEntry{done: make(chan struct{}), status: rec.Status, body: rec.Body,
				cached: true, stored: true}
			close(e.done)
			return e, false
		}
	}
	e := &idemEntry{done: make(chan struct{})}
	c.entries[k] = e
	return e, true
}

// finish records the leader's outcome and wakes its waiters. A
// replayable ingest ACK stays in the table until its TTL or the
// capacity bound evicts it; every other entry leaves, since a journaled
// reply is read from the ledger and an outcome that is not replayable
// (cacheable=false) must let a retry re-execute.
func (c *idemCache) finish(k idemKey, e *idemEntry, status int, body []byte, cacheable bool) {
	c.mu.Lock()
	e.status = status
	e.body = body
	e.cached = cacheable
	e.expires = c.now().Add(c.ttl)
	if c.entries[k] == e {
		if cacheable && ingestReply(k.endpoint) {
			c.order = append(c.order, idemRef{k, e})
			c.evictLocked()
		} else {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// evictLocked enforces the capacity bound, oldest finished ACKs first.
// In-flight entries count toward it but are never evicted (that would
// strand their waiters).
func (c *idemCache) evictLocked() {
	for len(c.entries) > c.capacity && len(c.order) > 0 {
		ref := c.order[0]
		c.order = c.order[1:]
		if c.entries[ref.k] == ref.e { // else stale: the key expired and was re-claimed
			delete(c.entries, ref.k)
		}
	}
}

// execResult is what one execution hands back to serveIdempotent: the
// response status, its marshaled body, and whether the outcome may be
// replayed for an idempotency key. Nothing in it has been released
// yet — the records it journaled are only staged.
type execResult struct {
	status    int
	body      []byte
	cacheable bool
	// stage is the time the execution spent staging journal records.
	stage time.Duration
	// finish, when set, emits the execution's wide event. It runs after
	// the journal commit, with the status actually served and what the
	// journaling cost.
	finish func(status int, js journalStats)
}

// settle is the one point where an execution's outcome leaves the
// server: it stages the keyed reply (k non-nil, the outcome replayable,
// and not an ingest ACK — see ingestReply), commits everything the
// request journaled — one fsync and one quorum wait however many
// records that was — and only then returns what may be written to the
// client and replayed. A failed commit withholds the outcome: the
// client gets a retryable 503, nothing is replayed from the table, and
// the charges stand (ε is only ever over-counted). A retry reads the
// staged reply from the ledger and releases it through a commit of its
// own.
func (s *Server) settle(r *http.Request, k *idemKey, res execResult) execResult {
	js := journalStats{stage: res.stage}
	if k != nil && res.cacheable && !ingestReply(k.endpoint) {
		start := time.Now()
		s.recordIdemReply(*k, res.status, res.body, start.Add(s.idem.ttl))
		js.stage += time.Since(start)
	}
	if err := s.journalCommit(&js); err != nil {
		code, msg := shedCodeFor(err)
		s.events.Log(qlog.Error, "query_shed",
			qlog.F("endpoint", strings.TrimPrefix(r.URL.Path, "/v1")),
			qlog.F("reason", code), qlog.F("cause", "journal commit: "+err.Error()))
		res.status, res.cacheable = http.StatusServiceUnavailable, false
		res.body = marshalJSON(apiError{Code: code, Message: msg, Retryable: true})
	}
	if res.finish != nil {
		res.finish(res.status, js)
	}
	return res
}

// serveIdempotent runs exec at most once per (endpoint, dataset,
// analyst, key), replaying the stored response on retries. Without a
// key, exec simply runs. Either way the outcome passes through settle
// before a byte of it reaches the client or a concurrent duplicate
// waiting on the same key, and so does a reply read from the ledger:
// its leader's commit may have failed or timed out, and the bytes
// leave only once a commit covers them.
func (s *Server) serveIdempotent(w http.ResponseWriter, r *http.Request, dataset, analyst, key string,
	exec func(ctx context.Context) execResult) {
	ctx := r.Context()
	if key == "" {
		res := s.settle(r, nil, exec(ctx))
		writeRaw(w, res.status, res.body)
		return
	}
	k := idemKey{endpoint: r.URL.Path, dataset: dataset, analyst: analyst, key: key}
	for {
		e, leader := s.idem.begin(k, s.ledger)
		if leader {
			s.metrics.Counter("dp_idem_misses_total").Inc()
			res := s.settle(r, &k, exec(ctx))
			s.idem.finish(k, e, res.status, res.body, res.cacheable)
			writeRaw(w, res.status, res.body)
			return
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			status, ae := classify(canceledBy(ctx), 0, 0)
			writeError(w, status, ae)
			return
		}
		if !e.cached {
			// The leader's outcome was not replayable; take another turn.
			continue
		}
		if e.stored {
			if res := s.settle(r, nil, execResult{status: e.status, body: e.body, cacheable: true}); !res.cacheable {
				writeRaw(w, res.status, res.body)
				return
			}
		}
		s.metrics.Counter("dp_idem_hits_total").Inc()
		s.events.Log(qlog.Info, "query_replayed",
			qlog.F("endpoint", r.URL.Path),
			qlog.F("analyst", analyst),
			qlog.F("dataset", dataset),
			qlog.F("status", e.status))
		writeRaw(w, e.status, e.body)
		return
	}
}

// canceledBy converts a done context into the error classify expects.
func canceledBy(ctx context.Context) error {
	return errors.Join(core.ErrCanceled, ctx.Err())
}
