// Package dpserver implements the paper's mediated-trace-analysis
// deployment model as an HTTP service: the data owner hosts raw
// traces, analysts submit declarative queries over the network, and
// only noisy aggregates ever leave — with per-analyst and total
// privacy budgets enforced by the §7 policy machinery.
//
// The wire protocol is JSON over HTTP (stdlib net/http only), mounted
// under /v1. Analysts call:
//
//	POST /v1/query                   run one differentially-private query
//	GET  /v1/budget?dataset=&analyst=   an analyst's remaining allowance
//	/v1/standing/{dataset}[/{id}[/results]]   standing queries
//
// A query names the analyst (authentication is out of scope — wire it
// to your ingress), the dataset, the query kind, its ε, and optional
// record filters:
//
//	{"analyst":"alice","dataset":"hotspot","query":"hosts",
//	 "epsilon":0.1,"filter":{"dstPort":80},"minBytes":1024}
//
// Refused queries (budget exhausted) return 403 with the remaining
// allowance; they consume nothing, and the refusal is data-independent
// (unlike the bit-leakage schemes the paper critiques, it reveals only
// the analyst's own spending). X-DP-Explain adds the query's redacted
// execution profile to the response.
//
// The data owner operating the server as a long-lived service has the
// owner-facing routes (Route.Owner) — shield them at the ingress:
//
//	GET  /v1/datasets       every dataset: size, budget state, per-analyst usage
//	GET  /v1/audit          the query ledger (?analyst=&dataset=&outcome=&limit=)
//	POST /v1/ingest/{dataset}   append a record batch
//	POST /v1/admin/promote  promote a replication follower
//	GET  /v1/metrics        Prometheus text exposition
//	GET  /v1/healthz        liveness: uptime, dataset count, goroutines
//	GET  /v1/readyz         readiness
//	GET  /v1/debug/queries  ring of recent wide events (?n= limit)
//	/debug/pprof/*          optional; mount with Handler(WithPprof())
//
// The audit trail is the ledger's fold of its journal, kept once: with
// a durable ledger (WithLedger), a primary, a restarted server and a
// follower list the same entries.
//
// Everything an analyst-facing route returns, outside its noisy
// values, is the same on neighbouring datasets
// (TestAnalystRoutesNeighbourDiff).
package dpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/standing"
	"dptrace/internal/trace"
)

// Server hosts protected datasets behind the query API.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset // every hosted packet trace, by name
	src      noise.Source

	// ledger folds everything the server journals — charges, audit
	// records, stored replies, standing queries — and is the one record
	// of them every surface reads (see persist.go). Charges are staged
	// as they happen and committed before the answer they paid for is
	// released. WithLedger attaches a durable ledger, replayed on
	// restart; without it the ledger runs over vfs.Discard and keeps
	// nothing. durable is set by WithLedger: only such a ledger can
	// serve a follower's catch-up.
	ledger  *ledger.Ledger
	durable bool

	// repl is the replication role (see repl.go): nil handles mean
	// standalone. replMu guards the rare role transitions
	// (StartReplication, Promote) against concurrent handler reads.
	replMu sync.Mutex
	repl   replState

	start     time.Time
	metrics   *obs.Registry
	engineRec obs.Recorder // aggregates engine telemetry into metrics

	// Request lifecycle (see lifecycle.go).
	limits        Limits
	sem           chan struct{} // concurrency slots; nil = unlimited
	lifecycleMu   sync.Mutex    // guards draining + inflight.Add atomicity
	draining      bool
	inflight      sync.WaitGroup
	inflightGauge atomic.Int64
	idem          *idemCache

	// execHook, when set, runs at the top of every query execution
	// with the request's context. Tests use it to inject latency and
	// observe cancellation; production code leaves it nil.
	execHook func(context.Context)

	// execPacket executes one-shot and standing packet queries of a kind
	// looked up: runKind, unless a test runs a reference pipeline on a twin.
	execPacket func(*core.Queryable[trace.Header], *queryKind, *api.QueryRequest) (*api.QueryResponse, error)

	// exec is the execution width of every query on every dataset:
	// GOMAXPROCS workers above core.DefaultParallelThreshold records.
	// Results, draws and charges do not depend on it (core/exec.go), so
	// nothing configures it; tests overwrite it before serving.
	exec core.ExecOptions

	// events is the server's wide-event spine: every operational
	// occurrence — query completions, panics, sheds, degrade
	// transitions, ledger freezes, drains — is one typed structured
	// event (see internal/obs/qlog). Always non-nil after New; the
	// ring behind it backs GET /debug/queries.
	events *qlog.Logger

	// degradedNoted tracks the last observed degrade state so the
	// entered/exited transition events fire exactly once per flip.
	degradedNoted atomic.Bool

	// analystGauges remembers which (dataset, analyst) burn-rate
	// gauges are registered, so each is created once.
	analystGauges sync.Map // "dataset\x00analyst" -> struct{}

	// ingest is the bounded pipeline behind POST /v1/ingest/{dataset}
	// (see ingest.go), closed by Shutdown after the drain.
	ingest *ingest.Pipeline

	// standing is the continual-monitoring subsystem (see standing.go):
	// registered standing queries fire on deterministic window
	// boundaries as ingest advances each dataset's record watermark.
	standing *standing.Registry
}

// WithEventLog replaces the server's structured event logger — the
// way to direct the wide-event JSON stream at a file or stderr (see
// qlog.Options). Passing nil keeps the default ring-only logger.
func WithEventLog(l *qlog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.events = l
		}
	}
}

// Events returns the server's structured event logger (never nil).
func (s *Server) Events() *qlog.Logger { return s.events }

// New creates a server drawing noise from src (pass
// noise.NewCryptoSource() in production; tests use a seeded source).
// Options configure the request lifecycle: WithLimits for admission
// control and deadlines.
func New(src noise.Source, opts ...ServerOption) *Server {
	s := &Server{
		datasets: make(map[string]*dataset),
		src:      noise.NewLockedSource(src),
		start:    time.Now(),
		metrics:  obs.NewRegistry(),
		idem:     newIdemCache(),
		events:   qlog.New(qlog.Options{}),
		ingest:   ingest.New(ingest.Limits{}),

		execPacket: runKind,
		exec:       core.ExecOptions{Workers: runtime.GOMAXPROCS(0)},
	}
	s.standing = s.newStandingRegistry()
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	if !s.durable {
		s.ledger = memoryLedger()
	}
	s.attachLedger()
	if s.limits.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, s.limits.MaxConcurrent)
	}
	s.engineRec = obs.NewMetricsRecorder(s.metrics)
	s.metrics.GaugeFunc("dpserver_audit_entries", func() float64 {
		return float64(len(s.ledger.Audit()))
	})
	// Cumulative transformations executed under a parallel strategy
	// (process-wide; see core.ParallelExecutions). Reads as a counter.
	s.metrics.GaugeFunc("dp_parallel_exec_total", func() float64 {
		return float64(core.ParallelExecutions())
	})
	// Query requests currently holding a concurrency slot.
	s.metrics.GaugeFunc("dp_inflight", func() float64 {
		return float64(s.inflightGauge.Load())
	})
	// 1 while spending endpoints shed fail-closed (frozen or degraded
	// ledger); read-only endpoints keep serving. Alert on this. A
	// healthy follower reads 0 — its shedding is a role, not damage.
	s.metrics.GaugeFunc("dp_degraded", func() float64 {
		if s.ledger.Refusing() != nil {
			return 1
		}
		return 0
	})
	s.metrics.GaugeFunc("dp_ingest_bytes_inflight", func() float64 {
		return float64(s.ingest.Stats().BytesInFlight)
	})
	s.metrics.GaugeFunc("dp_ingest_batches_inflight", func() float64 {
		return float64(s.ingest.Stats().BatchesInFlight)
	})
	// Standing queries currently firing windows (any dataset).
	s.metrics.GaugeFunc("dp_standing_active", func() float64 {
		return float64(s.standing.Active())
	})
	return s
}

// ErrDatasetExists is returned when registering a dataset under a name
// that is already taken. Silently replacing would discard the old
// dataset's spent-budget ledger — exactly the state the privacy
// guarantee depends on — so collisions are refused.
var ErrDatasetExists = errors.New("dpserver: dataset already exists")

// Handler returns the HTTP handler for the query API. Every endpoint
// is mounted under /v1/, answers errors with the uniform {code,
// message, retryable} envelope, and reports request counts and latency
// to the server's metrics registry. The query-executing endpoints run
// behind the admission-control lifecycle (see lifecycle.go); read-only
// endpoints bypass it so health checks and scrapes keep working during
// drains and overload.
func (s *Server) Handler(opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		h := rt.handler(s)
		if rt.query {
			h = s.admit(h)
		}
		h = s.recoverPanics(h)
		mux.HandleFunc(rt.Method+" /v1"+rt.Path, s.instrument("/v1"+rt.Path, h))
	}
	if cfg.pprof {
		attachPprof(mux)
	}
	return mux
}

// Route describes one API route: its method, its path (mounted under
// /v1), and its audience. Every endpoint has exactly one /v1 mount — a
// test enforces it against this table.
type Route struct {
	Method string
	// Path is the path relative to /v1 (ServeMux pattern syntax;
	// {dataset} is a wildcard).
	Path string
	// Owner marks a route for the data owner only: it may show exact,
	// data-derived values (dataset sizes, operator record counts, the
	// audit trail). Every other route is analyst-facing, and
	// TestAnalystRoutesNeighbourDiff checks that it answers the same on
	// neighbouring datasets outside its noisy values.
	Owner bool

	query   bool // behind the admission lifecycle (admit)
	handler func(*Server) http.HandlerFunc
}

// routeTable is the single source of truth for what Handler mounts.
var routeTable = []Route{
	{Method: "GET", Path: "/datasets", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleDatasets }},
	{Method: "GET", Path: "/budget", handler: func(s *Server) http.HandlerFunc { return s.handleBudget }},
	{Method: "POST", Path: "/query", query: true, handler: func(s *Server) http.HandlerFunc { return s.handleQuery }},
	{Method: "GET", Path: "/audit", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleAudit }},
	{Method: "POST", Path: "/ingest/{dataset}", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleIngest }},
	{Method: "POST", Path: "/standing/{dataset}", query: true, handler: func(s *Server) http.HandlerFunc { return s.handleStandingRegister }},
	{Method: "GET", Path: "/standing/{dataset}", handler: func(s *Server) http.HandlerFunc { return s.handleStandingList }},
	{Method: "DELETE", Path: "/standing/{dataset}/{id}", query: true, handler: func(s *Server) http.HandlerFunc { return s.handleStandingCancel }},
	{Method: "GET", Path: "/standing/{dataset}/{id}/results", handler: func(s *Server) http.HandlerFunc { return s.handleStandingResults }},
	{Method: "POST", Path: "/admin/promote", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handlePromote }},
	{Method: "GET", Path: "/metrics", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleMetrics }},
	{Method: "GET", Path: "/healthz", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	{Method: "GET", Path: "/readyz", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleReadyz }},
	{Method: "GET", Path: "/debug/queries", Owner: true, handler: func(s *Server) http.HandlerFunc { return s.handleDebugQueries }},
}

// Routes returns the mounted route table (a copy).
func Routes() []Route {
	out := make([]Route, len(routeTable))
	copy(out, routeTable)
	return out
}

// finiteOrUnlimited maps +Inf (an unlimited budget) to the JSON
// sentinel -1.
func finiteOrUnlimited(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	// Ledger-side totals per dataset+analyst, folded into the listing.
	type ledgerKey struct{ dataset, analyst string }
	ledger := make(map[ledgerKey]*api.AnalystUsage)
	for _, e := range s.ledger.Audit() {
		k := ledgerKey{e.Dataset, e.Analyst}
		u := ledger[k]
		if u == nil {
			u = &api.AnalystUsage{Analyst: e.Analyst}
			ledger[k] = u
		}
		u.Queries++
		u.Requested += e.Epsilon
		u.Charged += e.Charged
	}

	s.mu.RLock()
	infos := make([]api.DatasetInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		info := api.DatasetInfo{
			Name:           name,
			TotalSpent:     d.policy.TotalSpent(),
			TotalRemaining: finiteOrUnlimited(d.policy.TotalRemaining()),
			// The record count IS the watermark: the same monotonic
			// counter standing-query windows are defined against.
			Records:         int(d.watermark),
			IngestedBatches: d.ingestedBatches,
		}
		for analyst, spent := range d.policy.PerAnalystSpent() {
			u := api.AnalystUsage{Analyst: analyst, Spent: spent}
			if l := ledger[ledgerKey{name, analyst}]; l != nil {
				u.Queries, u.Requested, u.Charged = l.Queries, l.Requested, l.Charged
			}
			info.Analysts = append(info.Analysts, u)
		}
		sort.Slice(info.Analysts, func(i, j int) bool {
			return info.Analysts[i].Analyst < info.Analysts[j].Analyst
		})
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("dataset")
	analyst := r.URL.Query().Get("analyst")
	if name == "" || analyst == "" {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "dataset and analyst are required"})
		return
	}
	d, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown dataset %q", name)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{
		"spent":     d.policy.SpentBy(analyst),
		"remaining": finiteOrUnlimited(d.policy.RemainingFor(analyst)),
	})
}

func (s *Server) lookup(name string) (*dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

// watermark reads a dataset's record-sequence position under the
// server lock.
func (s *Server) watermark(d *dataset) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return d.watermark
}

// snapshot takes a view of a dataset's record log under the read
// lock. The view is immutable: ingest appends write only above the
// log's length and never move a record, so a query holding a snapshot
// sees a frozen dataset for its whole execution — its noise draws and
// ε-charges are byte-identical to a run against a static dataset with
// the same contents.
func snapshot(s *Server, l *core.Log[trace.Header]) core.LogView[trace.Header] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return l.View()
}

// decodeJSON decodes a request body strictly — an unknown field is an
// error — writing a 400 on failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "bad request: " + err.Error()})
		return false
	}
	return true
}

// handleQuery serves POST /v1/query: it admits one spending query, then
// runs it through the envelope, at most once per idempotency key.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" || req.Dataset == "" {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst and dataset are required"})
		return
	}
	if req.Epsilon <= 0 {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "epsilon must be positive"})
		return
	}
	// An unknown kind, or parameters the kind could never execute with,
	// are refused at the door: nothing is audited, journaled or charged.
	k, err := kindFor(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
		return
	}
	d, ok := s.datasetFor(w, req.Dataset)
	if !ok {
		return
	}
	endpoint := strings.TrimPrefix(r.URL.Path, "/v1")
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) execResult {
			return s.execute(ctx, endpoint, explain, d, k, &req)
		})
}

// datasetFor resolves the dataset a request names, writing a 404 when
// no dataset has the name.
func (s *Server) datasetFor(w http.ResponseWriter, name string) (*dataset, bool) {
	d, ok := s.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown dataset %q", name)})
	}
	return d, ok
}

// execute runs one spending query to completion under ctx — the one
// envelope behind /v1/query: snapshot the dataset, meter the analyst's
// agent, record the engine and the profile, run the kind, audit what it
// charged, then complete the success body with the analyst's budget
// and, when explain is set, the redacted profile (explaining changes no
// accounting and no ledger traffic). Its charge is read off its own
// agent. Every outcome may be replayed for an idempotency key but a
// cancellation that charged nothing, which a retry should execute. What
// it journals is staged: the caller releases the result through
// Server.settle, which also emits the execution's one "query" event.
func (s *Server) execute(ctx context.Context, endpoint string, explain bool, d *dataset, k *queryKind, req *api.QueryRequest) execResult {
	start := time.Now()
	if s.execHook != nil {
		s.execHook(ctx)
	}
	agent := &meteredAgent{inner: d.policy.AgentFor(req.Analyst)}
	prof := obs.NewProfileRecorder(agent.charged)
	rec := obs.Multi(s.engineRec, prof)
	resp, err := s.execPacket(open(s, d.packets, agent, rec, ctx), k, req)
	done := queryOutcome{
		endpoint: endpoint, analyst: req.Analyst, dataset: req.Dataset,
		query: req.Query, epsilon: req.Epsilon, started: start,
		idempotency: idemStatus(req.IdempotencyKey), policy: d.policy, agent: agent,
		outcome: "ok", status: http.StatusOK, charged: agent.charged(), profile: prof.Profile(),
	}
	remaining := finiteOrUnlimited(d.policy.RemainingFor(req.Analyst))
	if err != nil {
		if errors.Is(err, core.ErrInternal) {
			// A panic recovered at the aggregation boundary (a scan
			// worker's or the mechanism's): the request gets a clean 500
			// and the process lives, but the panic is still a bug —
			// count and log it like one the HTTP middleware caught.
			s.metrics.Counter("dp_panics_total", "site", "aggregation").Inc()
			s.events.Log(qlog.Error, "panic_recovered",
				qlog.F("site", "aggregation"),
				qlog.F("analyst", req.Analyst),
				qlog.F("dataset", req.Dataset),
				qlog.F("query", req.Query),
				qlog.F("error", err.Error()))
		}
		done.outcome = auditOutcome(err)
		var ae apiError
		done.status, ae = classify(err, remaining, done.charged)
		s.recordAudit(&done)
		return s.queryResult(done, marshalJSON(ae), !(done.outcome == "canceled" && done.charged == 0))
	}
	s.recordAudit(&done)
	if explain {
		resp.Profile = done.profile.Redact()
	}
	resp.Spent, resp.Remaining = d.policy.SpentBy(req.Analyst), remaining
	return s.queryResult(done, marshalJSON(resp), true)
}

// open builds a query's Queryable over a snapshot of l, behind agent,
// recording to rec and bounded by ctx, at the server's execution width.
func open(s *Server, l *core.Log[trace.Header], agent core.Agent, rec obs.Recorder, ctx context.Context) *core.Queryable[trace.Header] {
	return core.NewQueryableForView(snapshot(s, l), agent, s.src).
		WithRecorder(rec).WithExecOptions(s.exec).WithContext(ctx)
}

// marshalJSON renders a success body exactly as writeJSON would,
// with the trailing newline json.Encoder emits.
func marshalJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// RunPacketQuery executes one packet query kind over q, for dpquery's
// local mode and tests: it looks req's kind up in the kind table, checks
// its parameters, and runs it as runKind does for POST /v1/query and
// standing windows, which look the kind up once. Most kinds never copy a
// record: count, srcfreq (a filtered count) and lenquantile aggregate
// straight off the chunk loop, hosts folds each source's byte total as
// the chunks go by (GroupFold), distinctsrc keeps each source once
// (Distinct) in front of its registers, and lencdf / portcdf count
// Partition's parts. medianlen collects the records once to sort their
// lengths; rttcdf and losscdf Materialize() once, in front of the Join
// and GroupBy that need the records.
func RunPacketQuery(q *core.Queryable[trace.Header], req *api.QueryRequest) (*api.QueryResponse, error) {
	k, err := kindFor(req)
	if err != nil {
		return nil, err
	}
	return runKind(q, k, req)
}

// runKind runs kind k, which req names and which has checked req's
// parameters, from the request filter as a fused stage over q.
func runKind(q *core.Queryable[trace.Header], k *queryKind, req *api.QueryRequest) (*api.QueryResponse, error) {
	var match func(trace.Header) bool // nil without a filter: every packet passes, unread
	if req.Filter != nil {
		match = func(p trace.Header) bool { return req.Filter.MatchHeader(&p) }
	}
	return k.run(q.Stream().Where(match), req)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
