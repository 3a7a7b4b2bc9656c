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
//	POST /v1/query/loadmatrix        the noisy link×bin matrix
//	POST /v1/query/monitoravgs       per-monitor noisy hop averages
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
//	GET  /v1/datasets       datasets, sizes, budget state, per-analyst usage
//	GET  /v1/audit          the query ledger (?analyst=&dataset=&outcome=&limit=)
//	POST /v1/ingest/{dataset}   append a record batch
//	POST /v1/admin/promote  promote a replication follower
//	GET  /v1/metrics        Prometheus text exposition (?format=json)
//	GET  /v1/healthz        liveness: uptime, dataset count, goroutines
//	GET  /v1/readyz         readiness
//	GET  /v1/debug/queries  ring of recent wide events (?n= limit)
//	/debug/pprof/*          optional; mount with Handler(WithPprof())
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
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/analyses/packetdist"
	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/standing"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// Server hosts protected datasets behind the query API.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset
	linkSets map[string]*linkDataset
	hopSets  map[string]*hopDataset
	src      noise.Source
	audit    *auditLog

	// ledger, when attached (WithLedger), makes budget state durable:
	// charges are journaled as they happen, made durable before the
	// answer they paid for is released, and replayed on restart (see
	// persist.go). Nil keeps in-memory-only behavior.
	ledger *ledger.Ledger

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

	// execPacket executes one-shot and standing packet queries:
	// RunPacketQuery, unless a test runs a reference pipeline on a twin.
	execPacket func(*core.Queryable[trace.Packet], *QueryRequest) (*QueryResponse, error)

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

	// Live ingestion (see ingest.go): the bounded pipeline behind
	// POST /v1/ingest/{dataset}, started lazily on first batch and
	// closed by Shutdown after the drain.
	ingestLimits ingest.Limits
	ingestMu     sync.Mutex
	ingestPipe   *ingest.Pipeline
	ingestClosed bool

	// standing is the continual-monitoring subsystem (see standing.go):
	// registered standing queries fire on deterministic window
	// boundaries as ingest advances each dataset's record watermark.
	standing *standing.Registry
}

// WithEventLog replaces the server's structured event logger — the
// way to direct the wide-event JSON stream at a file or stderr, tune
// the ring size, or set sampling (see qlog.Options). Passing nil
// keeps the default ring-only logger.
func WithEventLog(l *qlog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.events = l
		}
	}
}

// Events returns the server's structured event logger (never nil).
func (s *Server) Events() *qlog.Logger { return s.events }

type dataset struct {
	// packets is the dataset's append-only record log. Ingest appends
	// under s.mu's write lock, never moving a record the log holds;
	// queries take a view of it once under the read lock and run
	// against that immutable snapshot (see snapshot).
	packets *core.Log[trace.Packet]
	policy  *core.AnalystPolicy
	// ingestedBatches counts batches applied via /v1/ingest (guarded
	// by s.mu like packets).
	ingestedBatches uint64
	// watermark is the dataset's monotonic record-sequence counter:
	// the registration packets plus every ingested record, advanced
	// exactly once per batch at ingest apply (guarded by s.mu). It is
	// the single clock standing-query windows and the /v1/datasets
	// record count read — on the live server it always equals
	// packets.Len(), but the watermark is the contractual stream
	// position while the log's length is an implementation detail.
	watermark uint64
}

// New creates a server drawing noise from src (pass
// noise.NewCryptoSource() in production; tests use a seeded source).
// Options configure the request lifecycle: WithLimits for admission
// control and deadlines, WithIdempotencyCache for the at-most-once
// replay cache.
func New(src noise.Source, opts ...ServerOption) *Server {
	s := &Server{
		datasets: make(map[string]*dataset),
		linkSets: make(map[string]*linkDataset),
		hopSets:  make(map[string]*hopDataset),
		src:      noise.NewLockedSource(src),
		audit:    new(auditLog),
		start:    time.Now(),
		metrics:  obs.NewRegistry(),
		idem:     newIdemCache(),
		events:   qlog.New(qlog.Options{}),

		execPacket: RunPacketQuery,
		exec:       core.ExecOptions{Workers: runtime.GOMAXPROCS(0)},
	}
	s.standing = s.newStandingRegistry()
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	if s.ledger != nil {
		s.restoreFromLedger()
	}
	if s.limits.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, s.limits.MaxConcurrent)
	}
	s.engineRec = obs.NewMetricsRecorder(s.metrics)
	s.metrics.GaugeFunc("dpserver_audit_entries", func() float64 {
		return float64(s.audit.len())
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
		if s.ledgerRefusal() != nil {
			return 1
		}
		return 0
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

// nameTaken reports whether any dataset kind holds name; callers hold
// s.mu.
func (s *Server) nameTaken(name string) bool {
	if _, ok := s.datasets[name]; ok {
		return true
	}
	if _, ok := s.linkSets[name]; ok {
		return true
	}
	_, ok := s.hopSets[name]
	return ok
}

// AddPacketTrace registers a copy of a packet trace under name with
// the given total and per-analyst privacy budgets: the dataset's log
// holds its own records, so ingest never writes into the caller's
// slice. It refuses (ErrDatasetExists) if the name is taken by any
// dataset kind: replacement would reset the spent-budget ledger and
// let analysts re-spend against the same records.
func (s *Server) AddPacketTrace(name string, packets []trace.Packet, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nameTaken(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &dataset{
		packets:   core.NewLog(packets),
		policy:    core.NewAnalystPolicy(totalBudget, perAnalystBudget),
		watermark: uint64(len(packets)),
	}
	if err := s.registerDataset(name, kindPacket, d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.datasets[name] = d
	// A follower does not schedule standing queries — it cannot spend.
	// The replication stream keeps the ledger's standing state current,
	// and Promote installs it fresh into the scheduler.
	if s.replFollowerHandle() == nil {
		s.restoreStanding(name)
	}
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

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
	{Method: "POST", Path: "/query/loadmatrix", query: true, handler: func(s *Server) http.HandlerFunc { return s.handleLoadMatrix }},
	{Method: "POST", Path: "/query/monitoravgs", query: true, handler: func(s *Server) http.HandlerFunc { return s.handleMonitorAverages }},
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

// The /v1 wire contract — request/response structs, the error
// envelope, codes, headers, and the query-kind registry — lives in
// the api subpackage, shared verbatim with internal/dpclient. The
// aliases below keep this package's exported surface (and every
// existing caller) intact.

// Filter restricts the packets a query sees (see api.Filter).
type Filter = api.Filter

// QueryRequest is the POST /v1/query body (see api.QueryRequest).
type QueryRequest = api.QueryRequest

// QueryResponse is the success body (see api.QueryResponse).
type QueryResponse = api.QueryResponse

// finiteOrUnlimited maps +Inf (an unlimited budget) to the JSON
// sentinel -1.
func finiteOrUnlimited(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// AnalystUsage summarizes one analyst's activity on one dataset (see
// api.AnalystUsage).
type AnalystUsage = api.AnalystUsage

// DatasetInfo describes one hosted dataset in GET /v1/datasets (see
// api.DatasetInfo).
type DatasetInfo = api.DatasetInfo

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	// Ledger-side totals per dataset+analyst, folded into the listing.
	type ledgerKey struct{ dataset, analyst string }
	ledger := make(map[ledgerKey]*AnalystUsage)
	for _, e := range s.audit.snapshot() {
		k := ledgerKey{e.Dataset, e.Analyst}
		u := ledger[k]
		if u == nil {
			u = &AnalystUsage{Analyst: e.Analyst}
			ledger[k] = u
		}
		u.Queries++
		u.Requested += e.Epsilon
		u.Charged += e.Charged
	}

	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		info := DatasetInfo{
			Name:           name,
			TotalSpent:     d.policy.TotalSpent(),
			TotalRemaining: finiteOrUnlimited(d.policy.TotalRemaining()),
			// The record count IS the watermark: the same monotonic
			// counter standing-query windows are defined against.
			Records:         int(d.watermark),
			IngestedBatches: d.ingestedBatches,
		}
		for analyst, spent := range d.policy.PerAnalystSpent() {
			u := AnalystUsage{Analyst: analyst, Spent: spent}
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
func snapshot[T any](s *Server, l *core.Log[T]) core.LogView[T] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return l.View()
}

// jsonDecoder builds the strict decoder shared by the query handlers.
func jsonDecoder(r *http.Request) *json.Decoder {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := jsonDecoder(r).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "bad request: " + err.Error()})
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
	d, ok := s.lookup(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown dataset %q", req.Dataset)})
		return
	}
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) execResult {
			return s.executeQuery(ctx, explain, d, &req)
		})
}

// executeQuery runs one packet-trace query to completion under ctx,
// returning the response status, its marshaled body, and whether the
// outcome may be replayed for an idempotency key. The one
// non-replayable outcome is a cancellation that charged nothing: a
// retry should execute, not be handed back its own timeout. The
// charges and the audit record it journals are staged, not durable:
// the caller releases the result through Server.settle.
//
// Every execution — success or failure — ends in exactly one "query"
// wide event carrying the full execution profile (see finishQuery),
// emitted by settle once the commit's cost is known.
// explain additionally returns the redacted profile to the analyst in
// the response envelope; it changes no budget accounting and no
// ledger traffic.
func (s *Server) executeQuery(ctx context.Context, explain bool, d *dataset, req *QueryRequest) execResult {
	start := time.Now()
	if s.execHook != nil {
		s.execHook(ctx)
	}
	// Every query executes under a profile recorder (feeding the wide
	// event and X-DP-Explain) and the server's metrics recorder.
	prof := obs.NewProfileRecorder(func() float64 { return d.policy.SpentBy(req.Analyst) })
	agent := &meteredAgent{inner: d.policy.AgentFor(req.Analyst)}
	q := core.NewQueryableForView(snapshot(s, d.packets), core.Agent(agent), s.src).
		WithRecorder(obs.Multi(s.engineRec, prof)).WithExecOptions(s.exec).WithContext(ctx)

	spentBefore := d.policy.SpentBy(req.Analyst)
	entry := AuditEntry{
		Analyst: req.Analyst, Dataset: req.Dataset,
		Query: req.Query, Epsilon: req.Epsilon,
	}
	done := queryOutcome{
		endpoint: "/query", analyst: req.Analyst, dataset: req.Dataset,
		query: req.Query, epsilon: req.Epsilon, started: start,
		idempotency: idemStatus(req.IdempotencyKey), policy: d.policy, agent: agent,
	}
	resp, err := s.execPacket(q, req)
	if err != nil {
		if errors.Is(err, core.ErrInternal) {
			// A panic recovered at the aggregation boundary (the worker
			// or recoverAgg guards): the request gets a clean 500 and
			// the process lives, but the panic is still a bug — count
			// and log it like one the HTTP middleware caught.
			s.metrics.Counter("dp_panics_total", "site", "aggregation").Inc()
			s.events.Log(qlog.Error, "panic_recovered",
				qlog.F("site", "aggregation"),
				qlog.F("analyst", req.Analyst),
				qlog.F("dataset", req.Dataset),
				qlog.F("query", req.Query),
				qlog.F("error", err.Error()))
		}
		charged := d.policy.SpentBy(req.Analyst) - spentBefore
		entry.Outcome = auditOutcome(err)
		entry.Charged = charged
		s.recordAudit(&done, entry)
		status, ae := classify(err, finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)), charged)
		cacheable := !(entry.Outcome == "canceled" && charged == 0)
		done.outcome, done.status, done.charged, done.profile = entry.Outcome, status, charged, prof.Profile()
		return s.queryResult(done, marshalJSON(ae), cacheable)
	}
	resp.Spent = d.policy.SpentBy(req.Analyst)
	resp.Remaining = finiteOrUnlimited(d.policy.RemainingFor(req.Analyst))
	entry.Outcome = "ok"
	entry.Charged = resp.Spent - spentBefore
	s.recordAudit(&done, entry)
	done.outcome, done.status, done.charged, done.profile = entry.Outcome, http.StatusOK, entry.Charged, prof.Profile()
	if explain {
		resp.Profile = done.profile.Redact()
	}
	return s.queryResult(done, marshalJSON(resp), true)
}

// marshalJSON renders a success body exactly as writeJSON would,
// with the trailing newline json.Encoder emits.
func marshalJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// RunPacketQuery executes one packet-trace query kind over q — the one
// executor behind POST /v1/query, standing windows and dpquery's local
// mode, covering exactly api.PacketQueryKinds(). Every kind starts from
// the request filter as a fused stage, q.Stream().Where(match), and
// most never copy a record: the record-wise kinds (count, medianlen,
// lenquantile, srcfreq) aggregate straight off the chunk loop, hosts
// folds each source's byte total as the chunks go by (GroupFold),
// distinctsrc keeps each source once (Distinct) in front of its
// registers, and lencdf / portcdf count Partition's parts. rttcdf and
// losscdf Materialize() once, in front of the Join and GroupBy that
// need the records.
func RunPacketQuery(q *core.Queryable[trace.Packet], req *QueryRequest) (*QueryResponse, error) {
	if err := checkParams(req); err != nil {
		return nil, err
	}
	var match func(trace.Packet) bool // nil without a filter: every packet passes, unread
	if req.Filter != nil {
		match = func(p trace.Packet) bool { return req.Filter.Match(&p) }
	}
	filtered := q.Stream().Where(match)
	length := func(p trace.Packet) float64 { return float64(p.Len) }
	source := func(p trace.Packet) string { return p.SrcIP.String() }
	// cdf wraps a CDF analysis' output; they all charge ε once.
	cdf := func(buckets []int64, values []float64, err error) (*QueryResponse, error) {
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Values: values, Buckets: buckets, NoiseStd: noise.LaplaceStd(req.Epsilon)}, nil
	}
	var (
		v        float64
		err      error
		noiseStd = noise.LaplaceStd(req.Epsilon)
	)
	switch req.Query {
	case "count":
		v, err = filtered.NoisyCount(req.Epsilon)

	case "hosts":
		minBytes := orDefault(req.MinBytes, 1024)
		bytesBySource := core.GroupFold(filtered,
			func(p trace.Packet) trace.IPv4 { return p.SrcIP },
			func(total int, p trace.Packet) int { return total + int(p.Len) })
		heavy := bytesBySource.Stream().Where(func(g core.Folded[trace.IPv4, int]) bool { return g.Value > minBytes })
		v, err = heavy.NoisyCount(req.Epsilon)
		noiseStd *= 2 // GroupBy doubles the sensitivity

	case "lencdf":
		buckets := packetdist.LengthBuckets(orDefault(req.BucketStep, 16))
		values, err := packetdist.PrivateLengthCDF(filtered, req.Epsilon, buckets)
		return cdf(buckets, values, err)

	case "portcdf":
		buckets := packetdist.PortBuckets(orDefault(req.BucketStep, 1024))
		values, err := packetdist.PrivatePortCDF(filtered, req.Epsilon, buckets)
		return cdf(buckets, values, err)

	case "rttcdf":
		buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 10), 64) // ms
		values, err := flowstats.PrivateRTTCDF(filtered.Materialize(), req.Epsilon, buckets)
		return cdf(buckets, values, err)

	case "losscdf":
		buckets := toolkit.LinearBuckets(0, orDefault(req.BucketStep, 25), 41) // permille
		values, err := flowstats.PrivateLossCDF(filtered.Materialize(), req.Epsilon, 10, buckets)
		return cdf(buckets, values, err)

	case "medianlen":
		v, err = core.NoisyMedian(filtered, req.Epsilon, length)
		noiseStd = 0 // exponential mechanism: no additive noise scale

	case "lenquantile":
		fraction := req.Fraction
		if fraction == 0 {
			fraction = 0.5
		}
		v, err = core.NoisyQuantile(filtered, req.Epsilon, fraction, req.SketchEps, length)
		noiseStd = 0

	case "srcfreq":
		v, err = core.NoisyFrequency(filtered, req.Epsilon, source, req.Key)

	case "distinctsrc":
		// Each source once, then the registers: an add is a register max,
		// so a source's later packets would change nothing (DESIGN §S32).
		srcIP := func(p trace.Packet) trace.IPv4 { return p.SrcIP }
		sources := core.Distinct(core.StreamSelect(filtered, srcIP), func(ip trace.IPv4) trace.IPv4 { return ip })
		v, err = core.NoisyDistinctSketch(sources, req.Epsilon, trace.IPv4.String)

	default:
		return nil, fmt.Errorf("unknown query %q (%s)", req.Query, api.PacketQueryKindList())
	}
	if err != nil {
		return nil, err
	}
	return &QueryResponse{Values: []float64{v}, NoiseStd: noiseStd}, nil
}

// maxBucketStep is each CDF kind's widest bucketStep: lencdf and portcdf
// need one edge inside their 1,520-byte and 65,536-port domains, and
// rttcdf's 64 and losscdf's 41 edges must not overflow an int64.
var maxBucketStep = map[string]int64{
	"lencdf":  1520,
	"portcdf": 65536,
	"rttcdf":  math.MaxInt64 / 64,
	"losscdf": math.MaxInt64 / 41,
}

// checkParams refuses parameters its kind could never execute with —
// a bucketStep wider than the kind's domain, a lenquantile fraction or
// sketchEps out of range, a srcfreq without its key — naming the
// parameter, so a one-shot query answers 400 before it builds a
// pipeline or charges, and a standing query is refused at registration,
// before any window can fire.
func checkParams(req *QueryRequest) error {
	if widest, ok := maxBucketStep[req.Query]; ok && req.BucketStep > widest {
		return fmt.Errorf("bucketStep %d is wider than %s's domain: at most %d", req.BucketStep, req.Query, widest)
	}
	switch {
	case req.Query == "lenquantile" && !(req.Fraction >= 0 && req.Fraction <= 1):
		return fmt.Errorf("fraction %v is outside [0, 1] (0 selects the median)", req.Fraction)
	case req.Query == "lenquantile" && !(req.SketchEps >= 0 && req.SketchEps < 1):
		return fmt.Errorf("sketchEps %v is outside (0, 1) (0 selects the default)", req.SketchEps)
	case req.Query == "srcfreq" && req.Key == "":
		return fmt.Errorf(`srcfreq requires "key": the target source IP, e.g. "10.0.0.1"`)
	}
	return nil
}

// orDefault is v, or def when the request left the field unset.
func orDefault[N int | int64](v, def N) N {
	if v <= 0 {
		return def
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
