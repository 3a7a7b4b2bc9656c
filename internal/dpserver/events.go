package dpserver

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
)

// This file is the server's wide-event layer: every completed
// budget-spending request becomes exactly ONE structured "query" event
// carrying the full execution profile (see internal/obs/qlog for the
// event model and internal/obs.Profile for the profile schema), plus
// the per-analyst budget telemetry derived from it. The flight
// recorder behind GET /debug/queries is the event ring itself.

// wantsExplain reports whether the request asked for its profile with
// api.ExplainHeader ("true" or "1"). Explaining is free: it changes no
// budget accounting, no noise, and no ledger traffic — the profile is
// assembled from Recorder callbacks the query fires anyway. The
// returned profile is redacted (record counts zeroed) because exact
// operator cardinalities are pre-noise aggregate values (DESIGN.md
// §S31).
func wantsExplain(r *http.Request) bool {
	v := r.Header.Get(api.ExplainHeader)
	return v == "true" || v == "1"
}

// queryOutcome is everything finishQuery needs to emit the one wide
// event for a completed spending request. The executing handler fills
// the identity fields up front and the outcome fields when done.
type queryOutcome struct {
	endpoint    string
	analyst     string
	dataset     string
	query       string
	epsilon     float64 // requested
	started     time.Time
	idempotency string // "none" or "miss"; replays short-circuit earlier
	policy      *core.AnalystPolicy

	outcome string
	status  int
	charged float64
	profile *obs.Profile

	// agent is the execution's budget agent: the time spent in it is
	// the staging of the charge records. stage accumulates the staging of
	// the execution's other journal records; journal is the whole
	// journaling cost, known once settle has committed them.
	agent   *meteredAgent
	stage   time.Duration
	journal journalStats
}

// queryResult packages a finished execution for settle: the response
// bytes plus the deferred "query" wide event, emitted once the commit
// has settled which status is served and what the journal cost.
func (s *Server) queryResult(o queryOutcome, body []byte, cacheable bool) execResult {
	return execResult{
		status: o.status, body: body, cacheable: cacheable, stage: o.stage + o.agent.busy(),
		finish: func(status int, js journalStats) {
			o.status, o.journal = status, js
			s.finishQuery(o)
		},
	}
}

// idemStatus names how a request relates to the idempotency cache at
// execution time: "none" (no key) or "miss" (keyed, first execution).
// Cache hits never reach an executor — serveIdempotent replays stored
// bytes and emits "query_replayed" instead.
func idemStatus(key string) string {
	if key == "" {
		return "none"
	}
	return "miss"
}

// slowQuery decides the slow-query log: a non-positive threshold
// disables it, and a query exactly at the threshold IS slow (>=, so
// "everything slower than X" includes X itself).
func slowQuery(d, threshold time.Duration) bool {
	return threshold > 0 && d >= threshold
}

// finishQuery emits the single "query" wide event for one completed
// execution, feeds the ε histogram and the analyst burn-rate gauge,
// and raises the slow-query warning past Limits.SlowQuery. Exactly one
// call per execution — both the success and the failure path of every
// executor end here, through queryResult.
func (s *Server) finishQuery(o queryOutcome) {
	dur := time.Since(o.started)
	s.events.Log(qlog.Info, "query", append([]qlog.Field{
		qlog.F("analyst", o.analyst),
		qlog.F("dataset", o.dataset),
		qlog.F("query", o.query),
		qlog.F("endpoint", o.endpoint),
		qlog.F("outcome", o.outcome),
		qlog.F("status", o.status),
		qlog.F("epsilon", o.epsilon),
		qlog.F("charged_epsilon", o.charged),
		qlog.F("duration_ms", durationMs(dur)),
		qlog.F("idempotency", o.idempotency),
		qlog.F("ops", len(o.profile.Ops)),
		qlog.F("parallel_ops", o.profile.ParallelOps()),
		qlog.F("aggs", len(o.profile.Aggs)),
		// The full profile, counts included: the event stream and
		// /debug/queries are owner-side surfaces under the /audit trust
		// model. Analyst-facing copies go through Redact.
		qlog.F("profile", o.profile),
	}, o.journal.fields()...)...)
	s.metrics.Histogram("dp_query_epsilon", obs.EpsilonBuckets(),
		"dataset", o.dataset, "analyst", o.analyst).Observe(o.epsilon)
	s.ensureAnalystGauge(o.dataset, o.analyst, o.policy)
	if slowQuery(dur, s.limits.SlowQuery) {
		s.events.Log(qlog.Warn, "slow_query",
			qlog.F("analyst", o.analyst),
			qlog.F("dataset", o.dataset),
			qlog.F("query", o.query),
			qlog.F("endpoint", o.endpoint),
			qlog.F("outcome", o.outcome),
			qlog.F("duration_ms", durationMs(dur)),
			qlog.F("threshold_ms", durationMs(s.limits.SlowQuery)))
	}
}

// durationMs renders a duration as fractional milliseconds, the unit
// the event schema uses throughout.
func durationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// ensureAnalystGauge registers the burn-rate gauge for one
// (dataset, analyst) pair on first sight:
//
//	dp_analyst_budget_spent_ratio{dataset,analyst} = spent / cap
//
// 0 when the per-analyst cap is unlimited (there is no ratio to burn).
// Gauges are created lazily because the analyst population is only
// discovered as queries arrive.
func (s *Server) ensureAnalystGauge(dataset, analyst string, policy *core.AnalystPolicy) {
	if policy == nil {
		return
	}
	key := dataset + "\x00" + analyst
	if _, seen := s.analystGauges.LoadOrStore(key, struct{}{}); seen {
		return
	}
	s.metrics.GaugeFunc("dp_analyst_budget_spent_ratio", func() float64 {
		cap := policy.PerAnalystBudget()
		if cap <= 0 || math.IsInf(cap, 1) {
			return 0
		}
		return policy.SpentBy(analyst) / cap
	}, "dataset", dataset, "analyst", analyst)
}

// noteDegraded emits the degraded-mode transition events, exactly once
// per flip: "degraded_entered" when the ledger starts refusing spends,
// "degraded_exited" when it stops. Called from the admission path (the
// place every spend attempt observes the ledger's state).
func (s *Server) noteDegraded(cause error) {
	degraded := cause != nil
	if s.degradedNoted.CompareAndSwap(!degraded, degraded) {
		if degraded {
			s.events.Log(qlog.Error, "degraded_entered", qlog.F("cause", cause.Error()))
		} else {
			s.events.Log(qlog.Info, "degraded_exited")
		}
	}
}

// handleDebugQueries serves the recent wide events, newest first —
// the flight recorder for "what just happened on this server". ?n=
// limits the count; the ring's size bounds it regardless.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	events := s.events.Recent(0)
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "n must be a non-negative integer"})
			return
		}
		if n < len(events) {
			events = events[:n]
		}
	}
	if events == nil {
		events = []qlog.Event{}
	}
	writeJSON(w, http.StatusOK, events)
}
