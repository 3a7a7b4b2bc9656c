package dpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/standing"
)

// This file is the server side of the standing-query subsystem
// (internal/standing): registration, cancellation, result polling, and
// — the heart of it — the Fire callback that executes one due window
// on the frozen snapshot machinery, charges exactly the per-window ε
// through the analyst policy, and journals the atomic
// charge-plus-cursor standing_window event.
//
// The budget invariants:
//
//   - ε-parity with one-shot queries: a window executes through the
//     same runKind dispatch, over a frozen snapshot slice of the
//     dataset, drawing from the same noise source — its noise draws
//     and ε-charges are byte-identical to an equivalent one-shot query
//     over the same records at the same point in the draw sequence.
//   - Atomic charge-plus-cursor: the window's measured charge moves
//     the in-memory policy through a journal-suppressed agent
//     (core.AnalystPolicy.SilentAgentFor), then ONE standing_window
//     ledger event carries both the charge and the cursor advance. A
//     crash can never charge a window without advancing past it, nor
//     advance past a window without its charge. If the record cannot
//     be staged, the in-memory charge is rolled back and the window
//     stays due (fail closed). The record is made durable by the commit
//     of the ingest request that fired it, and only that commit
//     publishes the window's result to the list and long-poll readers.
//   - Reservation drip: before executing, the query's cumulative
//     standing spend plus one window's ε is checked against its total
//     reservation; an overdraw refuses the window at zero charge with
//     outcome "exhausted" and stops the query. The refusal is
//     data-independent (it depends only on the registered ε schedule).

// maxStandingWaitMs caps the results long-poll.
const maxStandingWaitMs = 30_000

// reservationSlack mirrors the core budget comparison tolerance: a
// replayed history must land on the same refusal boundary as the live
// run, so the boundary itself tolerates float accumulation error.
const reservationSlack = 1e-9

// newStandingRegistry builds the server's registry; called from New.
func (s *Server) newStandingRegistry() *standing.Registry {
	return standing.NewRegistry(standing.Config{Fire: s.fireStandingWindow})
}

// StandingStats exposes the registry's counters and fire-latency
// percentiles (the benchmark reports them).
func (s *Server) StandingStats() standing.Stats { return s.standing.Stats() }

// meteredAgent wraps a budget agent and accumulates the net ε applied
// through it — the one meter of what one query or window execution
// charged, for its audit record, its wide event and its profile (a
// SpentBy delta would count concurrent requests by the same analyst) —
// and the time spent inside it, which for a journaled policy is the
// staging of the request's charge records. It sits at the top of the
// query's agent tree, so scaled charges (e.g. GroupBy's ×2) are
// measured as the roots see them.
type meteredAgent struct {
	inner core.Agent
	mu    sync.Mutex
	net   float64
	spent time.Duration
}

func (m *meteredAgent) Apply(epsilon float64) error {
	start := time.Now()
	err := m.inner.Apply(epsilon)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spent += time.Since(start)
	if err == nil {
		m.net += epsilon
	}
	return err
}

func (m *meteredAgent) Rollback(epsilon float64) {
	start := time.Now()
	m.inner.Rollback(epsilon)
	m.mu.Lock()
	m.net -= epsilon
	m.spent += time.Since(start)
	m.mu.Unlock()
}

// busy is the total time spent in Apply and Rollback.
func (m *meteredAgent) busy() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spent
}

func (m *meteredAgent) charged() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net
}

// standingQuery is what every window of a standing query executes, made
// once from its registration request; the spec keeps it as its Params.
type standingQuery struct {
	req  *api.QueryRequest
	kind *queryKind
}

// newStandingQuery refuses a kind or parameters no window could execute.
func newStandingQuery(dataset string, sr *api.StandingRequest) (standingQuery, error) {
	req := &api.QueryRequest{
		Analyst: sr.Analyst, Dataset: dataset, Query: sr.Query,
		Epsilon: sr.Epsilon, Filter: sr.Filter, MinBytes: sr.MinBytes,
		BucketStep: sr.BucketStep, Fraction: sr.Fraction,
		SketchEps: sr.SketchEps, Key: sr.Key,
	}
	k, err := kindFor(req)
	return standingQuery{req: req, kind: k}, err
}

// fireStandingWindow is the registry's Fire callback: execute, charge,
// stage the journal record — or return ok=false and leave the window
// due. The returned result is staged, not released: journalCommit
// publishes it (and emits its standing_window event) once the ingest
// request's commit has made the record durable.
func (s *Server) fireStandingWindow(q *standing.Query, w standing.Window) (standing.Result, bool) {
	spec := q.Spec
	start := time.Now()
	if s.spendRefusal() != nil {
		// Fail closed: no window fires while the ledger refuses
		// appends. The cursor stays; a healthy ledger retries it.
		return standing.Result{}, false
	}
	d, ok := s.lookup(spec.Dataset)
	if !ok {
		return standing.Result{}, false
	}

	res := standing.Result{Time: start.UnixNano()}
	wire := api.StandingResult{
		ID: spec.ID, Window: w.Index, Start: w.Start, End: w.End,
		Time: res.Time,
	}

	spent := q.Spent()
	if spent+spec.Epsilon > spec.Reservation+reservationSlack {
		// The drip ran dry: refuse before executing, charge nothing.
		res.Outcome = standing.OutcomeExhausted
		res.Exhausts = true
		wire.Outcome = res.Outcome
		wire.Spent = spent
		wire.Error = fmt.Sprintf("standing reservation exhausted: spent %v of %v, next window needs %v",
			spent, spec.Reservation, spec.Epsilon)
	} else {
		agent := &meteredAgent{inner: d.policy.SilentAgentFor(spec.Analyst)}
		snap := snapshot(s, d.packets)
		if uint64(snap.Len()) < w.End {
			// The snapshot has not caught up to the window's end — only
			// possible outside the ingest-apply call path (e.g. a
			// restarted server whose records have not been re-ingested
			// yet). Not due in any meaningful sense; leave it.
			return standing.Result{}, false
		}
		qry := core.NewQueryableForView(snap.Slice(int(w.Start), int(w.End)), core.Agent(agent), s.src).
			WithExecOptions(s.exec)
		sq := spec.Params.(standingQuery)
		resp, err := s.execPacket(qry, sq.kind, sq.req)
		res.Charged = agent.charged()
		wire.Charged = res.Charged
		wire.Spent = spent + res.Charged
		switch {
		case err == nil:
			res.Outcome = standing.OutcomeOK
			wire.Outcome = res.Outcome
			wire.Values, wire.Buckets, wire.NoiseStd = resp.Values, resp.Buckets, resp.NoiseStd
		case isBudgetExceeded(err):
			// The analyst's policy (per-analyst cap or shared total)
			// refused: budgets only ever shrink, so the query can never
			// succeed again — stop it like a reservation overdraw.
			res.Outcome = standing.OutcomeExhausted
			res.Exhausts = true
			wire.Outcome = res.Outcome
			wire.Error = err.Error()
		default:
			res.Outcome = standing.OutcomeError
			wire.Outcome = res.Outcome
			wire.Error = err.Error()
		}
	}

	body, _ := json.Marshal(wire)
	res.Body = body
	staging := time.Now()
	err := s.journalAppend(ledger.Event{
		Type: ledger.EventStandingWindow, Dataset: spec.Dataset,
		Analyst: spec.Analyst, Standing: spec.ID,
		Window: w.Index, WindowStart: w.Start, Watermark: w.End,
		Charged: res.Charged, Outcome: res.Outcome, Body: body,
	})
	stage := time.Since(staging)
	if err != nil {
		// The charge could not be journaled: undo the in-memory
		// silent charge and leave the window due. The ledger has
		// degraded, so the fail-closed gate blocks further fires.
		if res.Charged > 0 {
			d.policy.SilentAgentFor(spec.Analyst).Rollback(res.Charged)
		}
		s.events.Log(qlog.Error, "standing_window_unjournaled",
			qlog.F("dataset", spec.Dataset), qlog.F("standing", spec.ID),
			qlog.F("window", w.Index), qlog.F("error", err.Error()))
		return standing.Result{}, false
	}

	s.metrics.Counter("dp_standing_windows_total",
		"dataset", spec.Dataset, "outcome", res.Outcome).Inc()
	if res.Charged > 0 {
		s.metrics.Counter("dp_standing_epsilon_total", "dataset", spec.Dataset).
			Add(res.Charged)
	}
	// The window's wide event, emitted when the result is published
	// (journalCommit appends what the commit cost).
	res.Note = []qlog.Field{
		qlog.F("dataset", spec.Dataset), qlog.F("standing", spec.ID),
		qlog.F("analyst", spec.Analyst), qlog.F("query", spec.Kind),
		qlog.F("window", w.Index), qlog.F("start", w.Start), qlog.F("end", w.End),
		qlog.F("outcome", res.Outcome), qlog.F("charged_epsilon", res.Charged),
		qlog.F("spent", spent+res.Charged),
		qlog.F("duration_ms", durationMs(time.Since(start))),
		qlog.F("stage_ms", durationMs(stage)),
	}
	if res.Exhausts {
		s.events.Log(qlog.Warn, "standing_exhausted",
			qlog.F("dataset", spec.Dataset), qlog.F("standing", spec.ID),
			qlog.F("analyst", spec.Analyst),
			qlog.F("spent", spent+res.Charged),
			qlog.F("reservation", spec.Reservation))
	}
	s.ensureAnalystGauge(spec.Dataset, spec.Analyst, d.policy)
	return res, true
}

// isBudgetExceeded reports whether err is the policy's refusal.
func isBudgetExceeded(err error) bool {
	return errors.Is(err, core.ErrBudgetExceeded)
}

// restoreStanding re-installs a dataset's persisted standing queries in
// registration (ledger seq) order. Called from AddPacketTrace and from
// promotion, under s.mu; the registry has its own lock.
func (s *Server) restoreStanding(name string) {
	for _, st := range s.ledger.Standing(name) {
		results := make([]standing.Result, 0, len(st.Windows))
		for _, w := range st.Windows {
			results = append(results, standing.Result{
				Window:  standing.Window{Index: w.Window, Start: w.Start, End: w.End},
				Outcome: w.Outcome, Charged: w.Charged, Body: w.Body, Time: w.Time,
			})
		}
		var lastFire time.Time
		if st.LastFireNS != 0 {
			lastFire = time.Unix(0, st.LastFireNS)
		}
		spec := standing.Spec{
			Dataset: st.Dataset, Analyst: st.Analyst, ID: st.ID,
			Kind: st.Kind, Epsilon: st.Epsilon, Reservation: st.Reservation,
			Width: st.Width, Stride: st.Stride, EveryMs: st.EveryMs,
			Base: st.Base, Request: st.Request,
		}
		var sr api.StandingRequest
		err := json.Unmarshal(st.Request, &sr)
		if err == nil {
			spec.Params, err = newStandingQuery(st.Dataset, &sr)
		}
		if err == nil {
			_, err = s.standing.Restore(spec, standing.Restored{
				NextWindow: st.NextWindow, LastMark: st.LastMark,
				LastFire: lastFire, Spent: st.Spent,
				Status: standing.Status(st.Status), Results: results,
			})
		}
		if err != nil {
			// A persisted registration whose request does not decode,
			// names a kind or parameters this server cannot run, or that
			// the live registry refuses, is a ledger/server version skew,
			// not corruption: say so and keep the rest. Installed, it
			// would fire with zero-valued or unrunnable parameters.
			s.events.Log(qlog.Error, "standing_restore_failed",
				qlog.F("dataset", st.Dataset), qlog.F("standing", st.ID),
				qlog.F("error", err.Error()))
			continue
		}
		s.events.Log(qlog.Info, "standing_restored",
			qlog.F("dataset", st.Dataset), qlog.F("standing", st.ID),
			qlog.F("next_window", st.NextWindow), qlog.F("spent", st.Spent),
			qlog.F("status", st.Status))
	}
}

// standingInfo renders one query's live state on the wire.
func standingInfo(snap standing.Snapshot) api.StandingInfo {
	return api.StandingInfo{
		ID: snap.Spec.ID, Dataset: snap.Spec.Dataset,
		Analyst: snap.Spec.Analyst, Query: snap.Spec.Kind,
		Epsilon: snap.Spec.Epsilon,
		Window: api.StandingWindow{
			Width: snap.Spec.Width, Stride: snap.Spec.Stride,
			EveryMs: snap.Spec.EveryMs,
		},
		Base: snap.Spec.Base, Reservation: snap.Spec.Reservation,
		Spent: snap.Spent, NextWindow: snap.NextWindow,
		Status: string(snap.Status), Results: snap.Windows,
	}
}

// handleStandingRegister is POST /v1/standing/{dataset}: admit one
// standing query. Behind the admission lifecycle (it journals and will
// spend budget on every window) and the idempotency cache (a retried
// registration must not register twice).
func (s *Server) handleStandingRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	var req api.StandingRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst is required"})
		return
	}
	// An unknown kind, or parameters the kind could never execute with,
	// are refused here, before any window can fire.
	params, err := newStandingQuery(name, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
		return
	}
	d, ok := s.datasetFor(w, name)
	if !ok {
		return
	}
	s.serveIdempotent(w, r, name, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) execResult {
			return s.executeStandingRegister(d, name, &req, params)
		})
}

// executeStandingRegister registers under the current watermark. The
// registration record is staged; settle commits it before the
// response leaves.
func (s *Server) executeStandingRegister(d *dataset, name string, req *api.StandingRequest, params standingQuery) execResult {
	stored, _ := json.Marshal(req)
	spec := standing.Spec{
		Dataset: name, Analyst: req.Analyst, ID: req.ID, Kind: req.Query,
		Epsilon: req.Epsilon, Reservation: req.Reservation,
		Width: req.Window.Width, Stride: req.Window.Stride,
		EveryMs: req.Window.EveryMs,
		Base:    s.watermark(d), Request: stored, Params: params,
	}
	q, err := s.standing.Register(spec, func(sp standing.Spec) error {
		return s.journalAppend(ledger.Event{
			Type: ledger.EventStandingRegistered, Dataset: sp.Dataset,
			Analyst: sp.Analyst, Standing: sp.ID, Query: sp.Kind,
			Epsilon: sp.Epsilon, Reservation: sp.Reservation,
			Width: sp.Width, Stride: sp.Stride, EveryMs: sp.EveryMs,
			Base: sp.Base, Body: sp.Request,
		})
	})
	if err != nil {
		status, ae := classify(err, finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)), 0)
		return execResult{status: status, body: marshalJSON(ae)}
	}
	snap := q.Snapshot()
	s.metrics.Counter("dp_standing_queries_total", "dataset", name).Inc()
	s.events.Log(qlog.Info, "standing_registered",
		qlog.F("dataset", name), qlog.F("standing", snap.Spec.ID),
		qlog.F("analyst", req.Analyst), qlog.F("query", req.Query),
		qlog.F("epsilon", req.Epsilon), qlog.F("reservation", req.Reservation),
		qlog.F("width", snap.Spec.Width), qlog.F("stride", snap.Spec.Stride),
		qlog.F("every_ms", snap.Spec.EveryMs), qlog.F("base", snap.Spec.Base))
	return execResult{status: http.StatusOK, cacheable: true,
		body: marshalJSON(api.StandingRegistered{Info: standingInfo(snap)})}
}

// handleStandingList is GET /v1/standing/{dataset}: the dataset's
// registrations in registration order. Read-only.
func (s *Server) handleStandingList(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	if _, ok := s.datasetFor(w, name); !ok {
		return
	}
	list := api.StandingList{Dataset: name, Queries: []api.StandingInfo{}}
	for _, q := range s.standing.List(name) {
		list.Queries = append(list.Queries, standingInfo(q.Snapshot()))
	}
	writeJSON(w, http.StatusOK, list)
}

// handleStandingCancel is DELETE /v1/standing/{dataset}/{id}. Behind
// the admission lifecycle: cancellation journals, and a degraded
// ledger must fail it closed like any other mutation.
func (s *Server) handleStandingCancel(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("dataset"), r.PathValue("id")
	q, did, err := s.standing.Cancel(name, id, func(sp standing.Spec) error {
		return s.journalAppend(ledger.Event{
			Type: ledger.EventStandingCanceled, Dataset: sp.Dataset,
			Analyst: sp.Analyst, Standing: sp.ID,
		})
	})
	if err != nil {
		if errors.Is(err, standing.ErrNotFound) {
			writeError(w, http.StatusNotFound, apiError{Code: codeNotFound,
				Message: fmt.Sprintf("no standing query %q on %q", id, name)})
			return
		}
		status, ae := classify(err, 0, 0)
		writeError(w, status, ae)
		return
	}
	// The cancellation record is staged; it must be durable before the
	// response says the query stopped.
	res := s.settle(r, nil, execResult{status: http.StatusOK,
		body: marshalJSON(api.StandingCanceled{Info: standingInfo(q.Snapshot()), AlreadyCanceled: !did})})
	if did && res.status == http.StatusOK {
		s.events.Log(qlog.Info, "standing_canceled",
			qlog.F("dataset", name), qlog.F("standing", id),
			qlog.F("analyst", q.Spec.Analyst))
	}
	writeRaw(w, res.status, res.body)
}

// handleStandingResults is GET /v1/standing/{dataset}/{id}/results:
// the query's recent window results, oldest first, from window index
// ?after= (default 0). ?waitMs= long-polls: an empty result set waits
// until a window commits, the query stops, the wait expires, or the
// client disconnects. Read-only — polling spends nothing.
func (s *Server) handleStandingResults(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("dataset"), r.PathValue("id")
	q, ok := s.standing.Get(name, id)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound,
			Message: fmt.Sprintf("no standing query %q on %q", id, name)})
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest,
				Message: "after must be a non-negative integer"})
			return
		}
		after = n
	}
	var deadline <-chan time.Time
	if v := r.URL.Query().Get("waitMs"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest,
				Message: "waitMs must be a non-negative integer"})
			return
		}
		if ms > maxStandingWaitMs {
			ms = maxStandingWaitMs
		}
		if ms > 0 {
			t := time.NewTimer(time.Duration(ms) * time.Millisecond)
			defer t.Stop()
			deadline = t.C
		}
	}
	for {
		results, status, next, updated := q.ResultsAfter(after)
		if len(results) > 0 || status != standing.StatusActive || deadline == nil {
			out := api.StandingResults{
				Dataset: name, ID: id, Status: string(status),
				NextWindow: next, Results: []json.RawMessage{},
			}
			for _, res := range results {
				out.Results = append(out.Results, json.RawMessage(res.Body))
			}
			writeJSON(w, http.StatusOK, out)
			return
		}
		select {
		case <-updated:
		case <-deadline:
			deadline = nil
		case <-r.Context().Done():
			status, ae := classify(canceledBy(r.Context()), 0, 0)
			writeError(w, status, ae)
			return
		}
	}
}
