package core

import (
	"errors"
	"sync/atomic"
	"time"

	"dptrace/internal/obs"
)

// This file wires the engine to the observability layer.
// Transformations report an obs.Recorder.OpDone (operator name, wall
// time, records in/out) and aggregations an AggDone (outcome and
// requested ε). The recorder rides along the Queryable derivation
// chain exactly like the noise source; when it is nil — the default —
// the instrumentation collapses to a nil check and zero clock reads,
// so library users who never ask for telemetry pay nothing.

// defaultRecorder is the process-wide recorder picked up by
// NewQueryable/NewQueryableFor at construction time. It exists for
// whole-program instrumentation (cmd/experiments -metrics) where
// threading a recorder through every analysis would be noise; services
// like dpserver attach recorders explicitly with WithRecorder instead.
var defaultRecorder atomic.Value // of recorderBox

type recorderBox struct{ rec obs.Recorder }

// SetDefaultRecorder installs the recorder future NewQueryable and
// NewQueryableFor calls inherit. Pass nil to turn default telemetry
// back off. Existing Queryables are unaffected.
func SetDefaultRecorder(rec obs.Recorder) {
	defaultRecorder.Store(recorderBox{rec: rec})
}

// DefaultRecorder returns the recorder set by SetDefaultRecorder, or
// nil.
func DefaultRecorder() obs.Recorder {
	if b, ok := defaultRecorder.Load().(recorderBox); ok {
		return b.rec
	}
	return nil
}

// WithRecorder returns a view of this Queryable whose derived
// pipeline reports telemetry to rec (nil disables reporting). The
// records and budget agent are shared; only the recorder differs.
func (q *Queryable[T]) WithRecorder(rec obs.Recorder) *Queryable[T] {
	out := *q
	out.rec = rec
	return &out
}

// opStart samples the clock only when a recorder is attached.
func opStart(rec obs.Recorder) time.Time {
	if rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// opDone reports one completed transformation. workers is 0 for one
// worker and the worker count when the operator's scans split.
func opDone(rec obs.Recorder, op string, start time.Time, in, out, workers int) {
	if rec == nil {
		return
	}
	rec.OpDone(op, time.Since(start), in, out, workers)
}

// aggDone reports one aggregation attempt, classifying err into the
// ok/refused/error outcome the paper's owner-side ledger distinguishes.
func aggDone(rec obs.Recorder, agg string, start time.Time, epsilon float64, err error) {
	if rec == nil {
		return
	}
	outcome := obs.OutcomeOK
	switch {
	case err == nil:
	case errors.Is(err, ErrBudgetExceeded):
		outcome = obs.OutcomeRefused
	default:
		outcome = obs.OutcomeError
	}
	rec.AggDone(agg, outcome, epsilon, time.Since(start))
}

// combineRec picks the recorder for a binary transformation's output:
// the left input's when it has one, else the right's. (When both
// inputs carry the same recorder — the common case, one per query —
// this is also that recorder.)
func combineRec(a, b obs.Recorder) obs.Recorder {
	if a != nil {
		return a
	}
	return b
}

// RegisterGauges exports this agent's budget state as live gauges:
// dp_budget_total, dp_budget_spent, and dp_budget_remaining, with the
// given labels (alternating key/value, e.g. "dataset", "hotspot").
// Values are read at scrape time, so they always reflect the current
// ledger. Budget state is the owner-visible quantity the paper's §7
// policies are built on; it reveals spending, never data.
func (a *RootAgent) RegisterGauges(reg *obs.Registry, labels ...string) {
	reg.GaugeFunc("dp_budget_total", a.Budget, labels...)
	reg.GaugeFunc("dp_budget_spent", a.Spent, labels...)
	reg.GaugeFunc("dp_budget_remaining", a.Remaining, labels...)
}

// RegisterGauges exports the policy's shared budget as live gauges
// (see RootAgent.RegisterGauges).
func (p *AnalystPolicy) RegisterGauges(reg *obs.Registry, labels ...string) {
	p.total.RegisterGauges(reg, labels...)
}

// PerAnalystSpent reports every known analyst's cumulative charge —
// the policy-side ground truth that owner dashboards reconcile the
// audit ledger against.
func (p *AnalystPolicy) PerAnalystSpent() map[string]float64 {
	p.mu.Lock()
	names := make([]string, 0, len(p.analysts))
	for name := range p.analysts {
		names = append(names, name)
	}
	p.mu.Unlock()
	out := make(map[string]float64, len(names))
	for _, name := range names {
		out[name] = p.analystRoot(name).Spent()
	}
	return out
}
