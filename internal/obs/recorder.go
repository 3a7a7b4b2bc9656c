package obs

import (
	"strconv"
	"time"
)

// Recorder receives engine telemetry: one OpDone per transformation,
// one AggDone per aggregation attempt. Implementations must be safe
// for concurrent use; calls happen on query hot paths, so they should
// be cheap. The engine treats a nil Recorder as "off" and skips even
// the clock reads, keeping the default cost at a nil-check.
type Recorder interface {
	// OpDone reports one completed transformation: its operator name
	// (lowercase, e.g. "where", "groupby"), wall time, the record
	// counts flowing in and out, and the execution strategy — workers
	// is 0 when the operator ran sequentially and the shard count
	// (≥2) when the parallel engine ran it. Record counts are
	// protected data in the aggregate exposition sense only when the
	// owner publishes them; recorders feed owner-side surfaces, which
	// PINQ's model trusts with the raw records themselves.
	OpDone(op string, d time.Duration, recordsIn, recordsOut, workers int)
	// AggDone reports one aggregation attempt: its name ("count",
	// "sum", ...), outcome ("ok", "refused", or "error"), the ε
	// requested by the analyst (before sensitivity scaling), and wall
	// time (near-zero for attempts rejected before doing work).
	AggDone(agg, outcome string, epsilon float64, d time.Duration)
}

// Outcome classification strings shared by recorders and their
// consumers.
const (
	OutcomeOK      = "ok"
	OutcomeRefused = "refused"
	OutcomeError   = "error"
)

// Strategy names derived from OpDone's workers count.
const (
	StrategySequential = "sequential"
	StrategyParallel   = "parallel"
	StrategyFused      = "fused"
)

// FusedWorkers is the OpDone workers sentinel the fused streaming
// engine reports: the stage ran inside a single fused loop rather
// than as its own pass, so neither "sequential" (its own pass) nor a
// shard count describes it. Recorders that only branch on workers ≥ 2
// need no change.
const FusedWorkers = -1

// StrategyName maps an OpDone workers count to its strategy name:
// "parallel" for shard counts ≥ 2, "fused" for the FusedWorkers
// sentinel, "sequential" otherwise.
func StrategyName(workers int) string {
	if workers >= 2 {
		return StrategyParallel
	}
	if workers == FusedWorkers {
		return StrategyFused
	}
	return StrategySequential
}

// NopRecorder discards everything. The engine also accepts nil; this
// exists for callers that want an explicit value.
type NopRecorder struct{}

func (NopRecorder) OpDone(string, time.Duration, int, int, int)    {}
func (NopRecorder) AggDone(string, string, float64, time.Duration) {}

// MetricsRecorder aggregates engine telemetry into a Registry:
//
//	dp_op_duration_seconds{op=...}    histogram of operator wall time
//	dp_op_records_in_total{op=...}    records flowing into operators
//	dp_op_records_out_total{op=...}   records flowing out
//	dp_op_parallel_total{op=...}      operators run by the parallel engine
//	dp_agg_total{agg=...,outcome=...} aggregation attempts
//	dp_agg_duration_seconds{agg=...}  histogram of aggregation wall time
//	dp_budget_spend_total             sum of requested ε on successful
//	                                  aggregations (pre-scaling)
type MetricsRecorder struct {
	reg *Registry
}

// NewMetricsRecorder wraps reg as a Recorder.
func NewMetricsRecorder(reg *Registry) *MetricsRecorder {
	return &MetricsRecorder{reg: reg}
}

// OpDone implements Recorder.
func (m *MetricsRecorder) OpDone(op string, d time.Duration, in, out, workers int) {
	m.reg.Histogram("dp_op_duration_seconds", DurationBuckets(), "op", op).Observe(d.Seconds())
	m.reg.Counter("dp_op_records_in_total", "op", op).Add(float64(in))
	m.reg.Counter("dp_op_records_out_total", "op", op).Add(float64(out))
	if workers >= 2 {
		m.reg.Counter("dp_op_parallel_total", "op", op).Inc()
	}
}

// AggDone implements Recorder.
func (m *MetricsRecorder) AggDone(agg, outcome string, epsilon float64, d time.Duration) {
	m.reg.Counter("dp_agg_total", "agg", agg, "outcome", outcome).Inc()
	if outcome == OutcomeOK {
		m.reg.Histogram("dp_agg_duration_seconds", DurationBuckets(), "agg", agg).Observe(d.Seconds())
		m.reg.Counter("dp_budget_spend_total").Add(epsilon)
	}
}

// multiRecorder fans out to several recorders.
type multiRecorder []Recorder

func (m multiRecorder) OpDone(op string, d time.Duration, in, out, workers int) {
	for _, r := range m {
		r.OpDone(op, d, in, out, workers)
	}
}

func (m multiRecorder) AggDone(agg, outcome string, epsilon float64, d time.Duration) {
	for _, r := range m {
		r.AggDone(agg, outcome, epsilon, d)
	}
}

// Multi combines recorders; nils are dropped. It returns nil when
// nothing remains, so the engine's nil fast path still applies.
func Multi(recs ...Recorder) Recorder {
	out := make(multiRecorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// itoa is strconv.Itoa, aliased so recorder call sites stay short.
func itoa(v int) string { return strconv.Itoa(v) }
