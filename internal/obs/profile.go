package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProfileOp is one transformation row of an execution profile: which
// operator ran, for how long, over how many records, and under which
// execution strategy. Rows appear in pipeline order (a query's
// operators report sequentially).
type ProfileOp struct {
	Op         string  `json:"op"`
	DurationNs int64   `json:"durationNs"`
	RecordsIn  float64 `json:"recordsIn"`
	RecordsOut float64 `json:"recordsOut"`
	Strategy   string  `json:"strategy,omitempty"` // "sequential", "parallel", or "fused"; redacted rows keep only "fused"
	Workers    int     `json:"workers,omitempty"`  // shard count when parallel
	Redacted   bool    `json:"redacted,omitempty"`
}

// ProfileAgg is one aggregation row: the terminal (or per-partition)
// noisy measurement, its outcome, the ε the analyst requested, and the
// ε actually charged against the ledger (post-scaling, 0 on refusal).
// It never carries the aggregate's value — noisy or raw.
type ProfileAgg struct {
	Agg              string  `json:"agg"`
	Outcome          string  `json:"outcome"`
	EpsilonRequested float64 `json:"epsilonRequested"`
	EpsilonCharged   float64 `json:"epsilonCharged"`
	DurationNs       int64   `json:"durationNs"`
}

// Profile is a query's execution profile: the operator tree flattened
// into report order, plus every aggregation attempt. It is the
// per-query artifact behind wide events, GET /debug/queries, and the
// X-DP-Explain response field.
//
// Privacy: durations, operator names, and ε amounts are operational
// metadata. Exact record counts are NOT — the row count flowing into
// an aggregation is the raw, pre-noise value of that aggregate
// (DESIGN.md §S31) — and neither is a strategy chosen by input size,
// so profiles bound for analysts must pass through Redact first.
// Owner-side surfaces keep both under the same trust model as /audit.
type Profile struct {
	Ops      []ProfileOp  `json:"ops,omitempty"`
	Aggs     []ProfileAgg `json:"aggs,omitempty"`
	Redacted bool         `json:"redacted,omitempty"`
}

// TotalCharged sums the ε charged across all aggregation rows.
func (p *Profile) TotalCharged() float64 {
	if p == nil {
		return 0
	}
	var sum float64
	for _, a := range p.Aggs {
		sum += a.EpsilonCharged
	}
	return sum
}

// ParallelOps counts rows run by the parallel engine.
func (p *Profile) ParallelOps() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, op := range p.Ops {
		if op.Strategy == StrategyParallel {
			n++
		}
	}
	return n
}

// FusedOps counts rows run inside a fused streaming loop. Fused rows
// report zero duration — the single pass's wall time lands on the
// aggregation row that consumed the stream.
func (p *Profile) FusedOps() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, op := range p.Ops {
		if op.Strategy == StrategyFused {
			n++
		}
	}
	return n
}

// Redact returns a copy safe for analyst-facing responses, with rows
// marked. Record counts are zeroed, because exact operator
// cardinalities are pre-noise aggregate values. The sequential /
// parallel strategy and the worker count go too: the engine picks them
// from the input's size (core.ExecOptions' threshold), so they reveal
// whether the dataset holds at least that many records. "fused"
// depends only on the plan and stays. Operators, durations and ε
// accounting survive, which is what an analyst needs to understand a
// plan and its cost.
func (p *Profile) Redact() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{
		Ops:      make([]ProfileOp, len(p.Ops)),
		Aggs:     append([]ProfileAgg(nil), p.Aggs...),
		Redacted: true,
	}
	for i, op := range p.Ops {
		op.RecordsIn, op.RecordsOut, op.Workers, op.Redacted = 0, 0, 0, true
		if op.Strategy != StrategyFused {
			op.Strategy = ""
		}
		out.Ops[i] = op
	}
	return out
}

// WriteText pretty-prints the profile as an indented plan, the
// rendering dpquery -explain shows:
//
//	where          sequential        1204 → 117    841µs
//	groupby        parallel ×8        117 → 32     2.1ms
//	Σ  count       ok                ε 0.1 requested, 0.1 charged
func (p *Profile) WriteText(w io.Writer) {
	if p == nil {
		return
	}
	for i, op := range p.Ops {
		strat := op.Strategy
		if op.Workers >= 2 {
			strat = fmt.Sprintf("%s ×%d", op.Strategy, op.Workers)
		}
		rows := fmt.Sprintf("%.0f → %.0f", op.RecordsIn, op.RecordsOut)
		if op.Redacted {
			rows = "[redacted]"
		}
		fmt.Fprintf(w, "%2d. %-12s %-14s %-16s %s\n",
			i+1, op.Op, strat, rows,
			time.Duration(op.DurationNs).Round(time.Microsecond))
	}
	for _, a := range p.Aggs {
		fmt.Fprintf(w, " Σ  %-12s %-14s ε %g requested, %g charged  %s\n",
			a.Agg, a.Outcome, a.EpsilonRequested, a.EpsilonCharged,
			time.Duration(a.DurationNs).Round(time.Microsecond))
	}
	if p.Redacted {
		fmt.Fprintln(w, "    (record counts redacted: exact cardinalities are pre-noise values)")
	}
}

// ChargeMeter reports cumulative ε charged so far for the principal a
// profile is being built for — typically a closure over the dataset
// policy's SpentBy(analyst). The recorder reads it around each
// aggregation to derive the per-aggregation charge, which captures
// sensitivity scaling and dual-agent rollbacks that the requested ε
// does not reflect.
type ChargeMeter func() float64

// ProfileRecorder assembles a Profile from Recorder callbacks. Safe
// for concurrent use; a single pipeline reports sequentially, which is
// what makes the before/after meter reads around AggDone a correct
// per-aggregation attribution.
type ProfileRecorder struct {
	mu      sync.Mutex
	profile Profile
	meter   ChargeMeter
	charged float64 // meter reading after the last aggregation
}

// NewProfileRecorder creates a recorder. meter may be nil, in which
// case every EpsilonCharged is 0 — the shape used for budget-free
// local runs.
func NewProfileRecorder(meter ChargeMeter) *ProfileRecorder {
	r := &ProfileRecorder{meter: meter}
	if meter != nil {
		r.charged = meter()
	}
	return r
}

// OpDone implements Recorder.
func (r *ProfileRecorder) OpDone(op string, d time.Duration, in, out, workers int) {
	row := ProfileOp{
		Op:         op,
		DurationNs: int64(d),
		RecordsIn:  float64(in),
		RecordsOut: float64(out),
		Strategy:   StrategyName(workers),
	}
	if workers >= 2 {
		row.Workers = workers
	}
	r.mu.Lock()
	r.profile.Ops = append(r.profile.Ops, row)
	r.mu.Unlock()
}

// AggDone implements Recorder. The charged ε is the meter's movement
// since the previous aggregation: 0 for refusals and errors (the
// agent rolled back or never applied), the post-scaling charge for
// successes.
func (r *ProfileRecorder) AggDone(agg, outcome string, epsilon float64, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var charged float64
	if r.meter != nil {
		now := r.meter()
		charged = now - r.charged
		r.charged = now
		if charged < 0 {
			charged = 0
		}
	}
	r.profile.Aggs = append(r.profile.Aggs, ProfileAgg{
		Agg:              agg,
		Outcome:          outcome,
		EpsilonRequested: epsilon,
		EpsilonCharged:   charged,
		DurationNs:       int64(d),
	})
}

// Profile returns a copy of the profile assembled so far.
func (r *ProfileRecorder) Profile() *Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Profile{
		Ops:  append([]ProfileOp(nil), r.profile.Ops...),
		Aggs: append([]ProfileAgg(nil), r.profile.Aggs...),
	}
}
