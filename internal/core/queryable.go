package core

import (
	"context"

	"dptrace/internal/noise"
	"dptrace/internal/obs"
)

// Queryable is an opaque handle to a protected dataset of records of
// type T. Analysts never see the records; they apply transformations
// (which return new Queryables) and aggregations (which return noisy
// scalars and charge the privacy budget).
//
// The zero value is not usable; construct one with NewQueryable.
type Queryable[T any] struct {
	records []T
	lazy    *lazySource[T] // set when the records are not one slice in hand (keyed.go)
	agent   Agent
	src     noise.Source
	rec     obs.Recorder    // nil (the default) disables telemetry
	exec    ExecOptions     // the width its scans run on; see exec.go
	ctx     context.Context // nil (the default) = never cancelled; see WithContext
}

// NewQueryable wraps records as a protected dataset with the given
// total privacy budget. Noise is drawn from src, which is wrapped to be
// safe for concurrent use; pass noise.NewCryptoSource() for deployments
// and a seeded source for reproducible experiments.
//
// The returned RootAgent lets the data owner observe cumulative
// privacy expenditure (it reveals nothing about the data).
func NewQueryable[T any](records []T, budget float64, src noise.Source) (*Queryable[T], *RootAgent) {
	root := NewRootAgent(budget)
	return &Queryable[T]{
		records: records,
		agent:   root,
		src:     noise.NewLockedSource(src),
		rec:     DefaultRecorder(),
		exec:    gomaxprocsExec(),
	}, root
}

// derive builds a child Queryable sharing this one's noise source,
// recorder, execution configuration, and context.
func derive[T, U any](q *Queryable[T], records []U, agent Agent) *Queryable[U] {
	return &Queryable[U]{records: records, agent: agent, src: q.src, rec: q.rec, exec: q.exec, ctx: q.ctx}
}

// Where returns the subset of records satisfying pred. Filtering does
// not amplify sensitivity (Table 1), so the result shares this
// Queryable's agent. The predicate may inspect records arbitrarily: its
// outputs stay behind the privacy curtain.
//
// Queryable transformations are eager: pred runs now, over every
// record, on the engine's one chunk loop (stream.go) — across workers
// when the input is large enough — and reports to the recorder.
func (q *Queryable[T]) Where(pred func(T) bool) *Queryable[T] {
	return q.Stream().Where(pred).Materialize()
}

// Concat appends other's records to this Queryable's. Each output
// record stems from exactly one input record of one input, so neither
// input's sensitivity increases (Table 1), but aggregations on the
// result charge both inputs' budgets.
func (q *Queryable[T]) Concat(other *Queryable[T]) *Queryable[T] {
	rec := combineRec(q.rec, other.rec)
	ctx := combineCtx(q.ctx, other.ctx)
	res := derive(q, []T{}, newDualAgent(q.agent, other.agent))
	res.rec = rec
	res.ctx = ctx
	if ctxErr(ctx) != nil {
		return res
	}
	start := opStart(rec)
	a, b := q.settled().records, other.settled().records
	out := make([]T, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	opDone(rec, "concat", start, len(a)+len(b), len(out), 0)
	res.records = out
	return res
}

// Select applies f to every record, eagerly, yielding a Queryable of
// the mapped type. One-to-one record mappings do not amplify
// sensitivity.
func Select[T, U any](q *Queryable[T], f func(T) U) *Queryable[U] {
	return StreamSelect(q.Stream(), f).Materialize()
}

// SelectMany applies f to every record, eagerly, and flattens the
// results, keeping at most fanout outputs per record. Because one input
// record can influence up to fanout output records, the result's
// sensitivity is amplified by fanout; fanout must be ≥ 1.
func SelectMany[T, U any](q *Queryable[T], fanout int, f func(T) []U) *Queryable[U] {
	return StreamSelectMany(q.Stream(), fanout, f).Materialize()
}
