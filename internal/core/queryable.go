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
	exec    ExecOptions     // zero value (the default) = sequential execution
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
		exec:    DefaultExecOptions(),
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
// when WithParallelism says so — and reports to the recorder.
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

// Join is PINQ's bounded join. Unlike a SQL equijoin — where one record
// can match unboundedly many partners and would destroy the privacy
// guarantee — both inputs are grouped by key and the matched groups are
// zipped pairwise, so each input record influences at most one output
// record. Neither input's sensitivity increases (Table 1).
func Join[T, U any, K comparable, R any](
	a *Queryable[T], b *Queryable[U],
	keyA func(T) K, keyB func(U) K,
	result func(T, U) R,
) *Queryable[R] {
	rec := combineRec(a.rec, b.rec)
	ctx := combineCtx(a.ctx, b.ctx)
	if ctxErr(ctx) != nil {
		res := derive(a, []R{}, newDualAgent(a.agent, b.agent))
		res.rec = rec
		res.ctx = ctx
		return res
	}
	a, b = a.settled(), b.settled()
	if a.exec.active(len(a.records) + len(b.records)) {
		return joinParallel(a, b, keyA, keyB, result)
	}
	start := opStart(rec)
	groupsA := make(map[K][]T, len(a.records))
	orderA := make([]K, 0, len(a.records))
	for _, r := range a.records {
		k := keyA(r)
		if _, ok := groupsA[k]; !ok {
			orderA = append(orderA, k)
		}
		groupsA[k] = append(groupsA[k], r)
	}
	groupsB := make(map[K][]U, len(b.records))
	for _, r := range b.records {
		k := keyB(r)
		groupsB[k] = append(groupsB[k], r)
	}
	// Each left record contributes at most one zipped pair.
	out := make([]R, 0, min(len(a.records), len(b.records)))
	for _, k := range orderA {
		ga := groupsA[k]
		gb, ok := groupsB[k]
		if !ok {
			continue
		}
		n := len(ga)
		if len(gb) < n {
			n = len(gb)
		}
		for i := 0; i < n; i++ {
			out = append(out, result(ga[i], gb[i]))
		}
	}
	opDone(rec, "join", start, len(a.records)+len(b.records), len(out), 0)
	res := derive(a, out, newDualAgent(a.agent, b.agent))
	res.rec = rec
	res.ctx = ctx
	return res
}

// GroupJoin is the variant of the bounded join that hands the result
// function the full pair of matched groups rather than zipped record
// pairs, matching the paper's description that "the Join results in a
// list of pairs of groups". Each output record corresponds to one key,
// so each input record influences at most two output records (its
// group's pair changes); the ×2 is folded into each input's charge.
func GroupJoin[T, U any, K comparable, R any](
	a *Queryable[T], b *Queryable[U],
	keyA func(T) K, keyB func(U) K,
	result func(K, []T, []U) R,
) *Queryable[R] {
	rec := combineRec(a.rec, b.rec)
	ctx := combineCtx(a.ctx, b.ctx)
	if ctxErr(ctx) != nil {
		agent := newDualAgent(newScaleAgent(a.agent, 2), newScaleAgent(b.agent, 2))
		res := derive(a, []R{}, agent)
		res.rec = rec
		res.ctx = ctx
		return res
	}
	a, b = a.settled(), b.settled()
	if a.exec.active(len(a.records) + len(b.records)) {
		return groupJoinParallel(a, b, keyA, keyB, result)
	}
	start := opStart(rec)
	groupsA := make(map[K][]T, len(a.records))
	orderA := make([]K, 0, len(a.records))
	for _, r := range a.records {
		k := keyA(r)
		if _, ok := groupsA[k]; !ok {
			orderA = append(orderA, k)
		}
		groupsA[k] = append(groupsA[k], r)
	}
	groupsB := make(map[K][]U, len(b.records))
	for _, r := range b.records {
		k := keyB(r)
		groupsB[k] = append(groupsB[k], r)
	}
	// At most one output record per distinct left key.
	out := make([]R, 0, len(orderA))
	for _, k := range orderA {
		gb, ok := groupsB[k]
		if !ok {
			continue
		}
		out = append(out, result(k, groupsA[k], gb))
	}
	opDone(rec, "groupjoin", start, len(a.records)+len(b.records), len(out), 0)
	agent := newDualAgent(newScaleAgent(a.agent, 2), newScaleAgent(b.agent, 2))
	res := derive(a, out, agent)
	res.rec = rec
	res.ctx = ctx
	return res
}
