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
	out := make([]T, 0, len(q.records)+len(other.records))
	out = append(out, q.records...)
	out = append(out, other.records...)
	opDone(rec, "concat", start, len(q.records)+len(other.records), len(out), 0)
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

// Distinct keeps one record per distinct key. Removing duplicates does
// not amplify sensitivity (Table 1): adding or removing one input
// record changes the output by at most one record.
func Distinct[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[T] {
	if ctxErr(q.ctx) != nil {
		return derive(q, []T{}, q.agent)
	}
	if q.exec.active(len(q.records)) {
		return distinctParallel(q, key)
	}
	start := opStart(q.rec)
	// Keys are evaluated once into a slice so the dedup map (and the
	// output) can be sized from a sampled cardinality estimate instead
	// of the record count — a skewed input no longer allocates a
	// record-count-sized map to hold a handful of keys.
	keys := make([]K, len(q.records))
	for i, r := range q.records {
		keys[i] = key(r)
	}
	hint := cardinalityHint(keys)
	seen := make(map[K]struct{}, hint)
	out := make([]T, 0, hint)
	for i, r := range q.records {
		k := keys[i]
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	opDone(q.rec, "distinct", start, len(q.records), len(out), 0)
	return derive(q, out, q.agent)
}

// Group is one output record of GroupBy: a key and the records that
// share it. Group contents are only ever inspected inside later
// transformations, never revealed directly.
type Group[K comparable, T any] struct {
	Key   K
	Items []T
}

// cardinalitySample is how many keys cardinalityHint inspects. Large
// enough that heavily-skewed key sets (a handful of ports across a
// million packets) saturate the sample, small enough to be free next
// to the grouping pass itself.
const cardinalitySample = 1024

// cardinalityHint estimates the number of distinct keys from an
// evenly-strided sample, so keyed operators can size their maps close
// to the true group count instead of the record count. The estimator
// is deliberately simple: keys that appear only once in the sample
// ("singletons") are evidence of a long tail of unseen keys, so each
// one is scaled up by the sampling ratio; keys seen repeatedly are
// evidence of saturation and count once. Skewed workloads (17 ports
// across 1M packets) estimate ≈17 instead of 1M; all-distinct
// workloads estimate ≈n. The hint only sizes allocations — correctness
// never depends on it.
func cardinalityHint[K comparable](records []K) int {
	n := len(records)
	if n <= cardinalitySample {
		return n
	}
	step := n / cardinalitySample
	counts := make(map[K]int, cardinalitySample)
	for i := 0; i < cardinalitySample; i++ {
		counts[records[i*step]]++
	}
	singletons := 0
	for _, c := range counts {
		if c == 1 {
			singletons++
		}
	}
	est := (len(counts) - singletons) + singletons*step
	if est > n {
		est = n
	}
	if est < 1 {
		est = 1
	}
	return est
}

// GroupBy groups records by key. One input record arriving or departing
// changes at most one group, but that change both removes the old
// version of the group and adds a new one — hence GroupBy "increases
// sensitivity by two" (Table 1), which the result's agent accounts for.
//
// Groups are emitted in first-appearance order of their keys, so the
// pipeline is deterministic for a fixed input ordering.
//
// Memory: all group contents live in one shared arena sized exactly to
// the input, carved into capacity-clipped sub-slices per group, and
// the group index is sized from a sampled cardinality estimate rather
// than the record count. Compared to the naive per-group append loops
// this cuts a skewed 1M-record grouping from ~64 MB and one
// allocation per growth step to a handful of exactly-sized
// allocations (see BenchmarkGroupBy1M). Appending to a group's Items
// reallocates (the cap is clipped), so groups stay independent.
func GroupBy[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[Group[K, T]] {
	if ctxErr(q.ctx) != nil {
		return derive(q, []Group[K, T]{}, newScaleAgent(q.agent, 2))
	}
	if q.exec.active(len(q.records)) {
		return groupByParallel(q, key)
	}
	start := opStart(q.rec)
	n := len(q.records)
	// Pass 1: evaluate keys once, assign group ids in first-appearance
	// order, count each group's size.
	keys := make([]K, n)
	for i, r := range q.records {
		keys[i] = key(r)
	}
	index := make(map[K]int, cardinalityHint(keys))
	counts := make([]int, 0, 64)
	for _, k := range keys {
		if id, ok := index[k]; ok {
			counts[id]++
		} else {
			index[k] = len(counts)
			counts = append(counts, 1)
		}
	}
	// Pass 2: prefix-sum the counts into arena offsets and scatter the
	// records; each group's Items is a cap-clipped window of the arena.
	arena := make([]T, n)
	offsets := make([]int, len(counts))
	off := 0
	for id, c := range counts {
		offsets[id] = off
		off += c
	}
	cursors := append([]int(nil), offsets...)
	for i, r := range q.records {
		id := index[keys[i]]
		arena[cursors[id]] = r
		cursors[id]++
	}
	groups := make([]Group[K, T], len(counts))
	for k, id := range index {
		lo, hi := offsets[id], offsets[id]+counts[id]
		groups[id] = Group[K, T]{Key: k, Items: arena[lo:hi:hi]}
	}
	opDone(q.rec, "groupby", start, n, len(groups), 0)
	return derive(q, groups, newScaleAgent(q.agent, 2))
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

// Intersect keeps records of q whose key also appears in other,
// emitting each matched key's records from q once. Like Where with a
// protected predicate; no sensitivity increase for either input.
func Intersect[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	rec := combineRec(q.rec, other.rec)
	ctx := combineCtx(q.ctx, other.ctx)
	if ctxErr(ctx) != nil {
		res := derive(q, []T{}, newDualAgent(q.agent, other.agent))
		res.rec = rec
		res.ctx = ctx
		return res
	}
	if q.exec.active(len(q.records) + len(other.records)) {
		return semiJoinParallel(q, other, keyQ, keyOther, true, "intersect")
	}
	start := opStart(rec)
	present := make(map[K]struct{}, len(other.records))
	for _, r := range other.records {
		present[keyOther(r)] = struct{}{}
	}
	out := make([]T, 0, len(q.records))
	for _, r := range q.records {
		if _, ok := present[keyQ(r)]; ok {
			out = append(out, r)
		}
	}
	opDone(rec, "intersect", start, len(q.records)+len(other.records), len(out), 0)
	res := derive(q, out, newDualAgent(q.agent, other.agent))
	res.rec = rec
	res.ctx = ctx
	return res
}

// Except keeps records of q whose key does NOT appear in other — the
// set-difference counterpart of Intersect. Like a Where with a
// protected predicate: no sensitivity increase for either input, but
// aggregations charge both budgets.
func Except[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	rec := combineRec(q.rec, other.rec)
	ctx := combineCtx(q.ctx, other.ctx)
	if ctxErr(ctx) != nil {
		res := derive(q, []T{}, newDualAgent(q.agent, other.agent))
		res.rec = rec
		res.ctx = ctx
		return res
	}
	if q.exec.active(len(q.records) + len(other.records)) {
		return semiJoinParallel(q, other, keyQ, keyOther, false, "except")
	}
	start := opStart(rec)
	present := make(map[K]struct{}, len(other.records))
	for _, r := range other.records {
		present[keyOther(r)] = struct{}{}
	}
	out := make([]T, 0, len(q.records))
	for _, r := range q.records {
		if _, ok := present[keyQ(r)]; !ok {
			out = append(out, r)
		}
	}
	opDone(rec, "except", start, len(q.records)+len(other.records), len(out), 0)
	res := derive(q, out, newDualAgent(q.agent, other.agent))
	res.rec = rec
	res.ctx = ctx
	return res
}

// Partition splits the dataset into one part per key. The parts are
// disjoint, so the privacy cost charged to the source is the MAXIMUM of
// the parts' cumulative costs rather than their sum — the property the
// paper leans on throughout (per-bucket CDFs, per-link matrices,
// per-candidate evaluations). Records whose key is not listed are
// dropped. The returned map has exactly the given keys; missing keys
// map to empty parts.
func Partition[T any, K comparable](q *Queryable[T], keys []K, keyOf func(T) K) map[K]*Queryable[T] {
	wanted := make(map[K]int, len(keys))
	for i, k := range keys {
		if _, dup := wanted[k]; dup {
			panic("core: Partition keys must be distinct")
		}
		wanted[k] = i
	}
	if ctxErr(q.ctx) != nil {
		shared := newPartitionAgent(q.agent, len(keys))
		parts := make(map[K]*Queryable[T], len(keys))
		for i, k := range keys {
			parts[k] = derive(q, []T(nil), shared.member(i))
		}
		return parts
	}
	if q.exec.active(len(q.records)) {
		return partitionParallel(q, keys, keyOf, wanted)
	}
	start := opStart(q.rec)
	buckets := make([][]T, len(keys))
	matched := 0
	for _, r := range q.records {
		if i, ok := wanted[keyOf(r)]; ok {
			buckets[i] = append(buckets[i], r)
			matched++
		}
	}
	shared := newPartitionAgent(q.agent, len(keys))
	parts := make(map[K]*Queryable[T], len(keys))
	for i, k := range keys {
		parts[k] = derive(q, buckets[i], shared.member(i))
	}
	opDone(q.rec, "partition", start, len(q.records), matched, 0)
	return parts
}
