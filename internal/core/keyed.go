package core

import (
	"runtime"
	"slices"
	"sync"
)

// This file is the keyed half of the engine: Distinct, GroupBy,
// GroupFold, Partition, Intersect, Except, Join and GroupJoin as sinks
// on the one chunk loop (stream.go). Each evaluates its key function
// exactly once per record, in a pass that polls the context per chunk
// like every scan, numbers keys with one keyIndex (keyindex.go), and
// stores a record only when the analyst asked for records:
//
//   - GroupFold folds each record into its key's accumulator as the
//     chunks go by and never holds a group;
//   - Distinct keeps each key's first record;
//   - GroupBy and Partition make an index pass — 4 bytes a record: the
//     number of the group it belongs to — and then scatter the records
//     into one exactly-sized arena, carved per group with clipped
//     capacity. GroupBy scatters on the spot. Partition's parts know
//     their sizes from the index pass alone, so a NoisyCount on a part
//     is O(1) as on a bare slice, and the scatter waits until something
//     scans a part (partition.gather);
//   - Join and GroupJoin group both inputs as GroupBy does (group),
//     then walk the left input's keys in first-appearance order and
//     look each up in the right input's key index.
//
// On an input of DefaultParallelThreshold records or more the passes
// run on the Queryable's width — GOMAXPROCS workers unless a test set
// another — as one sink per contiguous source range, combined in range
// order: a key's first appearance overall is its first appearance in
// the earliest range that has it, so first-appearance order falls out
// of range order and the output is the one-worker one byte for byte.
// GroupFold splits this way only when its caller gives it an exact merge;
// without one it takes one ordered range, like the float sums.

// keyed runs a keyed operator's pass: nothing at all on a context that
// is already cancelled, else one scan into sinks made by mk.
func keyed[T any, S sink[T]](s Stream[T], split int, mk func(i, n int) S) ([]S, bool) {
	if ctxErr(s.ctx) != nil {
		return nil, false
	}
	return scan(s, split, false, mk)
}

// firstSink keeps the first record of each key in its range, and the
// keys in that order.
type firstSink[T any, K comparable] struct {
	key  func(T) K
	seen *keyIndex[K]
	recs []T
	n    int
}

func (k *firstSink[T, K]) acceptChunk(c []T) {
	k.n += len(c)
	for j := range c {
		if _, added := k.seen.insert(k.key(c[j])); added {
			k.recs = append(k.recs, c[j])
		}
	}
}

// Distinct keeps one record per distinct key: the first, in input
// order. Removing duplicates does not amplify sensitivity (Table 1):
// adding or removing one input record changes the output by at most
// one record.
func Distinct[T any, K comparable](src Streamer[T], key func(T) K) *Queryable[T] {
	s := src.Stream()
	out := empty[T, T](s, s.agent)
	start := opStart(s.rec)
	// The index starts at a quarter of its range's length, up to 1,024
	// keys: a 1,000-packet window's ~240 sources fill half of a 4 KiB
	// table, and a large range grows from 2,048 slots by doubling.
	ranges, ok := keyed(s, 1, func(_, n int) *firstSink[T, K] {
		return &firstSink[T, K]{key: key, seen: newKeyIndex[K](min(n/4, 1<<10)), recs: []T{}}
	})
	if !ok {
		return out
	}
	first := ranges[0]
	for _, p := range ranges[1:] {
		first.n += p.n
		for j, k := range p.seen.keys {
			if _, added := first.seen.insert(k); added {
				first.recs = append(first.recs, p.recs[j])
			}
		}
	}
	opDone(s.rec, "distinct", start, first.n, len(first.recs), workersTag(len(ranges)))
	out.records = first.recs
	return out
}

// Group is one output record of GroupBy: a key and the records that
// share it. Group contents are only ever inspected inside later
// transformations, never revealed directly.
type Group[K comparable, T any] struct {
	Key   K
	Items []T
}

// Folded is one output record of GroupFold: a key and what the fold
// made of the records that share it.
type Folded[K comparable, A any] struct {
	Key   K
	Value A
}

// foldSink folds each record into its key's accumulator, keys numbered
// in first-appearance order. A sink that is one of several ranges
// yields its P after each chunk: the ranges take every P for as long
// as the fold runs, and the Go scheduler hands a P to a goroutine
// readied meanwhile (an ingest request, a syscall returning) only when
// a running one yields, or after 10 ms. Beside a closed loop of served
// queries on two CPUs the median ingest ack read +42 % without the
// yield and +8 % with it; the yield costs the fold about 6 %.
type foldSink[T any, K comparable, A any] struct {
	key   func(T) K
	fold  func(A, T) A
	index *keyIndex[K]
	out   []Folded[K, A]
	n     int
	yield bool
}

func (k *foldSink[T, K, A]) acceptChunk(c []T) {
	k.n += len(c)
	for j := range c {
		v := c[j] // read twice: one copy off the chunk (stream.go, "By value")
		key := k.key(v)
		id, added := k.index.insert(key)
		if added {
			k.out = append(k.out, Folded[K, A]{Key: key})
		}
		g := &k.out[id]
		g.Value = k.fold(g.Value, v)
	}
	if k.yield {
		runtime.Gosched()
	}
}

// GroupFold is Select(GroupBy(src, key), g → fold over g.Items in record
// order, from A's zero value) — Table 1's GroupBy with each group
// reduced in place: the same sensitivity ×2, the same first-appearance
// order, the same "groupby" row in a profile — holding one accumulator
// per key instead of the group's records. Use it when all a pipeline
// wants from a group is something it can accumulate (a size, a byte
// total, the two smallest timestamps); use GroupBy when it needs the
// records.
//
// With a merge, a large input is folded as one range per worker and
// each later range's accumulators are merged into the earlier ones, in
// range order. The merge must be exact: merge(fold over xs, fold over
// ys) equals fold over xs ++ ys, bit for bit, for any split. Integer
// sums and counts, minima and maxima are; a float sum is not. Where the
// ranges are cut depends on how many records there are, so an inexact
// merge would let one record change the value of another record's
// group. A nil merge folds the input as one ordered range.
func GroupFold[T any, K comparable, A any](src Streamer[T], key func(T) K, fold func(A, T) A, merge func(A, A) A) *Queryable[Folded[K, A]] {
	s := src.Stream()
	out := empty[T, Folded[K, A]](s, newScaleAgent(s.agent, 2))
	start := opStart(s.rec)
	split := 0 // one range
	if merge != nil {
		split = 1
	}
	ranges, ok := keyed(s, split, func(_, n int) *foldSink[T, K, A] {
		return &foldSink[T, K, A]{key: key, fold: fold, index: newKeyIndex[K](0), out: []Folded[K, A]{}, yield: n < s.n}
	})
	if !ok {
		return out
	}
	// Range 0's keys are in first-appearance order; each later range's
	// unseen keys follow, in range order, and its seen ones merge.
	first := ranges[0]
	for _, p := range ranges[1:] {
		first.n += p.n
		for _, g := range p.out {
			if id, added := first.index.insert(g.Key); added {
				first.out = append(first.out, g)
			} else {
				first.out[id].Value = merge(first.out[id].Value, g.Value)
			}
		}
	}
	opDone(s.rec, "groupby", start, first.n, len(first.out), workersTag(len(ranges)))
	out.records = first.out
	return out
}

// indexSink is the first pass of the operators that hand records back
// by key: it keeps, for its range, the number of the group each output
// record belongs to and each group's size. This one is GroupBy's: it
// numbers keys as they first appear in the range.
type indexSink[T any, K comparable] struct {
	key    func(T) K
	index  *keyIndex[K]
	counts []int   // number → records
	ids    []int32 // one per output record
}

func (k *indexSink[T, K]) acceptChunk(c []T) {
	base := len(k.ids)
	k.ids = slices.Grow(k.ids, len(c))[:base+len(c)]
	ids := k.ids[base:]
	for j := range c {
		id, added := k.index.insert(k.key(c[j]))
		if added {
			k.counts = append(k.counts, 0)
		}
		k.counts[id]++
		ids[j] = id
	}
}

func (k *indexSink[T, K]) numbers() ([]int32, []int) { return k.ids, k.counts }

// partSink is Partition's index pass: number, shared by the ranges,
// says which part a key is in (-1: none).
type partSink[T any, K comparable] struct {
	key    func(T) K
	number func(K) int32
	counts []int
	ids    []int32
}

func (k *partSink[T, K]) acceptChunk(c []T) {
	base := len(k.ids)
	k.ids = slices.Grow(k.ids, len(c))[:base+len(c)]
	ids := k.ids[base:]
	for j := range c {
		id := k.number(k.key(c[j]))
		if id >= 0 {
			k.counts[id]++
		}
		ids[j] = id
	}
}

func (k *partSink[T, K]) numbers() ([]int32, []int) { return k.ids, k.counts }

// placement is what an index pass leaves for the scatter pass.
type placement struct {
	ids [][]int32 // per range: each output record's number in the range's numbering
	at  [][]int   // per range and number: where the range's first record of that group goes
	off []int     // group g is arena[off[g]:off[g+1]]
	n   int       // records the pass saw
}

// place lays the ranges' groups out in one arena: group by group and,
// within a group, range by range — which is record order. remap[i]
// translates range i's numbers into groups; nil where they already are.
func place[S interface{ numbers() ([]int32, []int) }](ranges []S, remap [][]int32, groups int) placement {
	group := func(i, number int) int {
		if remap[i] == nil {
			return number
		}
		return int(remap[i][number])
	}
	l := placement{ids: make([][]int32, len(ranges)), at: make([][]int, len(ranges)), off: make([]int, groups+1)}
	for i, r := range ranges {
		ids, counts := r.numbers()
		l.ids[i] = ids
		l.n += len(ids)
		for number, c := range counts {
			l.off[group(i, number)+1] += c
		}
	}
	for g := 0; g < groups; g++ {
		l.off[g+1] += l.off[g]
	}
	next := slices.Clone(l.off[:groups])
	for i, r := range ranges {
		_, counts := r.numbers()
		l.at[i] = make([]int, len(counts))
		for number, c := range counts {
			g := group(i, number)
			l.at[i][number] = next[g]
			next[g] += c
		}
	}
	return l
}

// scatterSink is the second pass over a range: it consumes the range's
// numbers in step with its records and writes each record to its
// group's next place. Ranges write disjoint places.
type scatterSink[T any] struct {
	ids   []int32
	at    []int
	arena []T
}

func (k *scatterSink[T]) acceptChunk(c []T) {
	ids := k.ids[:len(c)]
	k.ids = k.ids[len(c):]
	for j := range c {
		if id := ids[j]; id >= 0 {
			k.arena[k.at[id]] = c[j]
			k.at[id]++
		}
	}
}

// scatter runs s a second time — over the same ranges, re-running its
// fused stages if it has any, as consuming a Stream twice always has —
// and returns the arena l describes. It advances the cursors in at. It
// reports nothing: the pass belongs to the operator whose index pass
// did.
func scatter[T any](s Stream[T], l *placement, at [][]int) ([]T, bool) {
	arena := make([]T, l.off[len(l.off)-1])
	_, _, ok := run(s, 1, func(i, _ int) *scatterSink[T] {
		return &scatterSink[T]{ids: l.ids[i], at: at[i], arena: arena}
	})
	return arena, ok
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
// the input, carved into capacity-clipped sub-slices per group.
// Appending to a group's Items reallocates (the cap is clipped), so
// groups stay independent.
func GroupBy[T any, K comparable](src Streamer[T], key func(T) K) *Queryable[Group[K, T]] {
	s := src.Stream()
	out := empty[T, Group[K, T]](s, newScaleAgent(s.agent, 2))
	start := opStart(s.rec)
	g, ok := group(s, key)
	if !ok {
		return out
	}
	groups := make([]Group[K, T], len(g.index.keys))
	for i, k := range g.index.keys {
		groups[i] = Group[K, T]{Key: k, Items: g.items(i)}
	}
	opDone(s.rec, "groupby", start, g.n, len(groups), workersTag(g.workers))
	out.records = groups
	return out
}

// grouping is what GroupBy's two passes leave: the keys numbered in
// first-appearance order and each group's records, in record order, in
// one arena.
type grouping[K comparable, T any] struct {
	index   *keyIndex[K]
	arena   []T
	off     []int // group g is arena[off[g]:off[g+1]]
	n       int   // records the passes saw
	workers int   // ranges they ran on
}

// items returns group i's records, capacity-clipped so that appending
// to them reallocates.
func (g *grouping[K, T]) items(i int) []T {
	return g.arena[g.off[i]:g.off[i+1]:g.off[i+1]]
}

// group groups s by key: an index pass that numbers every record's key,
// then a scatter pass into one arena sized exactly to the input. It
// charges nothing and reports no row: both belong to its caller. false
// means the context stopped a pass (or had fired before the first).
func group[T any, K comparable](s Stream[T], key func(T) K) (grouping[K, T], bool) {
	ranges, ok := keyed(s, 1, func(_, n int) *indexSink[T, K] {
		return &indexSink[T, K]{key: key, index: newKeyIndex[K](0), ids: make([]int32, 0, n)}
	})
	if !ok {
		return grouping[K, T]{}, false
	}
	// Range 0 numbered its keys as the whole input would; each later
	// range's new keys follow, in range order.
	first := ranges[0].index
	remap := make([][]int32, len(ranges))
	for i, p := range ranges[1:] {
		remap[i+1] = make([]int32, len(p.index.keys))
		for number, k := range p.index.keys {
			remap[i+1][number], _ = first.insert(k)
		}
	}
	l := place(ranges, remap, len(first.keys))
	arena, ok := scatter(s, &l, l.at)
	if !ok {
		return grouping[K, T]{}, false
	}
	return grouping[K, T]{index: first, arena: arena, off: l.off, n: l.n, workers: len(ranges)}, true
}

// partition is what the parts of one Partition share: the input, the
// index pass's placement, and — once some part has been scanned — the
// arena holding every part's records.
type partition[T any] struct {
	src Stream[T]
	placement
	mu    sync.Mutex // sibling parts are consumed concurrently
	arena []T
}

// gather returns the arena, filling it on first use by a scatter pass
// under the consuming scan's context. A pass that context abandons, or
// that panics in a fused stage, leaves the partition as it was for the
// next scan to try again.
func (p *partition[T]) gather(cn *canceler) ([]T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.arena == nil {
		s, at := p.src, make([][]int, len(p.at))
		s.ctx = nil
		if cn != nil {
			s.ctx = cn.ctx
		}
		for i := range at {
			at[i] = slices.Clone(p.at[i])
		}
		arena, ok := scatter(s, &p.placement, at)
		if !ok {
			return nil, false
		}
		p.arena, p.ids, p.at = arena, nil, nil
	}
	return p.arena, true
}

// source is a Queryable's records when they are not one slice in
// hand: a Partition part whose records are still to be gathered, or a
// view of a Log whose records straddle segments (log.go). size is the
// record count, feed is the Stream's feed — the loop over records
// [lo, hi) — and records puts them in one slice.
type source[T any] interface {
	size() int
	feed(r *scanRun, lo, hi int, down sink[T])
	records(cn *canceler) ([]T, bool)
}

// lazySource holds a Queryable's source behind one pointer, so that a
// Queryable is no larger than it was when a Partition part was the only
// source. Every served query copies Queryables in its frames, and a
// frame that grows moves the stack temporaries of the per-record loops
// below it onto other offsets (stream.go, "By value, through the
// stack"): eight more bytes in a Queryable put the served queries on a
// 10,000-packet dataset 8–16 % behind.
type lazySource[T any] struct{ source[T] }

// part is one Partition part whose records are still to be gathered.
type part[T any] struct {
	of  *partition[T]
	idx int
	box lazySource[T] // the part as its Queryable's source, allocated with it: Partition's frame keeps its size
}

func (p *part[T]) size() int { return p.of.off[p.idx+1] - p.of.off[p.idx] }

// records returns the part's window of the arena.
func (p *part[T]) records(cn *canceler) ([]T, bool) {
	arena, ok := p.of.gather(cn)
	if !ok {
		return nil, false
	}
	lo, hi := p.of.off[p.idx], p.of.off[p.idx+1]
	return arena[lo:hi:hi], true
}

// feed is the part's Stream.feed: the loop over its records.
func (p *part[T]) feed(r *scanRun, lo, hi int, down sink[T]) {
	recs, ok := p.records(r.cn)
	if !ok {
		r.cn.poll() // the gather saw the scan's context fire; so must the scan
		return
	}
	Stream[T]{recs: recs}.push(r, lo, hi, down)
}

// settled returns q with its records in one slice — q itself, unless
// its records come from a lazy source: how Concat, which reads whole
// slices, gets at q.records. A Partition part gathers, a Log view
// copies its records out of their segments; a gather the context
// abandons leaves no records, under a context that refuses every
// aggregation.
func (q *Queryable[T]) settled() *Queryable[T] {
	if q.lazy == nil {
		return q
	}
	out := *q
	out.records, _ = q.lazy.records(newCanceler(q.ctx))
	out.lazy = nil
	return &out
}

// Partition splits the dataset into one part per key. The parts are
// disjoint, so the privacy cost charged to the source is the MAXIMUM of
// the parts' cumulative costs rather than their sum — the property the
// paper leans on throughout (per-bucket CDFs, per-link matrices,
// per-candidate evaluations). Records whose key is not listed are
// dropped. The returned map has exactly the given keys; missing keys
// map to empty parts.
//
// Partition makes one pass that notes which part each record belongs
// to and counts the parts; the records are gathered — every part's at
// once, into one shared arena — only when something scans a part, so
// counting the parts (a CDF, a link matrix) copies no record.
func Partition[T any, K comparable](src Streamer[T], keys []K, keyOf func(T) K) map[K]*Queryable[T] {
	number := numbering(keys)
	s := src.Stream()
	start := opStart(s.rec)
	shared := &partition[T]{src: s}
	ranges, ok := keyed(s, 1, func(_, n int) *partSink[T, K] {
		return &partSink[T, K]{key: keyOf, number: number, counts: make([]int, len(keys)), ids: make([]int32, 0, n)}
	})
	if ok {
		shared.placement = place(ranges, make([][]int32, len(ranges)), len(keys))
		opDone(s.rec, "partition", start, shared.n, shared.off[len(keys)], workersTag(len(ranges)))
	}
	agent := newPartitionAgent(s.agent, len(keys))
	members := make([]part[T], len(keys))
	parts := make(map[K]*Queryable[T], len(keys))
	for i, k := range keys {
		q := empty[T, T](s, agent.member(i))
		if ok && shared.off[i+1] > shared.off[i] {
			members[i] = part[T]{of: shared, idx: i}
			members[i].box.source = &members[i]
			q.lazy = &members[i].box
		}
		parts[k] = q
	}
	return parts
}

// numbering turns Partition's key list into the number of a key's part
// (-1: unlisted): key − lo for integer keys lo, lo+1, …, lo+n−1 (a CDF's
// buckets, a link matrix's links and bins), else a keyIndex lookup.
func numbering[K comparable](keys []K) func(K) int32 {
	var f any
	switch ks := any(keys).(type) {
	case []int:
		f = consecutive(ks)
	case []int32:
		f = consecutive(ks)
	case []int64:
		f = consecutive(ks)
	}
	if f, ok := f.(func(K) int32); ok {
		return f
	}
	index := newKeyIndex[K](len(keys))
	for _, k := range keys {
		if _, added := index.insert(k); !added {
			panic("core: Partition keys must be distinct")
		}
	}
	return index.lookup
}

// consecutive is a func(N) int32 numbering keys lo, lo+1, …, lo+n−1 as
// key − lo, or nil for any other list. The subtraction may wrap, but a
// key whose difference lands in [0, n) is the listed key with that
// number.
func consecutive[N int | int32 | int64](keys []N) any {
	if len(keys) == 0 {
		return nil
	}
	for i, k := range keys {
		if k-keys[0] != N(i) {
			return nil
		}
	}
	lo, n := keys[0], uint64(len(keys))
	return func(k N) int32 {
		if d := uint64(k - lo); d < n {
			return int32(d)
		}
		return -1
	}
}

// keySetSink collects its range's keys.
type keySetSink[T any, K comparable] struct {
	key func(T) K
	set *keyIndex[K]
}

func (k *keySetSink[T, K]) acceptChunk(c []T) {
	for j := range c {
		k.set.insert(k.key(c[j]))
	}
}

// semiJoin is Intersect (keep) and Except (!keep): a key-set build over
// other, then q filtered against the set — a Where with a protected
// predicate, materialized under both inputs' agents and reported as one
// row counting both inputs.
func semiJoin[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K, keep bool, op string) *Queryable[T] {
	s, o := q.Stream(), other.Stream()
	s.agent = newDualAgent(q.agent, other.agent)
	s.rec = combineRec(q.rec, other.rec)
	s.ctx = combineCtx(q.ctx, other.ctx)
	o.exec, o.ctx = s.exec, s.ctx
	out := empty[T, T](s, s.agent)
	start := opStart(s.rec)
	sets, ok := keyed(o, 1, func(_, _ int) *keySetSink[U, K] {
		return &keySetSink[U, K]{key: keyOther, set: newKeyIndex[K](0)}
	})
	if !ok {
		return out
	}
	present := sets[0].set
	for _, p := range sets[1:] {
		for _, k := range p.set.keys {
			present.insert(k)
		}
	}
	filter := s
	filter.rec = nil // semiJoin reports the row
	recs, workers, ok := filter.Where(func(r T) bool {
		return (present.lookup(keyQ(r)) >= 0) == keep
	}).collect()
	if !ok {
		return out
	}
	opDone(s.rec, op, start, s.n+o.n, len(recs), workersTag(workers))
	out.records = recs
	return out
}

// Intersect keeps records of q whose key also appears in other,
// emitting each matched key's records from q once. Like Where with a
// protected predicate; no sensitivity increase for either input.
func Intersect[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	return semiJoin(q, other, keyQ, keyOther, true, "intersect")
}

// Except keeps records of q whose key does NOT appear in other — the
// set-difference counterpart of Intersect. Like a Where with a
// protected predicate: no sensitivity increase for either input, but
// aggregations charge both budgets.
func Except[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	return semiJoin(q, other, keyQ, keyOther, false, "except")
}

// joinGroups is Join and GroupJoin: both inputs grouped by key, each on
// the width of a's execution options, then a's keys walked in
// first-appearance order and each looked up among b's. pair appends the
// outputs for a key both inputs have, handed the two groups in record
// order. The operator reports one row counting both inputs.
func joinGroups[T, U any, K comparable, R any](a *Queryable[T], b *Queryable[U], keyA func(T) K, keyB func(U) K,
	op string, agent Agent, pair func(out []R, k K, ga []T, gb []U) []R) *Queryable[R] {
	sa, sb := a.Stream(), b.Stream()
	sa.rec = combineRec(a.rec, b.rec)
	sa.ctx = combineCtx(a.ctx, b.ctx)
	sb.exec, sb.ctx = sa.exec, sa.ctx
	out := empty[T, R](sa, agent)
	start := opStart(sa.rec)
	ga, ok := group(sa, keyA)
	if !ok {
		return out
	}
	gb, ok := group(sb, keyB)
	if !ok {
		return out
	}
	// Room for one output per key of a: the most GroupJoin makes, and
	// what a Join of distinct keys makes.
	recs := make([]R, 0, len(ga.index.keys))
	for i, k := range ga.index.keys {
		if j := gb.index.lookup(k); j >= 0 {
			recs = pair(recs, k, ga.items(i), gb.items(int(j)))
		}
	}
	opDone(sa.rec, op, start, ga.n+gb.n, len(recs), workersTag(max(ga.workers, gb.workers)))
	out.records = recs
	return out
}

// Join is PINQ's bounded join. Unlike a SQL equijoin, where one record
// can match unboundedly many partners, both inputs are grouped by key
// and, for every key both have, the two groups are zipped in record
// order: a's i-th record of the key with b's i-th, up to the shorter
// group. Each output record uses one record of each input, so neither
// input's charge is scaled (Table 1). A record's partner depends on its
// place in its group, though: removing the first of a key's g records
// re-pairs the rest, which changes 2g − 1 output records, not one.
// Whether the unscaled charge covers that is open (ROADMAP.md, item
// 1(c)); the zip stays as it is until then.
func Join[T, U any, K comparable, R any](
	a *Queryable[T], b *Queryable[U],
	keyA func(T) K, keyB func(U) K,
	result func(T, U) R,
) *Queryable[R] {
	return joinGroups(a, b, keyA, keyB, "join", newDualAgent(a.agent, b.agent),
		func(out []R, _ K, ga []T, gb []U) []R {
			for i := range min(len(ga), len(gb)) {
				out = append(out, result(ga[i], gb[i]))
			}
			return out
		})
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
	agent := newDualAgent(newScaleAgent(a.agent, 2), newScaleAgent(b.agent, 2))
	return joinGroups(a, b, keyA, keyB, "groupjoin", agent,
		func(out []R, k K, ga []T, gb []U) []R { return append(out, result(k, ga, gb)) })
}
