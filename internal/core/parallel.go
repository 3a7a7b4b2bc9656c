package core

import (
	"hash/maphash"
	"sort"
)

// This file holds the keyed operators' data-parallel strategies,
// selected by ExecOptions (see exec.go) beside their sequential loops
// in queryable.go. (The record-wise operators have no strategy of
// their own: the chunk loop in stream.go runs over one source range per
// worker.) Two families:
//
//   - Chunked worker-pool execution for Distinct and Partition: the
//     input is split into one contiguous chunk per worker, each worker
//     processes its chunk independently into private storage, and the
//     results are merged in chunk order. Because chunks cover the
//     input in order and the merge concatenates in chunk order, the
//     output is byte-identical to the sequential single-pass loop.
//
//   - Sharded-hash execution for GroupBy/Join/GroupJoin/Intersect/
//     Except: keys are hash-partitioned across one shard per worker,
//     each worker builds its shard's map concurrently (a key's records
//     all land in exactly one shard, so no locks), and the shards are
//     merged by each key's global first-appearance index — restoring
//     the documented first-appearance order exactly.
//
// Key functions are user code of unknown cost, so both families
// evaluate them inside the parallel phase (once per record — the
// sequential paths hold the same single-evaluation contract).
//
// The shard hash (hash/maphash.Comparable) is seeded randomly per
// process. That randomness never reaches the output: shard assignment
// only decides WHICH worker builds a key's group, while the merge
// order comes from first-appearance indexes, which are a pure function
// of the input ordering.

// shardSeed seeds the hash that partitions keys across shards.
var shardSeed = maphash.MakeSeed()

// shardOf assigns key k to one of w shards.
func shardOf[K comparable](k K, w int) int {
	return int(maphash.Comparable(shardSeed, k) % uint64(w))
}

// mergeChunks concatenates per-worker output slices in chunk order.
// The result is non-nil even when empty, matching the sequential
// paths' make([]T, 0, …) outputs.
func mergeChunks[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// distinctParallel parallelizes the key computation and per-chunk
// dedup; a sequential pass over the (much smaller) per-chunk survivors
// restores the global first-appearance order.
func distinctParallel[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[T] {
	start := opStart(q.rec)
	n := len(q.records)
	w := q.exec.width(n)
	cn := newCanceler(q.ctx)
	recParts := make([][]T, w)
	keyParts := make([][]K, w)
	runWorkers(w, func(i int) {
		lo, hi := chunk(n, w, i)
		seen := make(map[K]struct{}, hi-lo)
		recs := make([]T, 0, hi-lo)
		keys := make([]K, 0, hi-lo)
		for j, r := range q.records[lo:hi] {
			if cn.poll(j) {
				return
			}
			k := key(r)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			recs = append(recs, r)
			keys = append(keys, k)
		}
		recParts[i] = recs
		keyParts[i] = keys
	})
	if cn.abandoned() {
		return derive(q, []T{}, q.agent)
	}
	// Cross-chunk dedup: chunks are scanned in input order and each
	// chunk preserved its local first appearances, so the global first
	// appearance of every key survives.
	total := 0
	for _, p := range recParts {
		total += len(p)
	}
	seen := make(map[K]struct{}, total)
	out := make([]T, 0, total)
	for ci, recs := range recParts {
		for j, r := range recs {
			k := keyParts[ci][j]
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, r)
		}
	}
	parallelExecs.Add(1)
	opDone(q.rec, "distinct", start, n, len(out), w)
	return derive(q, out, q.agent)
}

// keyedGroup is one key's records plus the global index of the key's
// first appearance, the merge ordinal that restores sequential order.
type keyedGroup[K comparable, T any] struct {
	first int
	key   K
	items []T
}

// buildShards hash-partitions records by key across w shards and
// builds each shard's groups concurrently. Within a shard, groups are
// naturally ordered by first appearance (records are scanned in input
// order). The returned maps index each shard's groups for lookups.
func buildShards[T any, K comparable](records []T, keyFn func(T) K, w int, cn *canceler) (groups [][]keyedGroup[K, T], index []map[K]int) {
	n := len(records)
	// Phase 1 (chunked): evaluate the key function once per record and
	// tag each record with its shard.
	keys := make([]K, n)
	shards := make([]uint32, n)
	cw := w
	if cw > n {
		cw = n
	}
	runWorkers(cw, func(i int) {
		lo, hi := chunk(n, cw, i)
		for j := lo; j < hi; j++ {
			if cn.poll(j - lo) {
				return
			}
			k := keyFn(records[j])
			keys[j] = k
			shards[j] = uint32(shardOf(k, w))
		}
	})
	if cn.abandoned() {
		return make([][]keyedGroup[K, T], w), make([]map[K]int, w)
	}
	// Phase 2 (sharded): each worker owns one shard and scans the tag
	// array for its records. A key's records all carry the same tag, so
	// shard maps never race.
	groups = make([][]keyedGroup[K, T], w)
	index = make([]map[K]int, w)
	runWorkers(w, func(s int) {
		idx := make(map[K]int)
		var gs []keyedGroup[K, T]
		for j := 0; j < n; j++ {
			if cn.poll(j) {
				return
			}
			if shards[j] != uint32(s) {
				continue
			}
			k := keys[j]
			if gi, ok := idx[k]; ok {
				gs[gi].items = append(gs[gi].items, records[j])
			} else {
				idx[k] = len(gs)
				gs = append(gs, keyedGroup[K, T]{first: j, key: k, items: []T{records[j]}})
			}
		}
		groups[s] = gs
		index[s] = idx
	})
	return groups, index
}

// mergeByFirst flattens per-shard groups into global first-appearance
// order.
func mergeByFirst[K comparable, T any](shards [][]keyedGroup[K, T]) []keyedGroup[K, T] {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	all := make([]keyedGroup[K, T], 0, total)
	for _, s := range shards {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	return all
}

// shardLookup finds key k's records in sharded groups built with the
// same width.
func shardLookup[K comparable, T any](groups [][]keyedGroup[K, T], index []map[K]int, k K) ([]T, bool) {
	s := shardOf(k, len(groups))
	gi, ok := index[s][k]
	if !ok {
		return nil, false
	}
	return groups[s][gi].items, true
}

// groupByParallel is the sharded-hash strategy for GroupBy.
func groupByParallel[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[Group[K, T]] {
	start := opStart(q.rec)
	n := len(q.records)
	w := q.exec.width(n)
	cn := newCanceler(q.ctx)
	shards, _ := buildShards(q.records, key, w, cn)
	if cn.abandoned() {
		return derive(q, []Group[K, T]{}, newScaleAgent(q.agent, 2))
	}
	ordered := mergeByFirst(shards)
	groups := make([]Group[K, T], len(ordered))
	for i, g := range ordered {
		groups[i] = Group[K, T]{Key: g.key, Items: g.items}
	}
	parallelExecs.Add(1)
	opDone(q.rec, "groupby", start, n, len(groups), w)
	return derive(q, groups, newScaleAgent(q.agent, 2))
}

// joinParallel is the sharded-hash strategy for Join: both sides'
// groups build concurrently, then the zip phase is chunked over the
// left side's first-appearance key order.
func joinParallel[T, U any, K comparable, R any](
	a *Queryable[T], b *Queryable[U],
	keyA func(T) K, keyB func(U) K,
	result func(T, U) R,
) *Queryable[R] {
	rec := combineRec(a.rec, b.rec)
	ctx := combineCtx(a.ctx, b.ctx)
	start := opStart(rec)
	w := a.exec.width(len(a.records) + len(b.records))
	cn := newCanceler(ctx)
	var shardsA [][]keyedGroup[K, T]
	var shardsB [][]keyedGroup[K, U]
	var indexB []map[K]int
	runWorkers(2, func(side int) {
		if side == 0 {
			shardsA, _ = buildShards(a.records, keyA, w, cn)
		} else {
			shardsB, indexB = buildShards(b.records, keyB, w, cn)
		}
	})
	empty := func() *Queryable[R] {
		res := derive(a, []R{}, newDualAgent(a.agent, b.agent))
		res.rec = rec
		res.ctx = ctx
		return res
	}
	if cn.abandoned() {
		return empty()
	}
	orderA := mergeByFirst(shardsA)

	nk := len(orderA)
	cw := w
	if cw > nk {
		cw = nk
	}
	if cw < 1 {
		cw = 1
	}
	parts := make([][]R, cw)
	runWorkers(cw, func(i int) {
		lo, hi := chunk(nk, cw, i)
		out := make([]R, 0, hi-lo)
		for gi, g := range orderA[lo:hi] {
			if cn.poll(gi) {
				return
			}
			gb, ok := shardLookup(shardsB, indexB, g.key)
			if !ok {
				continue
			}
			ga := g.items
			n := len(ga)
			if len(gb) < n {
				n = len(gb)
			}
			for j := 0; j < n; j++ {
				out = append(out, result(ga[j], gb[j]))
			}
		}
		parts[i] = out
	})
	if cn.abandoned() {
		return empty()
	}
	out := mergeChunks(parts)
	parallelExecs.Add(1)
	opDone(rec, "join", start, len(a.records)+len(b.records), len(out), w)
	res := derive(a, out, newDualAgent(a.agent, b.agent))
	res.rec = rec
	res.ctx = ctx
	return res
}

// groupJoinParallel is the sharded-hash strategy for GroupJoin.
func groupJoinParallel[T, U any, K comparable, R any](
	a *Queryable[T], b *Queryable[U],
	keyA func(T) K, keyB func(U) K,
	result func(K, []T, []U) R,
) *Queryable[R] {
	rec := combineRec(a.rec, b.rec)
	ctx := combineCtx(a.ctx, b.ctx)
	start := opStart(rec)
	w := a.exec.width(len(a.records) + len(b.records))
	cn := newCanceler(ctx)
	var shardsA [][]keyedGroup[K, T]
	var shardsB [][]keyedGroup[K, U]
	var indexB []map[K]int
	runWorkers(2, func(side int) {
		if side == 0 {
			shardsA, _ = buildShards(a.records, keyA, w, cn)
		} else {
			shardsB, indexB = buildShards(b.records, keyB, w, cn)
		}
	})
	agent := func() Agent {
		return newDualAgent(newScaleAgent(a.agent, 2), newScaleAgent(b.agent, 2))
	}
	empty := func() *Queryable[R] {
		res := derive(a, []R{}, agent())
		res.rec = rec
		res.ctx = ctx
		return res
	}
	if cn.abandoned() {
		return empty()
	}
	orderA := mergeByFirst(shardsA)

	nk := len(orderA)
	cw := w
	if cw > nk {
		cw = nk
	}
	if cw < 1 {
		cw = 1
	}
	parts := make([][]R, cw)
	runWorkers(cw, func(i int) {
		lo, hi := chunk(nk, cw, i)
		out := make([]R, 0, hi-lo)
		for gi, g := range orderA[lo:hi] {
			if cn.poll(gi) {
				return
			}
			gb, ok := shardLookup(shardsB, indexB, g.key)
			if !ok {
				continue
			}
			out = append(out, result(g.key, g.items, gb))
		}
		parts[i] = out
	})
	if cn.abandoned() {
		return empty()
	}
	out := mergeChunks(parts)
	parallelExecs.Add(1)
	opDone(rec, "groupjoin", start, len(a.records)+len(b.records), len(out), w)
	res := derive(a, out, agent())
	res.rec = rec
	res.ctx = ctx
	return res
}

// buildKeySet hash-partitions other-side keys across w shard sets,
// building them concurrently.
func buildKeySet[U any, K comparable](records []U, keyFn func(U) K, w int, cn *canceler) []map[K]struct{} {
	n := len(records)
	keys := make([]K, n)
	shards := make([]uint32, n)
	cw := w
	if cw > n {
		cw = n
	}
	if cw < 1 {
		cw = 1
	}
	runWorkers(cw, func(i int) {
		lo, hi := chunk(n, cw, i)
		for j := lo; j < hi; j++ {
			if cn.poll(j - lo) {
				return
			}
			k := keyFn(records[j])
			keys[j] = k
			shards[j] = uint32(shardOf(k, w))
		}
	})
	sets := make([]map[K]struct{}, w)
	if cn.abandoned() {
		return sets
	}
	runWorkers(w, func(s int) {
		set := make(map[K]struct{})
		for j := 0; j < n; j++ {
			if cn.poll(j) {
				return
			}
			if shards[j] == uint32(s) {
				set[keys[j]] = struct{}{}
			}
		}
		sets[s] = set
	})
	return sets
}

// semiJoinParallel implements Intersect (keep=true) and Except
// (keep=false): a sharded set build over other, then a chunked filter
// of q's records against it.
func semiJoinParallel[T, U any, K comparable](
	q *Queryable[T], other *Queryable[U],
	keyQ func(T) K, keyOther func(U) K,
	keep bool, op string,
) *Queryable[T] {
	rec := combineRec(q.rec, other.rec)
	ctx := combineCtx(q.ctx, other.ctx)
	start := opStart(rec)
	n := len(q.records)
	w := q.exec.width(n + len(other.records))
	cn := newCanceler(ctx)
	empty := func() *Queryable[T] {
		res := derive(q, []T{}, newDualAgent(q.agent, other.agent))
		res.rec = rec
		res.ctx = ctx
		return res
	}
	present := buildKeySet(other.records, keyOther, w, cn)
	if cn.abandoned() {
		return empty()
	}

	cw := w
	if cw > n {
		cw = n
	}
	if cw < 1 {
		cw = 1
	}
	parts := make([][]T, cw)
	runWorkers(cw, func(i int) {
		lo, hi := chunk(n, cw, i)
		out := make([]T, 0, hi-lo)
		for j, r := range q.records[lo:hi] {
			if cn.poll(j) {
				return
			}
			k := keyQ(r)
			_, ok := present[shardOf(k, w)][k]
			if ok == keep {
				out = append(out, r)
			}
		}
		parts[i] = out
	})
	if cn.abandoned() {
		return empty()
	}
	out := mergeChunks(parts)
	parallelExecs.Add(1)
	opDone(rec, op, start, n+len(other.records), len(out), w)
	res := derive(q, out, newDualAgent(q.agent, other.agent))
	res.rec = rec
	res.ctx = ctx
	return res
}

// partitionParallel is the chunked strategy for Partition: each worker
// fills private buckets for its chunk, merged bucket-wise in chunk
// order.
func partitionParallel[T any, K comparable](q *Queryable[T], keys []K, keyOf func(T) K, wanted map[K]int) map[K]*Queryable[T] {
	start := opStart(q.rec)
	n := len(q.records)
	w := q.exec.width(n)
	cn := newCanceler(q.ctx)
	localBuckets := make([][][]T, w)
	localMatched := make([]int, w)
	runWorkers(w, func(i int) {
		lo, hi := chunk(n, w, i)
		buckets := make([][]T, len(keys))
		matched := 0
		for j, r := range q.records[lo:hi] {
			if cn.poll(j) {
				return
			}
			if bi, ok := wanted[keyOf(r)]; ok {
				buckets[bi] = append(buckets[bi], r)
				matched++
			}
		}
		localBuckets[i] = buckets
		localMatched[i] = matched
	})
	if cn.abandoned() {
		shared := newPartitionAgent(q.agent, len(keys))
		parts := make(map[K]*Queryable[T], len(keys))
		for i, k := range keys {
			parts[k] = derive(q, []T(nil), shared.member(i))
		}
		return parts
	}
	matched := 0
	for _, m := range localMatched {
		matched += m
	}
	// Merge per-key in chunk order. Buckets with no records stay nil,
	// matching the sequential path.
	buckets := make([][]T, len(keys))
	for bi := range keys {
		for ci := 0; ci < w; ci++ {
			buckets[bi] = append(buckets[bi], localBuckets[ci][bi]...)
		}
	}
	shared := newPartitionAgent(q.agent, len(keys))
	parts := make(map[K]*Queryable[T], len(keys))
	for i, k := range keys {
		parts[k] = derive(q, buckets[i], shared.member(i))
	}
	parallelExecs.Add(1)
	opDone(q.rec, "partition", start, n, matched, w)
	return parts
}
