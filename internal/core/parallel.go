package core

import (
	"hash/maphash"
	"sort"
)

// This file holds the sharded-hash strategy Join and GroupJoin take
// under ExecOptions (see exec.go), beside their sequential loops in
// queryable.go. (Every other operator runs the chunk loop in stream.go
// over one source range per worker: the record-wise ones directly, the
// keyed ones through the sinks in keyed.go.) Keys are hash-partitioned
// across one shard per worker, each worker builds its shard's map
// concurrently (a key's records all land in exactly one shard, so no
// locks), and the shards are merged by each key's global
// first-appearance index — restoring the documented first-appearance
// order exactly.
//
// Key functions are user code of unknown cost, so they are evaluated
// inside the parallel phase (once per record — the sequential paths
// hold the same single-evaluation contract).
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
