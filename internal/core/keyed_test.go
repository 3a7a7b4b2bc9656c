package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dptrace/internal/noise"
)

// The keyed operators — Distinct, GroupBy, GroupFold, Partition,
// Intersect, Except, Join, GroupJoin — against an independent reference, the way
// exec_test.go holds the record-wise executor to one. Each operator has
// one body (keyed.go), so one worker count against another compares
// that body with itself. The reference below is written from the
// paper's Table 1 with maps and slices, one record at a time, and
// shares nothing with the engine but the noise package: it says which
// records come out in which order, and what every count charges —
// stability 2 behind a grouping, the maximum over a Partition's parts,
// both inputs of a semi-join or a join.

// refGroup is one group of the reference's GroupBy.
type refGroup[K comparable] struct {
	key   K
	items []flowRec
}

// refGroupBy groups in first-appearance order of the keys, each group's
// records in input order.
func refGroupBy[K comparable](in []flowRec, key func(flowRec) K) []refGroup[K] {
	at := map[K]int{}
	var out []refGroup[K]
	for _, r := range in {
		k := key(r)
		i, seen := at[k]
		if !seen {
			i = len(out)
			at[k] = i
			out = append(out, refGroup[K]{key: k})
		}
		out[i].items = append(out[i].items, r)
	}
	return out
}

// refDistinct is the first record of every group.
func refDistinct[K comparable](in []flowRec, key func(flowRec) K) []flowRec {
	var out []flowRec
	for _, g := range refGroupBy(in, key) {
		out = append(out, g.items[0])
	}
	return out
}

// refPartition has exactly the listed keys: a missing key's part is
// empty, a record with an unlisted key is in no part.
func refPartition[K comparable](in []flowRec, keys []K, key func(flowRec) K) map[K][]flowRec {
	parts := make(map[K][]flowRec)
	for _, k := range keys {
		parts[k] = nil
	}
	for _, r := range in {
		k := key(r)
		if _, listed := parts[k]; listed {
			parts[k] = append(parts[k], r)
		}
	}
	return parts
}

// refSemiJoin keeps in's records whose key is (keep) or is not (!keep)
// among other's keys.
func refSemiJoin[K comparable](in, other []flowRec, keyIn, keyOther func(flowRec) K, keep bool) []flowRec {
	present := map[K]bool{}
	for _, r := range other {
		present[keyOther(r)] = true
	}
	var out []flowRec
	for _, r := range in {
		if present[keyIn(r)] == keep {
			out = append(out, r)
		}
	}
	return out
}

// refJoin is Join written as a map loop: b grouped by key, a's groups
// in first-appearance order, each zipped with b's group of its key up
// to the shorter of the two.
func refJoin[K comparable, R any](a, b []flowRec, keyA, keyB func(flowRec) K, result func(x, y flowRec) R) []R {
	var out []R
	refJoinGroups(a, b, keyA, keyB, func(_ K, ga, gb []flowRec) {
		for i := 0; i < len(ga) && i < len(gb); i++ {
			out = append(out, result(ga[i], gb[i]))
		}
	})
	return out
}

// refGroupJoin is GroupJoin written the same way: one output per key
// both inputs have.
func refGroupJoin[K comparable, R any](a, b []flowRec, keyA, keyB func(flowRec) K, result func(k K, ga, gb []flowRec) R) []R {
	var out []R
	refJoinGroups(a, b, keyA, keyB, func(k K, ga, gb []flowRec) { out = append(out, result(k, ga, gb)) })
	return out
}

func refJoinGroups[K comparable](a, b []flowRec, keyA, keyB func(flowRec) K, pair func(k K, ga, gb []flowRec)) {
	groupsB := map[K][]flowRec{}
	for _, r := range b {
		k := keyB(r)
		groupsB[k] = append(groupsB[k], r)
	}
	for _, g := range refGroupBy(a, keyA) {
		if gb, ok := groupsB[g.key]; ok {
			pair(g.key, g.items, gb)
		}
	}
}

// refCharger is the reference's accounting: who pays for a count.
type refCharger interface{ charge(eps float64) bool }

// refRoot holds a dataset's budget.
type refRoot struct{ budget, spent float64 }

func (r *refRoot) charge(eps float64) bool {
	if r.spent+eps > r.budget {
		return false
	}
	r.spent += eps
	return true
}

// refScaled multiplies what it passes up: GroupBy's stability of two.
type refScaled struct {
	parent refCharger
	by     float64
}

func (s refScaled) charge(eps float64) bool { return s.parent.charge(eps * s.by) }

// refParts charges its parent only what raises the maximum over its
// parts' cumulative spends.
type refParts struct {
	parent refCharger
	spent  []float64
	max    float64
}

type refPart struct {
	of *refParts
	i  int
}

func (p refPart) charge(eps float64) bool {
	total := p.of.spent[p.i] + eps
	if total > p.of.max {
		if !p.of.parent.charge(total - p.of.max) {
			return false
		}
		p.of.max = total
	}
	p.of.spent[p.i] = total
	return true
}

// refCount is a noisy count on the reference: charge, then one draw.
func refCount(n int, payer refCharger, src noise.Source, eps float64) (float64, bool) {
	if !payer.charge(eps) {
		return 0, false
	}
	return float64(n) + noise.LaplaceForEpsilon(src, 1, eps), true
}

// keyedSizes straddle the chunk size and the default parallel threshold.
var keyedSizes = []int{chunkSize - 1, chunkSize, chunkSize + 1,
	DefaultParallelThreshold - 1, DefaultParallelThreshold, DefaultParallelThreshold + 1}

// keySet is one key function with the key list Partition gets: some
// keys present, one (the last) in no record; a present key that is not
// listed is dropped. check runs every keyed operator with it on one cell
// of the matrix.
type keySet struct {
	name  string
	check func(t *testing.T, c keyedCase)
}

func keySetOf[K comparable](name string, key func(flowRec) K, listed func(flows []flowRec) []K) keySet {
	return keySet{name, func(t *testing.T, c keyedCase) { checkKeyed(t, c, key, listed(c.flows)) }}
}

// portParity is a key of no integer kind, which the key index holds in a
// Go map; the integer keys below take its open-addressing table.
type portParity struct {
	Port uint16
	Odd  bool
}

// negSrc is a negative int64 key; every one ends in the same 32 bits.
func negSrc(src uint32) int64 { return -int64(src)<<32 - 1 }

var keySets = []keySet{
	keySetOf("few-keys", func(f flowRec) uint32 { return uint32(f.Port) },
		func([]flowRec) []uint32 { return []uint32{0, 1, 2, 3, 5, 8, 13, 99} }),
	// keyedFlows makes Dst unique, so every group and part has one record.
	keySetOf("all-distinct", func(f flowRec) uint32 { return f.Dst },
		func(flows []flowRec) []uint32 {
			var keys []uint32
			for i := 0; i < len(flows) && len(keys) < 30; i += 3 {
				keys = append(keys, flows[i].Dst)
			}
			return append(keys, math.MaxUint32)
		}),
	keySetOf("struct", func(f flowRec) portParity { return portParity{f.Port, f.Len%2 == 1} },
		func([]flowRec) []portParity {
			return []portParity{{0, false}, {0, true}, {1, true}, {3, false}, {16, true}, {99, false}}
		}),
	keySetOf("negative-int64", func(f flowRec) int64 { return negSrc(f.Src) },
		func([]flowRec) []int64 {
			return []int64{negSrc(0), negSrc(1), negSrc(2), negSrc(5), negSrc(8), negSrc(13), math.MinInt64}
		}),
}

// keyedFlows is randomFlows with Dst a permutation of 0..n-1.
func keyedFlows(rng *rand.Rand, n int) []flowRec {
	flows := randomFlows(rng, n)
	for i, d := range rng.Perm(n) {
		flows[i].Dst = uint32(d)
	}
	return flows
}

// orderedFold is sensitive to the order it sees a group's records in.
func orderedFold(acc float64, f flowRec) float64 { return acc*0.999 + float64(f.Len) }

// keyedRun is one engine-side dataset for one check: the handle an
// operator takes (the bare Queryable, or a fused Where over it), its
// root agent and its counted noise source.
type keyedRun struct {
	h    Streamer[flowRec]
	root *RootAgent
	src  *countingSource
}

// keyedCase is one cell of the matrix: the input, what an operator sees
// of it (in: fused behind a Where or not), a semi-join's other side, and
// how to make a fresh engine-side dataset over it.
type keyedCase struct {
	label            string
	flows, in, other []flowRec
	fused            bool
	fresh            func(budget float64) keyedRun
}

func TestKeyedOperatorsMatchReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	rng := rand.New(rand.NewSource(2017))
	for _, n := range keyedSizes {
		flows := keyedFlows(rng, n)
		other := keyedFlows(rng, n/2+1)
		for _, fused := range []bool{false, true} {
			in := flows // what the operator sees
			if fused {
				in, _, _ = refRun(flows, []refStage{refWhere(lenDiv3)})
			}
			for _, mode := range execModes {
				fresh := func(budget float64) keyedRun {
					src := &countingSource{src: noise.NewSeededSource(5, 8)}
					q, root := NewQueryable(flows, budget, src)
					q = q.WithRecorder(nil).WithExecOptions(mode.exec)
					if fused {
						return keyedRun{q.Stream().Where(lenDiv3), root, src}
					}
					return keyedRun{q, root, src}
				}
				label := fmt.Sprintf("n=%d fused=%v %s", n, fused, mode.name)
				for _, ks := range keySets {
					ks.check(t, keyedCase{label + " " + ks.name, flows, in, other, fused, fresh})
				}

				// Integer key lists, numbered without a hash when consecutive.
				if n <= chunkSize+1 {
					checkIntegerKeys(t, label+" int", fresh, in, math.MinInt, math.MaxInt)
					checkIntegerKeys(t, label+" int32", fresh, in, math.MinInt32, math.MaxInt32)
					checkIntegerKeys(t, label+" int64", fresh, in, math.MinInt64, math.MaxInt64)
				}
			}
		}
	}

	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		checkJoins(t, fmt.Sprintf("GOMAXPROCS=%d", gmp), rand.New(rand.NewSource(int64(gmp))))
	}
	checkMergedFolds(t, rand.New(rand.NewSource(2010)))
}

// checkKeyed holds every keyed operator over c.in, keyed by key, to the
// reference; listed is Partition's key list.
func checkKeyed[K comparable](t *testing.T, c keyedCase, key func(flowRec) K, listed []K) {
	t.Helper()
	label, in := c.label, c.in
	// Every check starts both sides over: a new engine dataset, a new
	// reference ledger, the same noise seed.
	var (
		r      keyedRun
		ref    *refRoot
		refSrc *countingSource
	)
	reset := func(budget float64) {
		r = c.fresh(budget)
		ref, refSrc = &refRoot{budget: budget}, &countingSource{src: noise.NewSeededSource(5, 8)}
	}
	var calls atomic.Int64
	counting := func(f flowRec) K { calls.Add(1); return key(f) }
	// called asserts the key function ran once per input record since
	// the last check.
	called := func(op string, records int) {
		t.Helper()
		if got := calls.Swap(0); got != int64(records) {
			t.Fatalf("%s: %s called the key function %d times over %d records", label, op, got, records)
		}
	}
	counted := func(op string, count func(float64) (float64, error), records int, payer refCharger, eps float64) {
		t.Helper()
		sameCount(t, label+": "+op, count, records, payer, eps, r, ref, refSrc)
	}

	// Distinct: first of each key, stability 1.
	reset(1)
	d := Distinct(r.h, counting)
	called("Distinct", len(in))
	wantD := refDistinct(in, key)
	if !sameRecords(d.records, wantD) {
		t.Fatalf("%s: Distinct kept %d records, reference %d (or another order)", label, len(d.records), len(wantD))
	}
	counted("Distinct count", d.NoisyCount, len(wantD), ref, 0.3)

	// GroupBy: first-appearance order, records in order, stability 2.
	reset(1)
	g := GroupBy(r.h, counting)
	called("GroupBy", len(in))
	wantG := refGroupBy(in, key)
	if len(g.records) != len(wantG) {
		t.Fatalf("%s: GroupBy made %d groups, reference %d", label, len(g.records), len(wantG))
	}
	for i, grp := range g.records {
		if grp.Key != wantG[i].key || !sameRecords(grp.Items, wantG[i].items) || cap(grp.Items) != len(grp.Items) {
			t.Fatalf("%s: GroupBy group %d differs from the reference's (key %v/%v, %d/%d records, cap %d)",
				label, i, grp.Key, wantG[i].key, len(grp.Items), len(wantG[i].items), cap(grp.Items))
		}
	}
	counted("GroupBy count", g.NoisyCount, len(wantG), refScaled{ref, 2}, 0.3)
	counted("GroupBy count past the budget", g.NoisyCount, len(wantG), refScaled{ref, 2}, 0.3)

	// GroupFold ≡ Select∘GroupBy, values bit for bit.
	reset(1)
	f := GroupFold(r.h, counting, orderedFold, nil)
	called("GroupFold", len(in))
	if len(f.records) != len(wantG) {
		t.Fatalf("%s: GroupFold made %d groups, reference %d", label, len(f.records), len(wantG))
	}
	for i, got := range f.records {
		want := 0.0
		for _, rec := range wantG[i].items {
			want = orderedFold(want, rec)
		}
		if got.Key != wantG[i].key || math.Float64bits(got.Value) != math.Float64bits(want) {
			t.Fatalf("%s: GroupFold group %d = %+v, reference {%v %v}", label, i, got, wantG[i].key, want)
		}
	}
	counted("GroupFold count", f.NoisyCount, len(wantG), refScaled{ref, 2}, 0.3)

	checkPartition(t, label, c.fresh, in, listed, key)

	// Nested Partition: every count of every inner part of every outer
	// part costs the source the maximum, once.
	wantP := refPartition(in, listed, key)
	reset(1)
	outer := Partition(r.h, listed, key)
	outerPayers := &refParts{parent: ref, spent: make([]float64, len(listed))}
	mod3 := func(f flowRec) int { return f.Len % 3 }
	for i, k := range listed[:min(len(listed), 4)] {
		inner := Partition(outer[k], []int{0, 1, 2}, mod3)
		wantInner := refPartition(wantP[k], []int{0, 1, 2}, mod3)
		innerPayers := &refParts{parent: refPart{outerPayers, i}, spent: make([]float64, 3)}
		for j := 0; j < 3; j++ {
			if got := inner[j].settled().records; !sameRecords(got, wantInner[j]) {
				t.Fatalf("%s: inner part %d of part %v holds %d records, reference %d", label, j, k, len(got), len(wantInner[j]))
			}
			counted("nested count", inner[j].NoisyCount, len(wantInner[j]), refPart{innerPayers, j}, 0.25)
		}
		counted("outer count after its inner ones", outer[k].NoisyCount, len(wantP[k]), refPart{outerPayers, i}, 0.1*float64(i+1))
	}

	// Intersect / Except: both inputs pay.
	for _, keep := range []bool{true, false} {
		reset(1)
		left, _ := r.h.(*Queryable[flowRec])
		if c.fused {
			left = r.h.Stream().Materialize()
		}
		oq, oroot := NewQueryable(c.other, 1, noise.NewSeededSource(1, 1))
		var otherCalls atomic.Int64
		keyOther := func(f flowRec) K { otherCalls.Add(1); return key(f) }
		op, semi := "Except", Except[flowRec, flowRec, K]
		if keep {
			op, semi = "Intersect", Intersect[flowRec, flowRec, K]
		}
		got := semi(left, oq.WithRecorder(nil), counting, keyOther)
		called(op, len(in))
		if otherCalls.Load() != int64(len(c.other)) {
			t.Fatalf("%s: %s called the other side's key function %d times over %d records", label, op, otherCalls.Load(), len(c.other))
		}
		want := refSemiJoin(in, c.other, key, key, keep)
		if !sameRecords(got.records, want) {
			t.Fatalf("%s: %s kept %d records, reference %d (or another order)", label, op, len(got.records), len(want))
		}
		counted(op+" count", got.NoisyCount, len(want), ref, 0.4)
		if oroot.Spent() != 0.4 {
			t.Fatalf("%s: %s charged the other input %v, want 0.4", label, op, oroot.Spent())
		}
	}
}

// tally is a fold with an exact merge: a count, a byte sum and the
// smallest Dst, the way a per-source total and an earliest time are.
type tally struct {
	n, bytes int
	least    uint32
}

func tallyFold(a tally, f flowRec) tally {
	if a.n == 0 || f.Dst < a.least {
		a.least = f.Dst
	}
	a.n++
	a.bytes += f.Len
	return a
}

func tallyMerge(a, b tally) tally {
	if a.n == 0 || (b.n > 0 && b.least < a.least) {
		a.least = b.least
	}
	a.n += b.n
	a.bytes += b.bytes
	return a
}

// foldSides are the handles checkMergedFolds folds: the records as a
// bare Queryable, behind a fused Where, or as a Log view straddling
// segments of 300 records behind a 100-record prefix. set configures
// the Queryable under the handle; in is what the operator sees of
// flows.
var foldSides = []struct {
	name   string
	handle func(flows []flowRec, set func(*Queryable[flowRec]) *Queryable[flowRec]) Streamer[flowRec]
	in     func(flows []flowRec) []flowRec
}{
	{"queryable", func(flows []flowRec, set func(*Queryable[flowRec]) *Queryable[flowRec]) Streamer[flowRec] {
		q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))
		return set(q)
	}, func(flows []flowRec) []flowRec { return flows }},
	{"stream", func(flows []flowRec, set func(*Queryable[flowRec]) *Queryable[flowRec]) Streamer[flowRec] {
		q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))
		return set(q).Stream().Where(lenDiv3)
	}, func(flows []flowRec) []flowRec {
		in, _, _ := refRun(flows, []refStage{refWhere(lenDiv3)})
		return in
	}},
	{"log", func(flows []flowRec, set func(*Queryable[flowRec]) *Queryable[flowRec]) Streamer[flowRec] {
		l := fillLog(300, append(make([]flowRec, 100), flows...), 64)
		return set(NewQueryableForView(l.View().Slice(100, 100+len(flows)), NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2)))
	}, func(flows []flowRec) []flowRec { return flows }},
}

// checkMergedFolds holds GroupFold with an exact merge to the reference
// and to the nil merge's one ordered range — keys, order and values,
// one key call per record — at widths 1, 2 and 4 on every input, over
// each of foldSides, on integer and struct keys.
func checkMergedFolds(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for _, n := range []int{0, 1, chunkSize + 1, 3*chunkSize + 5, DefaultParallelThreshold + 1} {
		flows := keyedFlows(rng, n)
		for _, side := range foldSides {
			in := side.in(flows)
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("merged fold n=%d %s workers=%d", n, side.name, workers)
				handle := func(rec *captureRecorder) Streamer[flowRec] {
					return side.handle(flows, func(q *Queryable[flowRec]) *Queryable[flowRec] {
						return q.WithRecorder(rec).WithExecOptions(ExecOptions{Workers: workers, Threshold: 1})
					})
				}
				checkMergedFold(t, label+" port", handle, in, workers, func(f flowRec) uint16 { return f.Port })
				checkMergedFold(t, label+" src", handle, in, workers, func(f flowRec) uint32 { return f.Src })
				checkMergedFold(t, label+" struct", handle, in, workers, func(f flowRec) portParity { return portParity{f.Port, f.Len%2 == 1} })
			}
		}
	}
}

func checkMergedFold[K comparable](t *testing.T, label string, handle func(*captureRecorder) Streamer[flowRec], in []flowRec, workers int, key func(flowRec) K) {
	t.Helper()
	var calls atomic.Int64
	counting := func(f flowRec) K { calls.Add(1); return key(f) }
	var want []Folded[K, tally]
	for _, g := range refGroupBy(in, key) {
		var acc tally
		for _, r := range g.items {
			acc = tallyFold(acc, r)
		}
		want = append(want, Folded[K, tally]{g.key, acc})
	}
	for _, merge := range []func(a, b tally) tally{tallyMerge, nil} {
		rec := &captureRecorder{}
		got := GroupFold(handle(rec), counting, tallyFold, merge).records
		if c := calls.Swap(0); c != int64(len(in)) {
			t.Fatalf("%s (merge %v): the key function ran %d times over %d records", label, merge != nil, c, len(in))
		}
		if !sameOutputs(got, want) {
			t.Fatalf("%s (merge %v): %d groups, reference %d (or other keys, values or order)", label, merge != nil, len(got), len(want))
		}
		// The merge splits the pass one range per worker; nil keeps one.
		wantWorkers := 0
		if merge != nil {
			wantWorkers = workersTag(min(workers, len(in)))
		}
		row := rec.ops[len(rec.ops)-1]
		if row.op != "groupby" || row.in != len(in) || row.out != len(want) || row.workers != wantWorkers {
			t.Fatalf("%s (merge %v): row %+v, want groupby %d → %d on %d workers", label, merge != nil, row, len(in), len(want), wantWorkers)
		}
	}
}

// joinSide is one way a join's input reaches it, holding recs: an
// eager slice, a Partition part, or a Log view.
type joinSide struct {
	name string
	make func(recs []flowRec, src noise.Source) (*Queryable[flowRec], *RootAgent)
}

// decoyPort marks the records a part's Partition leaves out.
const decoyPort = 1000

var joinSides = []joinSide{
	{"slice", func(recs []flowRec, src noise.Source) (*Queryable[flowRec], *RootAgent) {
		return NewQueryable(recs, math.Inf(1), src)
	}},
	{"part", func(recs []flowRec, src noise.Source) (*Queryable[flowRec], *RootAgent) {
		var mixed []flowRec
		for i, r := range recs {
			if i%3 == 0 {
				mixed = append(mixed, flowRec{Port: decoyPort})
			}
			mixed = append(mixed, r)
		}
		q, root := NewQueryable(mixed, math.Inf(1), src)
		return Partition(q, []bool{true}, func(f flowRec) bool { return f.Port != decoyPort })[true], root
	}},
	{"log", func(recs []flowRec, src noise.Source) (*Queryable[flowRec], *RootAgent) {
		// Segments of 300 records behind a 100-record prefix: the view
		// straddles a boundary once it holds more than 200 records.
		l := fillLog(300, append(make([]flowRec, 100), recs...), 64)
		root := NewRootAgent(math.Inf(1))
		return NewQueryableForView(l.View().Slice(100, 100+len(recs)), root, src), root
	}},
}

// flowPair is a 16-byte struct key shaped like the RTT join's
// handshakeKey (two addresses, two ports, a sequence number).
type flowPair struct {
	a, b   uint32
	pa, pb uint16
	val    uint32
}

func pairKey(f flowRec) flowPair {
	return flowPair{a: f.Src, b: f.Src >> 2, pa: f.Port % 2, val: f.Src * 3}
}

// checkJoins holds Join and GroupJoin to refJoin and refGroupJoin with
// each input an eager slice, a Partition part or a Log view, at widths
// 1, 2 and 4 on every input size, on integer and struct keys.
func checkJoins(t *testing.T, label string, rng *rand.Rand) {
	t.Helper()
	n := 3*chunkSize + 5
	disjoint := randomFlows(rng, 2*chunkSize)
	for i := range disjoint {
		disjoint[i].Src += 1 << 24 // randomFlows keeps Src below n/7
	}
	cases := []struct {
		name string
		a, b []flowRec
	}{
		{"a empty", nil, randomFlows(rng, 300)},
		{"b empty", randomFlows(rng, 300), nil},
		{"no common key", randomFlows(rng, n), disjoint},
		{"skewed", randomFlows(rng, n), randomFlows(rng, 2*chunkSize+1)},
	}
	for _, c := range cases {
		for _, sa := range joinSides {
			for _, sb := range joinSides {
				for _, workers := range []int{1, 2, 4} {
					l := fmt.Sprintf("%s %s: a %s, b %s, workers=%d", label, c.name, sa.name, sb.name, workers)
					checkJoin(t, l+" uint32", c.a, c.b, sa, sb, workers, func(f flowRec) uint32 { return f.Src })
					checkJoin(t, l+" struct", c.a, c.b, sa, sb, workers, pairKey)
				}
			}
		}
	}
}

// checkJoin runs Join and GroupJoin of a and b, made by sa and sb, on
// the given width and compares the records, their order, and what a
// count of the result charges each input and draws.
func checkJoin[K comparable](t *testing.T, label string, a, b []flowRec, sa, sb joinSide, workers int, key func(flowRec) K) {
	t.Helper()
	type zipped struct{ A, B flowRec }
	type paired struct {
		Key  K
		A, B []flowRec
	}
	zip := func(x, y flowRec) zipped { return zipped{x, y} }
	pair := func(k K, x, y []flowRec) paired { return paired{k, x, y} }
	exec := ExecOptions{Workers: workers, Threshold: 1}
	for _, grouped := range []bool{false, true} {
		src := &countingSource{src: noise.NewSeededSource(5, 8)}
		qa, rootA := sa.make(a, src)
		qb, rootB := sb.make(b, noise.NewSeededSource(1, 1))
		qa, qb = qa.WithRecorder(nil).WithExecOptions(exec), qb.WithRecorder(nil).WithExecOptions(exec)
		op, n, scale, count := "Join", 0, 1.0, func(float64) (float64, error) { return 0, nil }
		if grouped {
			got, want := GroupJoin(qa, qb, key, key, pair), refGroupJoin(a, b, key, key, pair)
			if !sameOutputs(got.records, want) {
				t.Fatalf("%s: GroupJoin made %d records, reference %d (or others, or another order)", label, len(got.records), len(want))
			}
			op, n, scale, count = "GroupJoin", len(want), 2, got.NoisyCount
		} else {
			got, want := Join(qa, qb, key, key, zip), refJoin(a, b, key, key, zip)
			if !sameOutputs(got.records, want) {
				t.Fatalf("%s: Join made %d records, reference %d (or others, or another order)", label, len(got.records), len(want))
			}
			n, count = len(want), got.NoisyCount
		}
		refSrc := &countingSource{src: noise.NewSeededSource(5, 8)}
		want, _ := refCount(n, &refRoot{budget: math.Inf(1)}, refSrc, 0.25)
		if got, err := count(0.25); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s count = (%v, %v), reference %v", label, op, got, err, want)
		}
		if rootA.Spent() != scale*0.25 || rootB.Spent() != scale*0.25 || src.draws != refSrc.draws {
			t.Fatalf("%s: %s count charged a %v and b %v with %d draws, want %v each and %d draws",
				label, op, rootA.Spent(), rootB.Spent(), src.draws, scale*0.25, refSrc.draws)
		}
	}
}

// sameOutputs compares a join's records with the reference's, an empty
// output equal to a nil one.
func sameOutputs[R any](got, want []R) bool {
	return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
}

// sameCount runs a count on both sides and compares answer, refusal,
// cumulative ε and draws.
func sameCount(t *testing.T, label string, count func(float64) (float64, error), records int, payer refCharger, eps float64, r keyedRun, ref *refRoot, refSrc *countingSource) {
	t.Helper()
	want, ok := refCount(records, payer, refSrc, eps)
	got, err := count(eps)
	if !ok {
		if !errors.Is(err, ErrBudgetExceeded) || got != 0 {
			t.Fatalf("%s: (%v, %v), the reference refuses", label, got, err)
		}
	} else if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = (%v, %v), reference %v", label, got, err, want)
	}
	if r.root.Spent() != ref.spent {
		t.Fatalf("%s: spent %v, reference %v", label, r.root.Spent(), ref.spent)
	}
	if r.src.draws != refSrc.draws {
		t.Fatalf("%s: %d noise draws, reference %d", label, r.src.draws, refSrc.draws)
	}
}

// checkPartition holds Partition(h, listed, key) to refPartition over in,
// the records h yields: charged by max, and the second round runs on a
// budget the third part's count (or the last's, with fewer parts)
// exhausts exactly. Every part's count, draws, cumulative ε and refusal,
// then every part's records, with one key call per record in the pass
// and none in a gather.
func checkPartition[K comparable](t *testing.T, label string, fresh func(budget float64) keyedRun, in []flowRec, listed []K, key func(flowRec) K) {
	t.Helper()
	var calls atomic.Int64
	counting := func(f flowRec) K { calls.Add(1); return key(f) }
	called := func(op string, records int) {
		t.Helper()
		if got := calls.Swap(0); got != int64(records) {
			t.Fatalf("%s: %s called the key function %d times over %d records", label, op, got, records)
		}
	}
	wantP := refPartition(in, listed, key)
	epsOf := func(i int) float64 { return 0.1 + 0.05*float64(i%4) }
	tight := 0.0 // set by the first, unlimited round
	for round := 0; round < 2; round++ {
		budget := math.Inf(1)
		if round == 1 {
			budget = tight
		}
		r := fresh(budget)
		ref, refSrc := &refRoot{budget: budget}, &countingSource{src: noise.NewSeededSource(5, 8)}
		parts := Partition(r.h, listed, counting)
		called("Partition", len(in))
		if len(parts) != len(listed) {
			t.Fatalf("%s: Partition returned %d parts for %d keys", label, len(parts), len(listed))
		}
		payers := &refParts{parent: ref, spent: make([]float64, len(listed))}
		for i, k := range listed {
			sameCount(t, fmt.Sprintf("%s: count of part %d", label, i), parts[k].NoisyCount, len(wantP[k]), refPart{payers, i}, epsOf(i), r, ref, refSrc)
			if i == min(2, len(listed)-1) && math.IsInf(budget, 1) {
				tight = ref.spent
			}
		}
		if !math.IsInf(budget, 1) && ref.spent != tight {
			t.Fatalf("%s: scenario broken: tight budget %v, reference spent %v", label, tight, ref.spent)
		}
		// Scanned after its count, a part holds the records the eager
		// spelling would; the gather re-runs no key function.
		for _, k := range listed {
			if got := parts[k].settled().records; !sameRecords(got, wantP[k]) {
				t.Fatalf("%s: part %v holds %d records, reference %d (or another order)", label, k, len(got), len(wantP[k]))
			}
		}
		called("scanning the parts", 0)
	}
}

// checkIntegerKeys runs checkPartition over key lists of an integer type:
// consecutive ascending ones, which Partition numbers as key − lo, and
// ones that are not, which go through the key index. Record keys are every
// listed key, the keys just outside each list (−1, n, lo − 1) and both
// ends of the type, so a bound off by one, a signed compare or a wrapped
// difference would put a record in a part the reference leaves it out of.
func checkIntegerKeys[N int | int32 | int64](t *testing.T, label string, fresh func(budget float64) keyedRun, in []flowRec, minN, maxN N) {
	t.Helper()
	values := []N{-4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, minN, maxN}
	key := func(f flowRec) N { return values[f.Dst%uint32(len(values))] }
	for _, c := range []struct {
		name   string
		listed []N
		dense  bool
	}{
		{"0..n-1", []N{0, 1, 2, 3, 4, 5, 6, 7}, true},
		{"lo..lo+n-1", []N{-3, -2, -1, 0, 1, 2, 3, 4}, true},
		{"{0}", []N{0}, true},
		{"{0,2,3}", []N{0, 2, 3}, false},
		{"{1,0}", []N{1, 0}, false},
	} {
		if dense := consecutive(c.listed) != nil; dense != c.dense {
			t.Fatalf("%s %s: numbered densely %v, want %v", label, c.name, dense, c.dense)
		}
		checkPartition(t, label+" "+c.name, fresh, in, c.listed, key)
	}
}

// TestPartitionCountedNeverGathers: counting every part — a CDF — makes
// the index pass and nothing else: no arena, on either handle.
func TestPartitionCountedNeverGathers(t *testing.T) {
	flows := keyedFlows(rand.New(rand.NewSource(3)), 5*chunkSize)
	q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))
	for name, h := range map[string]Streamer[flowRec]{"queryable": q, "stream": q.Stream().Where(lenDiv3)} {
		parts := Partition(h, []uint16{0, 1, 2, 3}, func(f flowRec) uint16 { return f.Port })
		of := func(q *Queryable[flowRec]) *partition[flowRec] { return q.lazy.source.(*part[flowRec]).of }
		for k, p := range parts {
			if _, err := p.NoisyCount(0.1); err != nil {
				t.Fatal(err)
			}
			if p.lazy == nil || of(p).arena != nil {
				t.Fatalf("%s: counting part %d gathered the partition's records", name, k)
			}
		}
		// The first scan of any part gathers them all, once.
		if _, err := NoisySum(parts[2], 0.1, unitLen); err != nil {
			t.Fatal(err)
		}
		arena := of(parts[2]).arena
		if arena == nil || of(parts[0]).ids != nil {
			t.Fatalf("%s: scanning a part did not gather (arena %v) or kept the index", name, arena != nil)
		}
		if got := parts[0].settled().records; len(got) == 0 || &got[0] != &arena[0] {
			t.Fatalf("%s: a sibling part was gathered again", name)
		}
	}
}

// TestPartitionSiblingsGatherOnce: sibling parts scanned concurrently
// share one gather — the fused stage ran once for the index pass and
// once for the gather, not once per part — and every scan sees its own
// part. Under -race in the tier-1 gate.
func TestPartitionSiblingsGatherOnce(t *testing.T) {
	n := 3 * DefaultParallelThreshold
	flows := keyedFlows(rand.New(rand.NewSource(4)), n)
	for _, workers := range []int{1, 4} {
		q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))
		var staged atomic.Int64
		st := q.WithExecOptions(ExecOptions{Workers: workers}).Stream().Where(func(f flowRec) bool { staged.Add(1); return f.Len%3 != 0 })
		keys := []uint16{0, 1, 2, 3, 4, 5, 6, 7}
		parts := Partition(st, keys, func(f flowRec) uint16 { return f.Port })
		want := refPartition(flows, keys, func(f flowRec) uint16 {
			if f.Len%3 == 0 {
				return 99
			}
			return f.Port
		})
		got := make([][]flowRec, len(keys))
		runWorkers(len(keys), func(i int) {
			got[i] = parts[keys[i]].Where(anyLen).records
		})
		for i, k := range keys {
			if !sameRecords(got[i], want[k]) {
				t.Fatalf("workers=%d: part %d scanned concurrently holds %d records, reference %d", workers, k, len(got[i]), len(want[k]))
			}
		}
		if staged.Load() != int64(2*n) {
			t.Fatalf("workers=%d: the input's stage ran over %d records, want %d (index pass + one gather)", workers, staged.Load(), 2*n)
		}
	}
}

// TestDeferredPartIsForced: every way out of a part that is not a scan
// — Concat, Join, GroupJoin, a new context — finds its records.
func TestDeferredPartIsForced(t *testing.T) {
	flows := keyedFlows(rand.New(rand.NewSource(5)), 4*chunkSize)
	port := func(f flowRec) uint16 { return f.Port }
	keys := []uint16{1, 2, 3}
	want := refPartition(flows, keys, port)
	// eager is the part spelled without Partition.
	eager := func(k uint16) *Queryable[flowRec] {
		q, _ := NewQueryable(want[k], math.Inf(1), noise.NewSeededSource(1, 2))
		return q
	}
	fresh := func() map[uint16]*Queryable[flowRec] {
		q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))
		return Partition(q, keys, port)
	}
	src := func(f flowRec) uint32 { return f.Src }
	sum := func(a, b flowRec) int { return a.Len + b.Len }
	sizes := func(k uint32, a, b []flowRec) [2]int { return [2]int{len(a), len(b)} }

	parts := fresh()
	if got := parts[1].Concat(parts[2]).records; !sameRecords(got, append(append([]flowRec{}, want[1]...), want[2]...)) {
		t.Fatalf("Concat of two parts holds %d records, want %d+%d in order", len(got), len(want[1]), len(want[2]))
	}
	parts = fresh()
	if got, want := Join(parts[1], parts[3], src, src, sum).records, Join(eager(1), eager(3), src, src, sum).records; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Join of two parts: %d records, eager spelling %d", len(got), len(want))
	}
	parts = fresh()
	if got, want := GroupJoin(parts[2], parts[3], src, src, sizes).records, GroupJoin(eager(2), eager(3), src, src, sizes).records; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GroupJoin of two parts: %d records, eager spelling %d", len(got), len(want))
	}

	// A part under a context that is cancelled refuses at zero ε and
	// gathers nothing; the same part under a live one then scans.
	q, root := NewQueryable(flows, 1, noise.NewSeededSource(1, 2))
	parts = Partition(q, keys, port)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NoisySum(parts[1].WithContext(ctx), 0.5, unitLen); !errors.Is(err, ErrCanceled) || root.Spent() != 0 {
		t.Fatalf("part under a cancelled context: err %v, spent %v; want ErrCanceled at zero ε", err, root.Spent())
	}
	if got := parts[1].WithContext(context.Background()).Where(anyLen).records; !sameRecords(got, want[1]) {
		t.Fatalf("part under a new context holds %d records, want %d", len(got), len(want[1]))
	}
}

// FuzzJoin holds Join and GroupJoin to refJoin and refGroupJoin on
// arbitrary inputs: keys over a key space of any size (one key, a few
// large groups, all distinct), both sides Log views of any segment
// capacity or b an eager slice, widths 1 to 4, integer and struct keys.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1}, uint16(3*chunkSize+7), uint16(700), uint16(3), uint16(7), uint8(2))
	f.Add([]byte{}, uint16(0), uint16(5), uint16(0), uint16(1), uint8(0))
	f.Add([]byte{9}, uint16(chunkSize+1), uint16(chunkSize+1), uint16(0), uint16(chunkSize), uint8(7))
	f.Add([]byte{}, uint16(2000), uint16(1999), uint16(math.MaxUint16), uint16(513), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, na, nb, keys, seg uint16, workers uint8) {
		flows := func(n, salt int) []flowRec {
			out := make([]flowRec, n)
			for i := range out {
				v := i*31 + salt
				if len(data) > 0 {
					v += int(data[i%len(data)]) << 16
				}
				out[i] = flowRec{Src: uint32(v % (1 + int(keys))), Port: uint16(i % 3), Len: i}
			}
			return out
		}
		a, b := flows(int(na)%(4*chunkSize), 0), flows(int(nb)%(4*chunkSize), 1)
		capacity, skip := 1+int(seg)%(2*chunkSize), int(seg)%7
		view := func(recs []flowRec) *Queryable[flowRec] {
			l := fillLog(capacity, append(make([]flowRec, skip), recs...), 1+int(seg)%97)
			return NewQueryableForView(l.View().Slice(skip, skip+len(recs)), NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2))
		}
		exec := ExecOptions{Workers: 1 + int(workers)%4, Threshold: 1}
		qa, qb := view(a), view(b)
		if workers&4 != 0 {
			qb = NewQueryableFor(b, NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2))
		}
		qa, qb = qa.WithExecOptions(exec), qb.WithExecOptions(exec)
		fuzzJoin(t, qa, qb, a, b, func(f flowRec) uint32 { return f.Src })
		fuzzJoin(t, qa, qb, a, b, pairKey)
	})
}

// FuzzGroupFold holds GroupFold's split to its one ordered range: for
// any records, key space, Log segment capacity and width, folding with
// an exact merge releases the keys, order and values that the nil merge
// does, on integer and struct keys.
func FuzzGroupFold(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1}, uint16(3*chunkSize+7), uint16(3), uint16(7), uint8(1))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(1), uint8(0))
	f.Add([]byte{9, 200}, uint16(chunkSize+1), uint16(math.MaxUint16), uint16(chunkSize), uint8(3))
	f.Add([]byte{255}, uint16(2000), uint16(1), uint16(513), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n, keys, seg uint16, workers uint8) {
		recs := make([]flowRec, int(n)%(4*chunkSize))
		for i := range recs {
			v := i * 31
			if len(data) > 0 {
				v += int(data[i%len(data)]) << 16
			}
			recs[i] = flowRec{Src: uint32(v % (1 + int(keys))), Dst: uint32(v ^ i<<3), Port: uint16(i % 3), Len: v % 1500}
		}
		capacity, skip := 1+int(seg)%(2*chunkSize), int(seg)%7
		l := fillLog(capacity, append(make([]flowRec, skip), recs...), 1+int(seg)%97)
		q := NewQueryableForView(l.View().Slice(skip, skip+len(recs)), NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2)).
			WithExecOptions(ExecOptions{Workers: 1 + int(workers)%4, Threshold: 1})
		fuzzFold(t, q, func(f flowRec) uint32 { return f.Src })
		fuzzFold(t, q, pairKey)
	})
}

func fuzzFold[K comparable](t *testing.T, q *Queryable[flowRec], key func(flowRec) K) {
	t.Helper()
	split, one := GroupFold(q, key, tallyFold, tallyMerge).records, GroupFold(q, key, tallyFold, nil).records
	if !sameOutputs(split, one) {
		t.Fatalf("GroupFold over %d records: the split made %d groups, one range %d (or other keys, values or order)", q.Stream().n, len(split), len(one))
	}
}

func fuzzJoin[K comparable](t *testing.T, qa, qb *Queryable[flowRec], a, b []flowRec, key func(flowRec) K) {
	t.Helper()
	zip := func(x, y flowRec) [2]int { return [2]int{x.Len, y.Len} }
	pair := func(k K, x, y []flowRec) string { return fmt.Sprint(k, x, y) }
	if got, want := Join(qa, qb, key, key, zip).records, refJoin(a, b, key, key, zip); !sameOutputs(got, want) {
		t.Fatalf("Join of %d and %d records: %d outputs, reference %d (or others, or another order)", len(a), len(b), len(got), len(want))
	}
	if got, want := GroupJoin(qa, qb, key, key, pair).records, refGroupJoin(a, b, key, key, pair); !sameOutputs(got, want) {
		t.Fatalf("GroupJoin of %d and %d records: %d outputs, reference %d (or others, or another order)", len(a), len(b), len(got), len(want))
	}
}
