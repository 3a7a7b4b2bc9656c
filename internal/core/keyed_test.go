package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dptrace/internal/noise"
)

// The keyed operators — Distinct, GroupBy, GroupFold, Partition,
// Intersect, Except — against an independent reference, the way
// exec_test.go holds the record-wise executor to one. Each operator has
// one body (keyed.go), so one worker count against another compares
// that body with itself. The reference below is written from the
// paper's Table 1 with maps and slices, one record at a time, and
// shares nothing with the engine but the noise package: it says which
// records come out in which order, and what every count charges —
// stability 2 behind a grouping, the maximum over a Partition's parts,
// both inputs of a semi-join.

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
	f := GroupFold(r.h, counting, orderedFold)
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
		st := q.WithParallelism(workers).Stream().Where(func(f flowRec) bool { staged.Add(1); return f.Len%3 != 0 })
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
