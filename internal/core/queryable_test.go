package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dptrace/internal/noise"
)

func newTestQueryable[T any](records []T, budget float64) (*Queryable[T], *RootAgent) {
	return NewQueryable(records, budget, noise.NewSeededSource(42, 43))
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestWhereFilters(t *testing.T) {
	q, _ := newTestQueryable(ints(100), math.Inf(1))
	even := q.Where(func(x int) bool { return x%2 == 0 })
	if len(even.records) != 50 {
		t.Fatalf("got %d records, want 50", len(even.records))
	}
	for _, x := range even.records {
		if x%2 != 0 {
			t.Fatalf("odd record %d survived filter", x)
		}
	}
}

func TestWhereSharesAgent(t *testing.T) {
	q, root := newTestQueryable(ints(10), 1.0)
	filtered := q.Where(func(int) bool { return true })
	if _, err := filtered.NoisyCount(0.6); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("root spent %v, want 0.6 (Where adds no sensitivity)", got)
	}
}

func TestSelectMapsAndPreservesSensitivity(t *testing.T) {
	q, root := newTestQueryable(ints(10), 1.0)
	doubled := Select(q, func(x int) int { return 2 * x })
	if doubled.records[3] != 6 {
		t.Fatalf("Select result wrong: %v", doubled.records)
	}
	if _, err := doubled.NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("root spent %v, want 0.5", got)
	}
}

func TestSelectManyFanoutScaling(t *testing.T) {
	q, root := newTestQueryable(ints(5), math.Inf(1))
	tripled := SelectMany(q, 3, func(x int) []int { return []int{x, x, x} })
	if len(tripled.records) != 15 {
		t.Fatalf("got %d records, want 15", len(tripled.records))
	}
	if _, err := tripled.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("root spent %v, want 3.0 (fanout x3)", got)
	}
}

func TestSelectManyTruncatesOverFanout(t *testing.T) {
	q, _ := newTestQueryable(ints(1), math.Inf(1))
	out := SelectMany(q, 2, func(int) []int { return []int{1, 2, 3, 4} })
	if len(out.records) != 2 {
		t.Fatalf("fanout bound not enforced: %d records", len(out.records))
	}
}

func TestSelectManyInvalidFanoutPanics(t *testing.T) {
	q, _ := newTestQueryable(ints(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("fanout 0 did not panic")
		}
	}()
	SelectMany(q, 0, func(x int) []int { return nil })
}

func TestDistinctKeepsFirstOccurrence(t *testing.T) {
	q, root := newTestQueryable([]int{3, 1, 3, 2, 1, 3}, 1.0)
	d := Distinct(q, func(x int) int { return x })
	want := []int{3, 1, 2}
	if len(d.records) != len(want) {
		t.Fatalf("got %v, want %v", d.records, want)
	}
	for i := range want {
		if d.records[i] != want[i] {
			t.Fatalf("got %v, want %v", d.records, want)
		}
	}
	if _, err := d.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); got != 1.0 {
		t.Fatalf("Distinct amplified sensitivity: spent %v", got)
	}
}

func TestGroupByGroupsAndDoubles(t *testing.T) {
	q, root := newTestQueryable(ints(10), math.Inf(1))
	grouped := GroupBy(q, func(x int) int { return x % 3 })
	if len(grouped.records) != 3 {
		t.Fatalf("got %d groups, want 3", len(grouped.records))
	}
	// First-appearance order: keys 0, 1, 2.
	for i, g := range grouped.records {
		if g.Key != i {
			t.Fatalf("group %d has key %v, want %d", i, g.Key, i)
		}
		for _, x := range g.Items {
			if x%3 != g.Key {
				t.Fatalf("record %d in group %d", x, g.Key)
			}
		}
	}
	if _, err := grouped.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); got != 2.0 {
		t.Fatalf("root spent %v, want 2.0 (GroupBy doubles)", got)
	}
}

func TestGroupByTwiceQuadruples(t *testing.T) {
	q, root := newTestQueryable(ints(20), math.Inf(1))
	g1 := GroupBy(q, func(x int) int { return x % 4 })
	g2 := GroupBy(g1, func(g Group[int, int]) int { return g.Key % 2 })
	if _, err := g2.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); got != 4.0 {
		t.Fatalf("root spent %v, want 4.0 (two GroupBys)", got)
	}
}

func TestJoinZipsMatchedGroups(t *testing.T) {
	syns, _ := newTestQueryable([]string{"a1", "b1", "c1"}, math.Inf(1))
	acks, _ := newTestQueryable([]string{"a2", "c2", "d2"}, math.Inf(1))
	joined := Join(syns, acks,
		func(s string) byte { return s[0] },
		func(s string) byte { return s[0] },
		func(s, a string) string { return s + a })
	want := map[string]bool{"a1a2": true, "c1c2": true}
	if len(joined.records) != 2 {
		t.Fatalf("got %v, want 2 joined records", joined.records)
	}
	for _, r := range joined.records {
		if !want[r] {
			t.Fatalf("unexpected join output %q", r)
		}
	}
}

func TestJoinBoundedPerKey(t *testing.T) {
	// A classic equijoin would produce 3x3=9 pairs for the shared key;
	// the bounded join zips to min(3,3)=3.
	left, _ := newTestQueryable([]int{1, 1, 1}, math.Inf(1))
	right, _ := newTestQueryable([]int{1, 1, 1}, math.Inf(1))
	joined := Join(left, right,
		func(x int) int { return x },
		func(x int) int { return x },
		func(a, b int) int { return a + b })
	if len(joined.records) != 3 {
		t.Fatalf("bounded join emitted %d records, want 3", len(joined.records))
	}
}

func TestJoinChargesBothInputs(t *testing.T) {
	left, rootL := newTestQueryable(ints(5), 10)
	right, rootR := newTestQueryable(ints(5), 10)
	joined := Join(left, right,
		func(x int) int { return x }, func(x int) int { return x },
		func(a, b int) int { return a })
	if _, err := joined.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if rootL.Spent() != 1.0 || rootR.Spent() != 1.0 {
		t.Fatalf("spent %v/%v, want 1.0 each (Table 1: no increase)", rootL.Spent(), rootR.Spent())
	}
}

func TestSelfJoinChargesTwice(t *testing.T) {
	q, root := newTestQueryable(ints(5), 10)
	joined := Join(q, q,
		func(x int) int { return x }, func(x int) int { return x },
		func(a, b int) int { return a })
	if _, err := joined.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); got != 2.0 {
		t.Fatalf("self-join spent %v, want 2.0", got)
	}
}

func TestGroupJoinPairsGroups(t *testing.T) {
	left, rootL := newTestQueryable([]int{1, 1, 2}, math.Inf(1))
	right, _ := newTestQueryable([]int{1, 2, 2, 3}, math.Inf(1))
	gj := GroupJoin(left, right,
		func(x int) int { return x }, func(x int) int { return x },
		func(k int, ls, rs []int) [2]int { return [2]int{len(ls), len(rs)} })
	if len(gj.records) != 2 {
		t.Fatalf("got %d keys, want 2", len(gj.records))
	}
	if gj.records[0] != [2]int{2, 1} || gj.records[1] != [2]int{1, 2} {
		t.Fatalf("group sizes wrong: %v", gj.records)
	}
	if _, err := gj.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if got := rootL.Spent(); got != 2.0 {
		t.Fatalf("GroupJoin left spent %v, want 2.0", got)
	}
}

func TestIntersectFiltersByOtherKeys(t *testing.T) {
	q, rootQ := newTestQueryable([]int{1, 2, 3, 4, 5}, 10)
	other, rootO := newTestQueryable([]int{20, 40}, 10)
	inter := Intersect(q, other,
		func(x int) int { return x }, func(x int) int { return x / 10 })
	if len(inter.records) != 2 {
		t.Fatalf("got %v, want [2 4]", inter.records)
	}
	if _, err := inter.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if rootQ.Spent() != 1.0 || rootO.Spent() != 1.0 {
		t.Fatalf("spent %v/%v, want 1.0 each", rootQ.Spent(), rootO.Spent())
	}
}

func TestExceptFiltersByOtherKeys(t *testing.T) {
	q, rootQ := newTestQueryable([]int{1, 2, 3, 4, 5}, 10)
	other, rootO := newTestQueryable([]int{20, 40}, 10)
	diff := Except(q, other,
		func(x int) int { return x }, func(x int) int { return x / 10 })
	if len(diff.records) != 3 {
		t.Fatalf("got %v, want [1 3 5]", diff.records)
	}
	for _, x := range diff.records {
		if x == 2 || x == 4 {
			t.Fatalf("excluded record %d survived", x)
		}
	}
	if _, err := diff.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if rootQ.Spent() != 1.0 || rootO.Spent() != 1.0 {
		t.Fatalf("spent %v/%v, want 1.0 each", rootQ.Spent(), rootO.Spent())
	}
}

func TestConcatCombinesAndChargesBoth(t *testing.T) {
	a, rootA := newTestQueryable(ints(3), 10)
	b, rootB := newTestQueryable(ints(4), 10)
	c := a.Concat(b)
	if len(c.records) != 7 {
		t.Fatalf("got %d records, want 7", len(c.records))
	}
	if _, err := c.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
	if rootA.Spent() != 1.0 || rootB.Spent() != 1.0 {
		t.Fatalf("spent %v/%v, want 1.0 each", rootA.Spent(), rootB.Spent())
	}
}

func TestPartitionDisjointCover(t *testing.T) {
	q, _ := newTestQueryable(ints(100), math.Inf(1))
	keys := []int{0, 1, 2}
	parts := Partition(q, keys, func(x int) int { return x % 3 })
	total := 0
	for k, p := range parts {
		for _, x := range p.settled().records {
			if x%3 != k {
				t.Fatalf("record %d in part %d", x, k)
			}
		}
		total += len(p.settled().records)
	}
	if total != 100 {
		t.Fatalf("parts cover %d records, want 100", total)
	}
}

func TestPartitionDropsUnlistedKeys(t *testing.T) {
	q, _ := newTestQueryable(ints(10), math.Inf(1))
	parts := Partition(q, []int{0}, func(x int) int { return x % 3 })
	if len(parts) != 1 || len(parts[0].settled().records) != 4 {
		t.Fatalf("unexpected parts: %d keys, %d records", len(parts), len(parts[0].settled().records))
	}
}

func TestPartitionMissingKeyYieldsEmptyPart(t *testing.T) {
	q, _ := newTestQueryable(ints(10), math.Inf(1))
	parts := Partition(q, []int{99}, func(x int) int { return x })
	p, ok := parts[99]
	if !ok || len(p.settled().records) != 0 {
		t.Fatalf("missing key should map to empty part, got %v", parts)
	}
	if _, err := p.NoisyCount(1.0); err != nil {
		t.Fatalf("aggregating an empty part must still work: %v", err)
	}
}

func TestPartitionBudgetIsMax(t *testing.T) {
	q, root := newTestQueryable(ints(100), math.Inf(1))
	keys := []int{0, 1, 2, 3}
	parts := Partition(q, keys, func(x int) int { return x % 4 })
	for _, k := range keys {
		if _, err := parts[k].NoisyCount(0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := root.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("root spent %v, want 0.5 (max across parts)", got)
	}
	// A second round on just one part raises the max.
	if _, err := parts[2].NoisyCount(0.25); err != nil {
		t.Fatal(err)
	}
	if got := root.Spent(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("root spent %v, want 0.75", got)
	}
}

func TestPartitionDuplicateKeysPanics(t *testing.T) {
	q, _ := newTestQueryable(ints(10), 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate partition keys did not panic")
		}
	}()
	Partition(q, []int{1, 1}, func(x int) int { return x })
}

func TestNestedPartitionBudget(t *testing.T) {
	// Partition by link, then each part by time: cost = max over
	// links of (max over times) — the Fig 4 pattern.
	q, root := newTestQueryable(ints(1000), math.Inf(1))
	links := []int{0, 1, 2, 3, 4}
	byLink := Partition(q, links, func(x int) int { return x % 5 })
	times := []int{0, 1, 2, 3}
	for _, l := range links {
		byTime := Partition(byLink[l], times, func(x int) int { return (x / 5) % 4 })
		for _, tm := range times {
			if _, err := byTime[tm].NoisyCount(0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := root.Spent(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("nested partition spent %v, want 0.1", got)
	}
}

func TestBudgetRefusalSurfacesFromAggregation(t *testing.T) {
	q, _ := newTestQueryable(ints(10), 0.5)
	if _, err := q.NoisyCount(0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NoisyCount(0.4); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestGroupByBudgetRefusalLeavesSiblingBudget(t *testing.T) {
	// A grouped aggregation that would cost 2x must be refused without
	// consuming anything.
	q, root := newTestQueryable(ints(10), 1.0)
	g := GroupBy(q, func(x int) int { return x % 2 })
	if _, err := g.NoisyCount(0.8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded (cost 1.6 > 1.0)", err)
	}
	if root.Spent() != 0 {
		t.Fatalf("refused aggregation consumed %v", root.Spent())
	}
	if _, err := q.NoisyCount(1.0); err != nil {
		t.Fatalf("full budget should remain: %v", err)
	}
}

// Property: Where never increases the record count and never changes
// the budget without an aggregation.
func TestWherePropertyNoBudgetTouch(t *testing.T) {
	f := func(data []int, threshold int) bool {
		q, root := newTestQueryable(data, 1.0)
		w := q.Where(func(x int) bool { return x > threshold })
		return len(w.records) <= len(data) && root.Spent() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Partition parts are pairwise disjoint and their union is
// the subset of records with listed keys.
func TestPartitionProperty(t *testing.T) {
	f := func(data []uint8) bool {
		recs := make([]int, len(data))
		for i, d := range data {
			recs[i] = int(d)
		}
		q, _ := newTestQueryable(recs, math.Inf(1))
		keys := []int{0, 1, 2}
		parts := Partition(q, keys, func(x int) int { return x % 4 })
		total := 0
		for k, p := range parts {
			for _, x := range p.settled().records {
				if x%4 != k {
					return false
				}
			}
			total += len(p.settled().records)
		}
		wantTotal := 0
		for _, x := range recs {
			if x%4 != 3 {
				wantTotal++
			}
		}
		return total == wantTotal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GroupBy groups partition the input exactly.
func TestGroupByProperty(t *testing.T) {
	f := func(data []uint8) bool {
		q, _ := newTestQueryable(data, math.Inf(1))
		g := GroupBy(q, func(x uint8) uint8 { return x % 7 })
		seen := 0
		keys := make(map[uint8]bool)
		for _, grp := range g.records {
			if keys[grp.Key] {
				return false // duplicate group key
			}
			keys[grp.Key] = true
			if len(grp.Items) == 0 {
				return false // empty group
			}
			for _, x := range grp.Items {
				if x%7 != grp.Key {
					return false
				}
			}
			seen += len(grp.Items)
		}
		return seen == len(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
