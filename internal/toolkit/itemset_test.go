package toolkit

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
)

// plantBaskets builds records: count copies of each item set, each
// with a unique basket ID (as distinct hosts/bins would have).
func plantBaskets(sets map[string][]int, counts map[string]int) []Basket {
	var out []Basket
	id := uint64(0)
	for name, items := range sets {
		for i := 0; i < counts[name]; i++ {
			cp := make([]int, len(items))
			copy(cp, items)
			out = append(out, Basket{ID: id, Items: cp})
			id++
		}
	}
	return out
}

func itemsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFrequentItemsetsFindsPlantedPairs(t *testing.T) {
	// Items: 0..5. Planted frequent pairs {0,1} and {2,3}; item 4
	// frequent alone; item 5 rare.
	data := plantBaskets(
		map[string][]int{
			"p01": {0, 1}, "p23": {2, 3}, "s4": {4}, "s5": {5},
		},
		map[string]int{"p01": 4000, "p23": 3000, "s4": 2500, "s5": 20},
	)
	q, _ := core.NewQueryable(data, math.Inf(1), noise.NewSeededSource(21, 22))
	got, err := FrequentItemsets(q, 6, FrequentItemsetsConfig{
		MaxSize: 2, EpsilonPerRound: 1.0, Threshold: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][]int
	for _, ic := range got {
		if len(ic.Items) == 2 {
			pairs = append(pairs, ic.Items)
		}
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs (%v), want 2", len(pairs), got)
	}
	for _, want := range [][]int{{0, 1}, {2, 3}} {
		found := false
		for _, p := range pairs {
			if itemsEqual(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("pair %v not found in %v", want, pairs)
		}
	}
}

func TestFrequentItemsetsLargerSets(t *testing.T) {
	data := plantBaskets(
		map[string][]int{"t": {1, 2, 3}, "noise": {4}},
		map[string]int{"t": 5000, "noise": 3000},
	)
	q, _ := core.NewQueryable(data, math.Inf(1), noise.NewSeededSource(23, 24))
	got, err := FrequentItemsets(q, 5, FrequentItemsetsConfig{
		MaxSize: 3, EpsilonPerRound: 1.0, Threshold: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundTriple := false
	for _, ic := range got {
		if itemsEqual(ic.Items, []int{1, 2, 3}) {
			foundTriple = true
			if math.Abs(ic.Count-5000) > 50 {
				t.Errorf("triple count %v, want ~5000", ic.Count)
			}
		}
	}
	if !foundTriple {
		t.Fatalf("triple {1,2,3} not mined: %v", got)
	}
}

// TestFrequentItemsetsPartitionedSupport: a record supporting two
// candidates counts toward only one, so the two singleton counts sum
// to the record count instead of doubling it.
func TestFrequentItemsetsPartitionedSupport(t *testing.T) {
	data := plantBaskets(
		map[string][]int{"both": {0, 1}},
		map[string]int{"both": 4000},
	)
	q, _ := core.NewQueryable(data, math.Inf(1), noise.NewSeededSource(25, 26))
	got, err := FrequentItemsets(q, 2, FrequentItemsetsConfig{
		MaxSize: 1, EpsilonPerRound: 1.0, Threshold: -1000, // keep everything
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ic := range got {
		total += ic.Count
	}
	if math.Abs(total-4000) > 50 {
		t.Errorf("singleton support total %v, want ~4000 (records partitioned, not double-counted)", total)
	}
}

func TestFrequentItemsetsPrivacyCost(t *testing.T) {
	data := plantBaskets(map[string][]int{"a": {0, 1}}, map[string]int{"a": 1000})
	q, root := core.NewQueryable(data, math.Inf(1), noise.NewSeededSource(27, 28))
	if _, err := FrequentItemsets(q, 3, FrequentItemsetsConfig{
		MaxSize: 2, EpsilonPerRound: 0.5, Threshold: 100,
	}); err != nil {
		t.Fatal(err)
	}
	// Two rounds (singletons, pairs), one Partition each.
	if got := root.Spent(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("privacy cost %v, want 1.0", got)
	}
}

func TestFrequentItemsetsStopsWhenNoSurvivors(t *testing.T) {
	data := plantBaskets(map[string][]int{"a": {0}}, map[string]int{"a": 5})
	q, root := core.NewQueryable(data, math.Inf(1), noise.NewSeededSource(29, 30))
	got, err := FrequentItemsets(q, 2, FrequentItemsetsConfig{
		MaxSize: 3, EpsilonPerRound: 0.5, Threshold: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
	// Only the first round should have been charged.
	if spent := root.Spent(); math.Abs(spent-0.5) > 1e-9 {
		t.Errorf("spent %v, want 0.5 (early stop)", spent)
	}
}

func TestFrequentItemsetsInvalidConfig(t *testing.T) {
	q, _ := core.NewQueryable([]Basket{}, math.Inf(1), noise.NewSeededSource(1, 1))
	if _, err := FrequentItemsets(q, 0, FrequentItemsetsConfig{MaxSize: 1, EpsilonPerRound: 1}); err == nil {
		t.Error("zero universe accepted")
	}
	if _, err := FrequentItemsets(q, 2, FrequentItemsetsConfig{MaxSize: 0, EpsilonPerRound: 1}); err == nil {
		t.Error("zero MaxSize accepted")
	}
	if _, err := FrequentItemsets(q, 2, FrequentItemsetsConfig{MaxSize: 1, EpsilonPerRound: -1}); !errors.Is(err, core.ErrInvalidEpsilon) {
		t.Errorf("negative epsilon: %v", err)
	}
}

func TestAprioriJoin(t *testing.T) {
	// Survivors {0,1},{0,2},{1,2} -> candidate {0,1,2} (all subsets
	// survive). Survivors {0,1},{2,3} -> nothing (no shared prefix).
	got := aprioriJoin([][]int{{0, 1}, {0, 2}, {1, 2}}, 3)
	if len(got) != 1 || !itemsEqual(got[0], []int{0, 1, 2}) {
		t.Fatalf("aprioriJoin = %v, want [[0 1 2]]", got)
	}
	got = aprioriJoin([][]int{{0, 1}, {2, 3}}, 3)
	if len(got) != 0 {
		t.Fatalf("aprioriJoin = %v, want none", got)
	}
	// Missing subset prunes: {0,1},{0,2} without {1,2}.
	got = aprioriJoin([][]int{{0, 1}, {0, 2}}, 3)
	if len(got) != 0 {
		t.Fatalf("aprioriJoin without full subset support = %v, want none", got)
	}
}

// TestSortedSubsetMatchesSetMembership checks the merge walk
// partitionedSupport tests candidates with against set membership, on
// unsorted records with repeated items and records longer than the
// walk's stack buffer.
func TestSortedSubsetMatchesSetMembership(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 2000; trial++ {
		rec := make([]int, rng.IntN(24))
		have := make(map[int]bool)
		for i := range rec {
			rec[i] = rng.IntN(12)
			have[rec[i]] = true
		}
		cand := make([]int, 1+rng.IntN(4))
		for i := range cand {
			cand[i] = rng.IntN(12)
		}
		slices.Sort(cand)
		want := true
		for _, it := range cand {
			want = want && have[it]
		}
		items := slices.Clone(rec)
		slices.Sort(items)
		if got := sortedSubset(cand, items); got != want {
			t.Fatalf("sortedSubset(%v, %v) = %v, set membership says %v", cand, rec, got, want)
		}
	}
}
