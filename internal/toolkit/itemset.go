package toolkit

import (
	"fmt"
	"slices"
	"sort"

	"dptrace/internal/core"
)

// Basket is one record of an itemset-mining input: a set of item
// indices plus a caller-assigned identifier (host id, time bin, ...).
// The ID only seeds the deterministic assignment of the record among
// the candidates it supports; identical item sets from different
// entities must carry different IDs or they will all be assigned to
// the same candidate.
type Basket struct {
	ID    uint64
	Items []int
}

// ItemsetCount is one frequent itemset with its noisy (partitioned)
// support count. Items are indices into the universe passed to
// FrequentItemsets.
type ItemsetCount struct {
	Items []int
	Count float64
}

// FrequentItemsetsConfig parameterizes the §4.3 apriori-style miner.
type FrequentItemsetsConfig struct {
	// MaxSize is the largest itemset size to mine (2 finds pairs, as
	// in the paper's co-used-ports example).
	MaxSize int
	// EpsilonPerRound is spent per candidate-evaluation round; total
	// cost is MaxSize · EpsilonPerRound.
	EpsilonPerRound float64
	// Threshold is the minimum noisy partitioned support for a
	// candidate to survive. The paper stresses that HIGH thresholds
	// let the miner learn more: each record is partitioned among the
	// candidates it supports (contributing to exactly one count), so
	// too many surviving candidates spread the support too thin for
	// any to accumulate evidence.
	Threshold float64
}

// FrequentItemsets mines itemsets over Basket records whose items are
// indices in [0, universe). The differential-privacy twist versus
// textbook apriori: a record supporting several candidates is counted
// toward only ONE of them — chosen by a deterministic hash of the
// record, which spreads identical-looking baskets from different
// entities across the candidates — via Partition. This is what keeps
// each round's privacy cost at one ε instead of one per candidate, at
// the price of under-counting support.
//
// Returns the surviving itemsets of every size up to MaxSize, largest
// first, each with the noisy support from its round.
func FrequentItemsets(q *core.Queryable[Basket], universe int, cfg FrequentItemsetsConfig) ([]ItemsetCount, error) {
	if universe <= 0 {
		return nil, fmt.Errorf("toolkit: FrequentItemsets universe must be positive, got %d", universe)
	}
	if cfg.MaxSize <= 0 {
		return nil, fmt.Errorf("toolkit: FrequentItemsets MaxSize must be positive, got %d", cfg.MaxSize)
	}
	if cfg.EpsilonPerRound <= 0 {
		return nil, core.ErrInvalidEpsilon
	}

	// Round 1 candidates: singletons.
	cands := make([][]int, universe)
	for i := range cands {
		cands[i] = []int{i}
	}
	var results []ItemsetCount
	var prevSurvivors [][]int
	for size := 1; size <= cfg.MaxSize; size++ {
		if size > 1 {
			cands = aprioriJoin(prevSurvivors, size)
			if len(cands) == 0 {
				break
			}
		}
		counts, err := partitionedSupport(q, cands, cfg.EpsilonPerRound)
		if err != nil {
			return nil, fmt.Errorf("toolkit: FrequentItemsets round %d: %w", size, err)
		}
		var survivors [][]int
		var roundResults []ItemsetCount
		for i, c := range counts {
			if c > cfg.Threshold {
				survivors = append(survivors, cands[i])
				roundResults = append(roundResults, ItemsetCount{Items: cands[i], Count: c})
			}
		}
		// Keep larger itemsets first in the final output.
		results = append(roundResults, results...)
		prevSurvivors = survivors
		if len(survivors) == 0 {
			break
		}
	}
	return results, nil
}

// partitionedSupport counts, for each candidate itemset, the records
// assigned to it: a record supporting several candidates is spread by
// a deterministic hash of its contents across ALL the candidates it
// supports, so no candidate is starved while each record still
// contributes to exactly one count. One Partition, so the round costs
// a single epsilon. Every candidate is sorted (singletons, then
// aprioriJoin's output), so a record's items are sorted once and each
// candidate is tested by one merge walk.
func partitionedSupport(q *core.Queryable[Basket], cands [][]int, epsilon float64) ([]float64, error) {
	parts := core.Partition(q, upTo(len(cands)), func(rec Basket) int {
		var buf [16]int
		items := append(buf[:0], rec.Items...)
		slices.Sort(items)
		var supported []int
		for ci, cand := range cands {
			if sortedSubset(cand, items) {
				supported = append(supported, ci)
			}
		}
		if len(supported) == 0 {
			return -1 // supports no candidate: dropped
		}
		return supported[basketHash(rec)%uint64(len(supported))]
	})
	counts := make([]float64, len(cands))
	for i := range counts {
		c, err := parts[i].NoisyCount(epsilon)
		if err != nil {
			return nil, err
		}
		counts[i] = c
	}
	return counts, nil
}

// sortedSubset reports whether every item of the sorted cand is in the
// sorted items. Repeats on either side are allowed: an item is tested
// for membership, as a set would.
func sortedSubset(cand, items []int) bool {
	j := 0
	for _, it := range cand {
		for j < len(items) && items[j] < it {
			j++
		}
		if j == len(items) || items[j] != it {
			return false
		}
	}
	return true
}

// aprioriJoin merges size-1 survivors into size-sized candidates: two
// survivors that share all but their last item produce their union,
// kept only if every (size-1)-subset survived. Candidates come out in
// deterministic lexicographic order.
func aprioriJoin(survivors [][]int, size int) [][]int {
	surviving := make(map[string]bool, len(survivors))
	for _, s := range survivors {
		surviving[itemsetKey(s)] = true
	}
	seen := make(map[string]bool)
	var out [][]int
	for i := 0; i < len(survivors); i++ {
		for j := i + 1; j < len(survivors); j++ {
			a, b := survivors[i], survivors[j]
			if !samePrefix(a, b) {
				continue
			}
			merged := make([]int, 0, size)
			merged = append(merged, a...)
			merged = append(merged, b[len(b)-1])
			sort.Ints(merged)
			key := itemsetKey(merged)
			if seen[key] {
				continue
			}
			if !allSubsetsSurvive(merged, surviving) {
				continue
			}
			seen[key] = true
			out = append(out, merged)
		}
	}
	sort.Slice(out, func(i, j int) bool { return itemsetKey(out[i]) < itemsetKey(out[j]) })
	return out
}

func samePrefix(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] != b[len(b)-1]
}

func allSubsetsSurvive(merged []int, surviving map[string]bool) bool {
	if len(merged) <= 2 {
		return true // singletons checked by construction
	}
	sub := make([]int, 0, len(merged)-1)
	for skip := range merged {
		sub = sub[:0]
		for i, v := range merged {
			if i != skip {
				sub = append(sub, v)
			}
		}
		if !surviving[itemsetKey(sub)] {
			return false
		}
	}
	return true
}

// basketHash is an FNV-1a hash of the basket's ID and items, giving
// each record a stable pseudo-random assignment among the candidates
// it supports.
func basketHash(b Basket) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xFF
			h *= prime
		}
	}
	mix(b.ID)
	for _, it := range b.Items {
		mix(uint64(it))
	}
	return h
}

func itemsetKey(items []int) string {
	key := make([]byte, 0, len(items)*4)
	for _, it := range items {
		key = append(key, byte(it>>24), byte(it>>16), byte(it>>8), byte(it))
	}
	return string(key)
}
