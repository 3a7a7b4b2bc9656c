package toolkit

import (
	"fmt"
	"math"

	"dptrace/internal/core"
)

// RangeTree generalizes the §4.1 multi-resolution idea (CDF3) to
// arbitrary range queries: a binary tree of noisy counts over dyadic
// intervals of the value domain, measured ONCE for ε·(levels) of
// budget. Any range [lo, hi) then decomposes into at most 2·log₂(n)
// tree nodes, so every subsequent query is pure post-processing — free
// of privacy cost and answerable offline, with error standard
// deviation O(√log(n))·(√2/ε).
//
// This is the structure an analyst should extract when they do not yet
// know which ranges they will need; the paper's CDF3 is the special
// case of prefix ranges.
type RangeTree struct {
	// size is the domain size (power of two); values are bucket
	// indices in [0, size).
	size int
	// levels[0] is the root (1 node covering [0,size)); levels[d] has
	// 2^d nodes of width size/2^d.
	levels [][]float64
	// epsilon is the per-level measurement budget (for error
	// reporting).
	epsilon float64
}

// NewRangeTree measures a range tree over the bucket indices of
// value(r): the domain is the bucket list, which must have
// power-of-two length. Privacy cost: epsilon ×
// (log₂(len(buckets)) + 1), charged through the Queryable's agent.
func NewRangeTree[T any](q *core.Queryable[T], epsilon float64, value func(T) int64, buckets []int64) (*RangeTree, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	n := len(buckets)
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: RangeTree needs a power-of-two bucket count, got %d", ErrBadBuckets, n)
	}
	b := NewBucketer(buckets)
	indexed := core.Select(q, func(r T) int { return b.Index(value(r)) })
	inRange := indexed.Where(func(i int) bool { return i >= 0 })

	depth := int(math.Log2(float64(n))) + 1
	tree := &RangeTree{size: n, epsilon: epsilon, levels: make([][]float64, depth)}
	// Each level is a disjoint partition of the records, so the whole
	// level costs one epsilon; levels are sequential (they re-examine
	// the same data), so the total is epsilon x depth.
	for d := 0; d < depth; d++ {
		nodes := 1 << d
		width := n / nodes
		parts := core.Partition(inRange, upTo(nodes), func(idx int) int { return idx / width })
		level := make([]float64, nodes)
		for i := range nodes {
			c, err := parts[i].NoisyCount(epsilon)
			if err != nil {
				return nil, fmt.Errorf("toolkit: RangeTree level %d node %d: %w", d, i, err)
			}
			level[i] = c
		}
		tree.levels[d] = level
	}
	return tree, nil
}

// Size returns the domain size (number of buckets).
func (t *RangeTree) Size() int { return t.size }

// Count estimates the number of records with bucket index in [lo, hi).
// Pure post-processing: no privacy cost. Panics on an invalid range.
func (t *RangeTree) Count(lo, hi int) float64 {
	if lo < 0 || hi > t.size || lo > hi {
		panic(fmt.Sprintf("toolkit: RangeTree.Count invalid range [%d, %d)", lo, hi))
	}
	return t.count(0, 0, t.size, lo, hi)
}

// count sums the minimal set of tree nodes covering [lo, hi) within
// the node at (depth, idx) spanning [nodeLo, nodeHi).
func (t *RangeTree) count(depth, nodeIdx, nodeWidth, lo, hi int) float64 {
	nodeLo := nodeIdx * nodeWidth
	nodeHi := nodeLo + nodeWidth
	if lo <= nodeLo && nodeHi <= hi {
		return t.levels[depth][nodeIdx]
	}
	if hi <= nodeLo || lo >= nodeHi {
		return 0
	}
	half := nodeWidth / 2
	return t.count(depth+1, 2*nodeIdx, half, lo, hi) +
		t.count(depth+1, 2*nodeIdx+1, half, lo, hi)
}

// Total estimates the total record count (the root node).
func (t *RangeTree) Total() float64 { return t.levels[0][0] }

// CDF reproduces the cumulative counts (prefix ranges) from the tree —
// interchangeable with CDF3's output, derived by post-processing.
func (t *RangeTree) CDF() []float64 {
	out := make([]float64, t.size)
	for i := range out {
		out[i] = t.Count(0, i+1)
	}
	return out
}

// QueryStd returns the standard deviation of a range estimate that
// decomposes into k tree nodes: k·(√2/ε) summed in quadrature. Exposed
// so analysts can judge significance; the decomposition size of
// [lo, hi) is NodeCount(lo, hi).
func (t *RangeTree) QueryStd(lo, hi int) float64 {
	k := t.nodeCount(0, 0, t.size, lo, hi)
	return math.Sqrt(float64(k)) * math.Sqrt2 / t.epsilon
}

func (t *RangeTree) nodeCount(depth, nodeIdx, nodeWidth, lo, hi int) int {
	nodeLo := nodeIdx * nodeWidth
	nodeHi := nodeLo + nodeWidth
	if lo <= nodeLo && nodeHi <= hi {
		return 1
	}
	if hi <= nodeLo || lo >= nodeHi {
		return 0
	}
	half := nodeWidth / 2
	return t.nodeCount(depth+1, 2*nodeIdx, half, lo, hi) +
		t.nodeCount(depth+1, 2*nodeIdx+1, half, lo, hi)
}
