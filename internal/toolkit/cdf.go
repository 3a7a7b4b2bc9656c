// Package toolkit implements the paper's §4 "private analysis toolkit":
// privacy-efficient primitives that recur across network trace analyses
// — three CDF estimators with different privacy-cost/error trade-offs,
// isotonic regression for post-processing noisy CDFs, frequent
// (sub)string discovery, and differentially-private frequent itemset
// mining.
//
// Everything here is built from the public operations of internal/core;
// per the paper's methodology, nothing reaches around the privacy
// curtain, so any analysis composed from these primitives inherits the
// differential-privacy guarantee and its budget accounting.
package toolkit

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"dptrace/internal/core"
)

// ErrBadBuckets reports an invalid bucket specification.
var ErrBadBuckets = errors.New("toolkit: buckets must be non-empty and strictly increasing")

// checkBuckets validates a strictly increasing bucket-edge list.
func checkBuckets(buckets []int64) error {
	if len(buckets) == 0 {
		return ErrBadBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			return ErrBadBuckets
		}
	}
	return nil
}

// CDF1 is the paper's first, naive CDF estimator: for each bucket edge
// x it directly measures count(value < x) with a separate noisy count.
// Each measurement is independent, so the total privacy cost is
// len(buckets)·ε and — at a fixed total budget — the per-point error
// standard deviation grows linearly with the number of buckets. It is
// included as the baseline the paper's Figure 1 shows to be
// "incredibly high" in error; use CDF2 or CDF3 instead.
//
// The returned slice has one cumulative count per bucket edge:
// out[i] ≈ #records with value < buckets[i]. Each edge is counted
// through a fused Stream, so no record is copied per edge.
func CDF1[T any](q *core.Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	out := make([]float64, len(buckets))
	for i, x := range buckets {
		edge := x
		c, err := q.Stream().Where(func(r T) bool { return value(r) < edge }).NoisyCount(epsilon)
		if err != nil {
			return nil, fmt.Errorf("toolkit: CDF1 bucket %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// CDF2 is the paper's partition-based estimator: the records are
// Partitioned into buckets, each bucket is counted once at ε, and the
// counts accumulate into a CDF. Thanks to Partition's max-cost
// accounting the total privacy cost is ε — independent of resolution —
// while the error at bucket i is a sum of i+1 independent noises, so
// the error standard deviation grows only with √len(buckets). The
// accumulation makes errors drift (a run may consistently over- or
// under-estimate), which Figure 1(b) zooms in on.
//
// A value's bucket is the smallest i with v < buckets[i] (a Bucketer
// finds it); values ≥ the last edge are dropped, matching the
// Where(value < x) reading of CDF1.
//
// q is either handle: Partition counts its parts in one pass and the
// per-bucket NoisyCounts read those counts, so a CDF over a fused
// Stream copies no record.
func CDF2[T any](q core.Streamer[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	b := NewBucketer(buckets)
	parts := core.Partition(q, upTo(len(buckets)), func(r T) int { return b.Index(value(r)) })
	out := make([]float64, len(buckets))
	tally := 0.0
	for i := range buckets {
		c, err := parts[i].NoisyCount(epsilon)
		if err != nil {
			return nil, fmt.Errorf("toolkit: CDF2 bucket %d: %w", i, err)
		}
		tally += c
		out[i] = tally
	}
	return out, nil
}

// Bucketer is bucketIndex over one edge list, mostly without the
// search, whose branches a mix of values mispredicts: a table of bucket
// numbers over [lo, last edge) in cells of 2^shift values, the largest
// power of two dividing every edge's distance from lo (linear edges at
// a step of 16 or 1,024 make 95 or 64 cells). lo is 0 if the edges start
// above it and the table still fits (lengths, ports, RTTs and loss rates
// start there, and a port below the first edge is common), else the
// first edge. Values outside the table, and every value of a list that
// needs more than tableSpan cells, take the search.
type Bucketer struct {
	edges []int64
	lo    int64
	shift int
	table []uint16 // table[(v−lo)>>shift] = bucketIndex(v, edges)
}

// tableSpan is the most cells a table has: 65,536 ports at a step of 1.
const tableSpan = 1 << 16

// NewBucketer indexes edges, which must be strictly increasing.
// uint64(e−lo) is e's distance above lo, wrapped or not.
func NewBucketer(edges []int64) *Bucketer {
	b := &Bucketer{edges: edges}
	if len(edges) < 2 || len(edges) > math.MaxUint16+1 {
		return b
	}
	for _, lo := range []int64{min(edges[0], 0), edges[0]} {
		var distances uint64
		for _, e := range edges {
			distances |= uint64(e - lo)
		}
		shift := bits.TrailingZeros64(distances)
		cell := func(e int64) uint64 { return uint64(e-lo) >> shift }
		if cell(edges[len(edges)-1]) <= tableSpan {
			b.lo, b.shift, b.table = lo, shift, make([]uint16, cell(edges[len(edges)-1]))
			for i := 1; i < len(edges); i++ {
				bucket := b.table[cell(edges[i-1]):cell(edges[i])]
				for j := range bucket {
					bucket[j] = uint16(i)
				}
			}
			break
		}
	}
	return b
}

// Index is bucketIndex(v, edges). uint64(v−lo) is below the table's span
// exactly when v is in it, so one unsigned compare bounds the table.
func (b *Bucketer) Index(v int64) int {
	if d := uint64(v-b.lo) >> b.shift; d < uint64(len(b.table)) {
		return int(b.table[d])
	}
	return bucketIndex(v, b.edges)
}

// bucketIndex returns the smallest i with v < buckets[i], or -1 when v
// is ≥ the last edge (such records are dropped by Partition).
func bucketIndex(v int64, buckets []int64) int {
	lo, hi := 0, len(buckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < buckets[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(buckets) {
		return -1
	}
	return lo
}

// CDF3 is the paper's multi-resolution estimator: it recursively
// bisects the bucket range with Partition, measuring cumulative counts
// for progressively finer prefixes, so each CDF value aggregates at
// most log₂(len(buckets)) + 1 noisy measurements. The total privacy
// cost is ε·(log₂(len(buckets)) + 1) and the per-point error standard
// deviation is proportional to log^{3/2} at a fixed total budget —
// asymptotically the best of the three. Unlike CDF2 its errors do not
// accumulate across the whole range, but individual points may over-
// or under-shoot independently.
//
// The number of buckets must be a power of two (pad with extra edges
// if needed).
func CDF3[T any](q *core.Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	n := len(buckets)
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: CDF3 needs a power-of-two bucket count, got %d", ErrBadBuckets, n)
	}
	// Map each record to its bucket index once; indices outside the
	// range are dropped by the recursion's partitions.
	b := NewBucketer(buckets)
	indexed := core.Select(q, func(r T) int { return b.Index(value(r)) })
	inRange := indexed.Where(func(i int) bool { return i >= 0 })
	return cdf3Rec(inRange, epsilon, n)
}

// cdf3Rec emits cumulative counts for bucket indices [0, max) of q.
func cdf3Rec(q *core.Queryable[int], epsilon float64, max int) ([]float64, error) {
	if max == 1 {
		c, err := q.NoisyCount(epsilon)
		if err != nil {
			return nil, err
		}
		return []float64{c}, nil
	}
	half := max / 2
	parts := core.Partition(q, []int{0, 1}, func(i int) int {
		if i < half {
			return 0
		}
		return 1
	})
	left, err := cdf3Rec(parts[0], epsilon, half)
	if err != nil {
		return nil, err
	}
	// A fresh cumulative count for the left half anchors the right.
	leftCount, err := parts[0].NoisyCount(epsilon)
	if err != nil {
		return nil, err
	}
	shifted := core.Select(parts[1], func(i int) int { return i - half })
	right, err := cdf3Rec(shifted, epsilon, half)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, max)
	out = append(out, left...)
	for _, v := range right {
		out = append(out, v+leftCount)
	}
	return out, nil
}

// upTo is the key list 0, 1, …, n−1, which Partition numbers without a
// map.
func upTo(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// LinearBuckets builds count uniformly spaced bucket edges
// lo+step, lo+2·step, ..., covering (lo, lo+count·step].
func LinearBuckets(lo, step int64, count int) []int64 {
	if step <= 0 || count <= 0 {
		panic("toolkit: LinearBuckets needs positive step and count")
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = lo + step*int64(i+1)
	}
	return out
}
