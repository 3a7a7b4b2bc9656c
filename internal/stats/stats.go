// Package stats provides the plain (non-private) statistical helpers
// the evaluation harness uses to compare noisy results with noise-free
// baselines: the paper's RMSE formula, summary statistics, quantiles,
// histograms, and Pearson correlation.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrMismatchedLengths reports slices of unequal length where equal
// lengths are required.
var ErrMismatchedLengths = errors.New("stats: mismatched slice lengths")

// RMSE computes the paper's relative root-mean-square error,
// sqrt(1/n * sum_i (1 - private[i]/noiseFree[i])^2), used throughout
// §5 to quantify the distance between private and noise-free curves.
// Indices where the noise-free value is zero are skipped, since the
// relative error is undefined there.
func RMSE(private, noiseFree []float64) (float64, error) {
	if len(private) != len(noiseFree) {
		return 0, ErrMismatchedLengths
	}
	var sum float64
	n := 0
	for i := range private {
		if noiseFree[i] == 0 {
			continue
		}
		d := 1 - private[i]/noiseFree[i]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return math.Sqrt(sum / float64(n)), nil
}

// AbsRMSE computes the absolute (non-relative) root-mean-square error
// between two equal-length series.
func AbsRMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrMismatchedLengths
	}
	if len(a) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a))), nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer
// than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation of the sorted values. It copies xs; the input is not
// modified. Panics on empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("stats: quantile fraction out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	// lo + (hi−lo)·frac, not lo·(1−frac) + hi·frac: the second can round
	// below lo between equal neighbours, so q ↦ Quantile would not be
	// monotone.
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// Pearson returns the Pearson correlation coefficient of two
// equal-length series, or 0 if either has zero variance.
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrMismatchedLengths
	}
	if len(a) == 0 {
		return 0, nil
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(va*vb), nil
}

// Histogram counts values into len(edges)-1 bins delimited by the
// sorted edge values; values outside [edges[0], edges[last]) are
// dropped. Panics if fewer than two edges are given or the edges are
// not strictly increasing.
func Histogram(xs []float64, edges []float64) []int {
	if len(edges) < 2 {
		panic("stats: Histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: Histogram edges must be strictly increasing")
		}
	}
	counts := make([]int, len(edges)-1)
	for _, x := range xs {
		if x < edges[0] || x >= edges[len(edges)-1] {
			continue
		}
		// Binary search for the bin.
		i := sort.SearchFloat64s(edges, x)
		if i < len(edges) && edges[i] == x {
			// x sits exactly on an edge: belongs to the bin starting there.
			counts[i]++
		} else {
			counts[i-1]++
		}
	}
	return counts
}

// CumulativeCounts turns per-bucket counts into a running total — the
// empirical CDF in counts rather than probabilities, which is the form
// the paper plots (y-axes in Figures 1-3 are counts).
func CumulativeCounts(counts []float64) []float64 {
	out := make([]float64, len(counts))
	var run float64
	for i, c := range counts {
		run += c
		out[i] = run
	}
	return out
}

// MaxAbsDiff returns the maximum absolute pointwise difference between
// two equal-length series.
func MaxAbsDiff(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrMismatchedLengths
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max, nil
}
