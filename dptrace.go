// Package dptrace is a differentially-private network trace analysis
// library: a Go reproduction of "Differentially-Private Network Trace
// Analysis" (McSherry & Mahajan, SIGCOMM 2010), including a
// PINQ-style query engine, the paper's privacy-efficient analysis
// toolkit, and its six reference analyses.
//
// This package is the public facade: it re-exports the engine
// (internal/core), the noise mechanisms (internal/noise), and the
// toolkit (internal/toolkit) as one documented surface. The analyses
// themselves live under internal/analyses and are exercised through
// the runnable examples in examples/ and the experiment harness in
// cmd/experiments.
//
// # Quick start
//
// Wrap records in a protected Queryable with a total privacy budget,
// transform declaratively, and extract noisy aggregates:
//
//	packets := loadTrace()
//	q, budget := dptrace.NewQueryable(packets, 1.0, dptrace.NewSeededSource(1, 2))
//	grouped := dptrace.GroupBy(
//	    q.Where(func(p Packet) bool { return p.DstPort == 80 }),
//	    func(p Packet) IPv4 { return p.SrcIP })
//	heavy := grouped.Where(func(g dptrace.Group[IPv4, Packet]) bool {
//	    total := 0
//	    for _, p := range g.Items { total += int(p.Len) }
//	    return total > 1024
//	})
//	count, err := heavy.NoisyCount(0.1) // ≈ true count ± Laplace noise
//	_ = budget.Spent()                  // 0.2: GroupBy doubles sensitivity
//
// (When all a pipeline wants from a group is something it can
// accumulate — here a byte total — GroupFold does the same at the same
// cost without storing the group.)
//
// The privacy accounting follows the paper's Table 1: Where, Select,
// Distinct, Join, Concat and Intersect do not amplify sensitivity;
// GroupBy (and GroupFold) doubles it; Partition charges the maximum
// over its parts.
package dptrace

import (
	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/toolkit"
)

// Re-exported engine types. Generic aliases keep the internal types
// and the public names fully interchangeable.
type (
	// Queryable is an opaque handle to a protected dataset.
	Queryable[T any] = core.Queryable[T]
	// Group is one GroupBy output record.
	Group[K comparable, T any] = core.Group[K, T]
	// Folded is one GroupFold output record.
	Folded[K comparable, A any] = core.Folded[K, A]
	// RootAgent tracks a dataset's cumulative privacy expenditure.
	RootAgent = core.RootAgent
	// Source yields the uniform randomness behind the noise
	// mechanisms.
	Source = noise.Source
)

// Re-exported engine errors.
var (
	// ErrBudgetExceeded is returned when an aggregation would exceed
	// the remaining privacy budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrInvalidEpsilon is returned for non-positive or non-finite ε.
	ErrInvalidEpsilon = core.ErrInvalidEpsilon
	// ErrCanceled is returned by aggregations whose pipeline context
	// was cancelled: before the privacy charge, and the query spent
	// zero ε; or during the aggregation's scan, and the charge stands.
	// It wraps the context's own error, so errors.Is also matches
	// context.Canceled or context.DeadlineExceeded.
	ErrCanceled = core.ErrCanceled
)

// NewQueryable wraps records as a protected dataset with the given
// total privacy budget; see core.NewQueryable.
func NewQueryable[T any](records []T, budget float64, src Source) (*Queryable[T], *RootAgent) {
	return core.NewQueryable(records, budget, src)
}

// ExecOptions is the width a Queryable's scans run on. Every Queryable
// starts at GOMAXPROCS workers for inputs of DefaultParallelThreshold
// records or more; WithExecOptions sets another width. The width never
// changes results: records, ordering and privacy charges are
// byte-identical at any width.
type ExecOptions = core.ExecOptions

// DefaultParallelThreshold is the record count below which parallel
// execution falls back to sequential.
const DefaultParallelThreshold = core.DefaultParallelThreshold

// ParallelExecutions reports how many scans have run on more than one
// worker, process-wide (an observability counter).
func ParallelExecutions() uint64 { return core.ParallelExecutions() }

// NewSeededSource returns a deterministic noise source for
// reproducible experiments. Use NewCryptoSource for deployments.
func NewSeededSource(seed1, seed2 uint64) Source { return noise.NewSeededSource(seed1, seed2) }

// NewCryptoSource returns a crypto/rand-backed noise source.
func NewCryptoSource() Source { return noise.NewCryptoSource() }

// LaplaceStd returns the noise standard deviation √2/ε of a
// sensitivity-1 aggregate, letting analysts judge significance.
func LaplaceStd(epsilon float64) float64 { return noise.LaplaceStd(epsilon) }

// Select applies f to every record; no sensitivity increase.
func Select[T, U any](q *Queryable[T], f func(T) U) *Queryable[U] { return core.Select(q, f) }

// SelectMany maps each record to at most fanout records, amplifying
// sensitivity by fanout.
func SelectMany[T, U any](q *Queryable[T], fanout int, f func(T) []U) *Queryable[U] {
	return core.SelectMany(q, fanout, f)
}

// Distinct keeps one record per key; no sensitivity increase.
func Distinct[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[T] {
	return core.Distinct(q, key)
}

// GroupBy groups records by key, doubling sensitivity (Table 1).
func GroupBy[T any, K comparable](q *Queryable[T], key func(T) K) *Queryable[Group[K, T]] {
	return core.GroupBy(q, key)
}

// GroupFold is GroupBy with each group reduced in place: fold runs over
// a key's records in order, from A's zero value, and only the
// accumulator is kept. Same doubled sensitivity, no group stored. With
// a merge — which must be exact, merge(fold over xs, fold over ys) ==
// fold over xs ++ ys bit for bit (integer sums, counts, min/max; not a
// float sum) — a large input folds on every worker; nil folds it in
// one ordered range.
func GroupFold[T any, K comparable, A any](q *Queryable[T], key func(T) K, fold func(A, T) A, merge func(A, A) A) *Queryable[Folded[K, A]] {
	return core.GroupFold(q, key, fold, merge)
}

// Join is PINQ's bounded join: both inputs grouped by key and zipped,
// so neither input's sensitivity increases.
func Join[T, U any, K comparable, R any](a *Queryable[T], b *Queryable[U], keyA func(T) K, keyB func(U) K, result func(T, U) R) *Queryable[R] {
	return core.Join(a, b, keyA, keyB, result)
}

// GroupJoin is the bounded join variant yielding whole matched groups.
func GroupJoin[T, U any, K comparable, R any](a *Queryable[T], b *Queryable[U], keyA func(T) K, keyB func(U) K, result func(K, []T, []U) R) *Queryable[R] {
	return core.GroupJoin(a, b, keyA, keyB, result)
}

// Intersect keeps q's records whose key appears in other.
func Intersect[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	return core.Intersect(q, other, keyQ, keyOther)
}

// Except keeps q's records whose key does not appear in other.
func Except[T, U any, K comparable](q *Queryable[T], other *Queryable[U], keyQ func(T) K, keyOther func(U) K) *Queryable[T] {
	return core.Except(q, other, keyQ, keyOther)
}

// Partition splits a dataset into per-key parts whose total privacy
// cost is the maximum over parts, not the sum.
func Partition[T any, K comparable](q *Queryable[T], keys []K, keyOf func(T) K) map[K]*Queryable[T] {
	return core.Partition(q, keys, keyOf)
}

// AggOption configures the Sum and Average aggregations.
type AggOption func(*aggConfig)

type aggConfig struct {
	bound float64
}

// WithBound clamps each record's contribution to [-bound, bound]
// (default 1.0), with correspondingly scaled noise. A wider bound
// admits larger true contributions at the price of proportionally
// more noise for the same ε.
func WithBound(bound float64) AggOption {
	return func(c *aggConfig) { c.bound = bound }
}

func applyAggOptions(opts []AggOption) aggConfig {
	c := aggConfig{bound: 1.0}
	for _, opt := range opts {
		if opt != nil {
			opt(&c)
		}
	}
	return c
}

// Streamer is either handle on a protected dataset: a *Queryable or a
// Stream. Every aggregation below accepts both.
type Streamer[T any] = core.Streamer[T]

// Sum returns the noisy sum of f over the dataset, each contribution
// clamped to ±bound (default 1.0, see WithBound), plus Laplace noise
// of std bound·√2/ε.
func Sum[T any](q Streamer[T], epsilon float64, f func(T) float64, opts ...AggOption) (float64, error) {
	c := applyAggOptions(opts)
	return core.NoisySumScaled(q, epsilon, c.bound, f)
}

// Average returns the noisy average of f over the dataset, each
// contribution clamped to ±bound (default 1.0, see WithBound); noise
// std ≈ bound·√8/(εn).
func Average[T any](q Streamer[T], epsilon float64, f func(T) float64, opts ...AggOption) (float64, error) {
	c := applyAggOptions(opts)
	return core.NoisyAverageScaled(q, epsilon, c.bound, f)
}

// NoisyMedian selects an approximate median via the exponential
// mechanism.
func NoisyMedian[T any](q Streamer[T], epsilon float64, f func(T) float64) (float64, error) {
	return core.NoisyMedian(q, epsilon, f)
}

// NoisyOrderStatistic selects an approximate quantile via the
// exponential mechanism.
func NoisyOrderStatistic[T any](q Streamer[T], epsilon, fraction float64, f func(T) float64) (float64, error) {
	return core.NoisyOrderStatistic(q, epsilon, fraction, f)
}

// Sketch-backed aggregations: one-pass mergeable summaries (GK-family
// quantile ranks, count-min frequencies, HLL-style distinct counts)
// with calibrated noise on the released scalar. They answer the same
// questions as NoisyOrderStatistic / per-key counts / Distinct+count
// at trace scale in sketch-sized memory, and their parallel builds are
// byte-identical to sequential ones.

// DefaultQuantileAccuracy is the quantile summary's rank-accuracy
// target used when NoisyQuantile's sketchEps is 0.
const DefaultQuantileAccuracy = core.DefaultQuantileAccuracy

// NoisyQuantile returns a value of rank ≈ fraction·n selected by the
// exponential mechanism over a one-pass mergeable rank summary with
// accuracy target sketchEps (0 selects DefaultQuantileAccuracy).
// Memory is O(1/sketchEps) instead of a full sort.
func NoisyQuantile[T any](q Streamer[T], epsilon, fraction, sketchEps float64, f func(T) float64) (float64, error) {
	return core.NoisyQuantile(q, epsilon, fraction, sketchEps, f)
}

// NoisyFrequency returns the approximate number of records whose key
// equals target, from a one-pass count-min sketch plus Laplace noise
// of scale 1/ε (sensitivity 1, like NoisyCount).
func NoisyFrequency[T any](q Streamer[T], epsilon float64, key func(T) string, target string) (float64, error) {
	return core.NoisyFrequency(q, epsilon, key, target)
}

// NoisyDistinctSketch returns the approximate number of distinct keys
// from one-pass HLL-style registers plus Laplace noise of scale 1/ε.
func NoisyDistinctSketch[T any](q Streamer[T], epsilon float64, key func(T) string) (float64, error) {
	return core.NoisyDistinctSketch(q, epsilon, key)
}

// Fused streaming execution: a Stream is the lazy counterpart of a
// Queryable for chains of record-wise operators — Where, StreamSelect,
// and StreamSelectMany run as one chunked loop that feeds the
// aggregation directly, with no intermediate slices. Results, noise
// draws, and ε-charges are identical to the eager spelling; the only
// difference is that analyst functions run inside the aggregation.

// Stream is a lazily-fused pipeline over a protected dataset; build
// one with Queryable.Stream(). Where, NoisyCount, NoisyCountInt and
// Materialize are methods; the type-changing stages are StreamSelect
// and StreamSelectMany; every other aggregation takes a Stream
// wherever it takes a Queryable.
type Stream[T any] = core.Stream[T]

// StreamSelect fuses a one-to-one mapping stage onto a stream.
func StreamSelect[T, U any](s Stream[T], f func(T) U) Stream[U] {
	return core.StreamSelect(s, f)
}

// StreamSelectMany fuses a flattening stage (at most fanout outputs
// per record), amplifying sensitivity by fanout exactly like
// SelectMany.
func StreamSelectMany[T, U any](s Stream[T], fanout int, f func(T) []U) Stream[U] {
	return core.StreamSelectMany(s, fanout, f)
}

// Toolkit re-exports (paper §4).
type (
	// StringCount is a discovered frequent string with noisy count.
	StringCount = toolkit.StringCount
	// FrequentStringsConfig parameterizes FrequentStrings.
	FrequentStringsConfig = toolkit.FrequentStringsConfig
	// Basket is an itemset-mining input record.
	Basket = toolkit.Basket
	// ItemsetCount is a mined frequent itemset with noisy support.
	ItemsetCount = toolkit.ItemsetCount
	// FrequentItemsetsConfig parameterizes FrequentItemsets.
	FrequentItemsetsConfig = toolkit.FrequentItemsetsConfig
)

// CDF1 measures a CDF with one noisy count per bucket; privacy cost
// |buckets|·ε. The paper's naive baseline — prefer CDF2 or CDF3.
func CDF1[T any](q *Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	return toolkit.CDF1(q, epsilon, value, buckets)
}

// CDF2 measures a CDF by Partition + cumulative counts; privacy cost ε
// regardless of resolution.
func CDF2[T any](q *Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(q, epsilon, value, buckets)
}

// CDF3 measures a CDF at multiple resolutions; privacy cost
// ε·(log₂|buckets|+1) with the best asymptotic error.
func CDF3[T any](q *Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	return toolkit.CDF3(q, epsilon, value, buckets)
}

// LinearBuckets builds uniformly spaced bucket edges for the CDF
// estimators.
func LinearBuckets(lo, step int64, count int) []int64 { return toolkit.LinearBuckets(lo, step, count) }

// NoisyHistogram measures per-bucket counts (the non-cumulative
// sibling of CDF2); privacy cost ε regardless of resolution.
func NoisyHistogram[T any](q *Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	return toolkit.NoisyHistogram(q, epsilon, value, buckets)
}

// Onset is one detected event onset (see Onsets).
type Onset[K comparable] = toolkit.Onset[K]

// Onsets finds, per key, the events whose predecessor is more than
// gapUs earlier — the paper's privacy-efficient substitute for
// sliding-window burst detection. Aggregations on the result cost 4×.
func Onsets[T any, K comparable](q *Queryable[T], key func(T) K, timeUs func(T) int64, gapUs int64) *Queryable[Onset[K]] {
	return toolkit.Onsets(q, key, timeUs, gapUs)
}

// RangeTree is a hierarchy of noisy dyadic counts supporting
// arbitrary range queries by post-processing; see NewRangeTree.
type RangeTree = toolkit.RangeTree

// NewRangeTree measures a dyadic count tree once (cost
// ε·(log₂|buckets|+1)); every later Count(lo, hi) is free.
func NewRangeTree[T any](q *Queryable[T], epsilon float64, value func(T) int64, buckets []int64) (*RangeTree, error) {
	return toolkit.NewRangeTree(q, epsilon, value, buckets)
}

// IsotonicRegression restores monotonicity to a noisy CDF by
// pool-adjacent-violators; free of privacy cost (post-processing).
func IsotonicRegression(xs []float64) []float64 { return toolkit.IsotonicRegression(xs) }

// FrequentStrings discovers frequently occurring strings by iterative
// byte-wise prefix extension (paper §4.2).
func FrequentStrings(q *Queryable[[]byte], cfg FrequentStringsConfig) ([]StringCount, error) {
	return toolkit.FrequentStrings(q, cfg)
}

// FrequentItemsets mines frequently co-occurring item sets with
// partitioned support (paper §4.3).
func FrequentItemsets(q *Queryable[Basket], universe int, cfg FrequentItemsetsConfig) ([]ItemsetCount, error) {
	return toolkit.FrequentItemsets(q, universe, cfg)
}
