package core

import (
	"fmt"
	"math"
	"sort"

	"dptrace/internal/noise"
)

// clamp restricts v to [-bound, bound].
func clamp(v, bound float64) float64 {
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}

// aggregate is the aggregation contract, written once for every
// mechanism on either handle:
//
//  1. the context is checked BEFORE the charge, so a query cancelled
//     before its aggregation fires costs zero ε (ErrCanceled);
//  2. ε and the mechanism's own parameters (invalid, computed by the
//     caller from public inputs) are validated before the charge;
//  3. agent.Apply charges ε through the pipeline's agent chain, or
//     refuses;
//  4. release scans the pipeline and draws the mechanism's noise. A
//     scan the context abandons midway (release reports !ok) returns
//     ErrCanceled with the charge standing, and so does a panic —
//     typically a bug in an analyst-supplied function, or a
//     *WorkerPanic re-raised by runWorkers — as ErrInternal: both lie
//     after Apply, and ε is only ever over-counted;
//  5. exactly one AggDone reaches the recorder, whatever the outcome.
func aggregate[T, V any](s *Stream[T], agg string, epsilon float64, invalid error, release func() (V, bool)) (v V, err error) {
	start := opStart(s.rec)
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, panicError(r)
		}
		aggDone(s.rec, agg, start, epsilon, err)
	}()
	if cerr := ctxErr(s.ctx); cerr != nil {
		return v, canceledErr(cerr)
	}
	if err := validEpsilon(epsilon); err != nil {
		return v, err
	}
	if invalid != nil {
		return v, invalid
	}
	if err := s.agent.Apply(epsilon); err != nil {
		return v, err
	}
	out, ok := release()
	if !ok {
		return v, canceledErr(ctxErr(s.ctx))
	}
	return out, nil
}

// panicError wraps a recovered panic value as ErrInternal.
func panicError(r any) error {
	if wp, ok := r.(*WorkerPanic); ok {
		return fmt.Errorf("%w: %v", ErrInternal, wp.Value)
	}
	return fmt.Errorf("%w: %v", ErrInternal, r)
}

func validEpsilon(epsilon float64) error {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return ErrInvalidEpsilon
	}
	return nil
}

// validBound validates a clamp bound.
func validBound(bound float64) error {
	if bound <= 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return ErrInvalidEpsilon
	}
	return nil
}

// validFraction validates a rank fraction.
func validFraction(fraction float64) error {
	if fraction < 0 || fraction > 1 || math.IsNaN(fraction) {
		return ErrInvalidEpsilon
	}
	return nil
}

// countSink tallies records.
type countSink[T any] struct{ n int }

func (k *countSink[T]) acceptChunk(c []T) { k.n += len(c) }

// count returns the pipeline's output record count; a bare source —
// a slice, or a Partition part, gathered or not — knows it without a
// scan.
func (s *Stream[T]) count() (int, bool) {
	if s.depth == 0 {
		return s.n, true
	}
	parts, ok := scan(*s, 0, false, func(_, _ int) *countSink[T] { return &countSink[T]{} })
	if !ok {
		return 0, false
	}
	return parts[0].n, true
}

// NoisyCount returns the number of records perturbed with Laplace noise
// of scale 1/ε (standard deviation √2/ε, Table 1), charging ε —
// amplified by any accumulated sensitivity scaling — to the budget.
func (s Stream[T]) NoisyCount(epsilon float64) (float64, error) {
	return aggregate(&s, "count", epsilon, nil, func() (float64, bool) {
		n, ok := s.count()
		if !ok {
			return 0, false
		}
		return float64(n) + noise.LaplaceForEpsilon(s.nsrc, 1, epsilon), true
	})
}

// NoisyCount is Stream.NoisyCount over this Queryable's records.
func (q *Queryable[T]) NoisyCount(epsilon float64) (float64, error) {
	return q.Stream().NoisyCount(epsilon)
}

// NoisyCountInt is NoisyCount with the geometric (discrete Laplace)
// mechanism, for analyses that need an integral count. The noise
// magnitude is essentially that of NoisyCount.
func (s Stream[T]) NoisyCountInt(epsilon float64) (int64, error) {
	return aggregate(&s, "countint", epsilon, nil, func() (int64, bool) {
		n, ok := s.count()
		if !ok {
			return 0, false
		}
		return int64(n) + noise.Geometric(s.nsrc, 1, epsilon), true
	})
}

// NoisyCountInt is Stream.NoisyCountInt over this Queryable's records.
func (q *Queryable[T]) NoisyCountInt(epsilon float64) (int64, error) {
	return q.Stream().NoisyCountInt(epsilon)
}

// sumSink accumulates clamped values in stream order — the float64
// additions happen in record order whatever the chunking — and counts
// the records NoisyAverage divides by.
type sumSink[T any] struct {
	f          func(T) float64
	bound, sum float64
	n          int
}

func (k *sumSink[T]) acceptChunk(c []T) {
	sum := k.sum
	for j := range c {
		sum += clamp(k.f(c[j]), k.bound)
	}
	k.sum = sum
	k.n += len(c)
}

// clampedSum scans src into a sumSink.
func clampedSum[T any](s *Stream[T], bound float64, f func(T) float64) (*sumSink[T], bool) {
	parts, ok := scan(*s, 0, false, func(_, _ int) *sumSink[T] { return &sumSink[T]{f: f, bound: bound} })
	if !ok {
		return nil, false
	}
	return parts[0], true
}

// NoisySum sums f over the records after clamping each value to
// [-1, 1], then adds Laplace noise of scale 1/ε (std √2/ε, Table 1).
// The clamping is what bounds the sensitivity: without it one record
// could move the sum arbitrarily and no finite noise would suffice.
func NoisySum[T any](src Streamer[T], epsilon float64, f func(T) float64) (float64, error) {
	return NoisySumScaled(src, epsilon, 1, f)
}

// NoisySumScaled is NoisySum with values clamped to [-bound, bound] and
// noise scaled to match: Laplace of scale bound/ε. It still charges ε;
// the wider clamp trades more noise for less truncation bias, a choice
// the analyst makes from public knowledge of the value range.
func NoisySumScaled[T any](src Streamer[T], epsilon, bound float64, f func(T) float64) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "sum", epsilon, validBound(bound), func() (float64, bool) {
		k, ok := clampedSum(&s, bound, f)
		if !ok {
			return 0, false
		}
		return k.sum + noise.LaplaceForEpsilon(s.nsrc, bound, epsilon), true
	})
}

// NoisyAverage returns the mean of f over the records, clamped to
// [-1, 1], with noise of standard deviation ≈ √8/(εn) (Table 1): the
// mean of n clamped values moves by at most 2/n when one record
// changes, so the Laplace scale is 2/(εn). An empty dataset yields 0
// plus noise at the n=1 scale.
func NoisyAverage[T any](src Streamer[T], epsilon float64, f func(T) float64) (float64, error) {
	return NoisyAverageScaled(src, epsilon, 1, f)
}

// NoisyAverageScaled is NoisyAverage with values clamped to
// [-bound, bound]: noise scale 2·bound/(εn), so the noise standard
// deviation is bound·√8/(εn). The analyst picks the bound from public
// knowledge of the value range (e.g. hop counts ≤ 32); it does not
// depend on the data.
func NoisyAverageScaled[T any](src Streamer[T], epsilon, bound float64, f func(T) float64) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "average", epsilon, validBound(bound), func() (float64, bool) {
		k, ok := clampedSum(&s, bound, f)
		if !ok {
			return 0, false
		}
		if k.n == 0 {
			return noise.LaplaceForEpsilon(s.nsrc, 2*bound, epsilon), true
		}
		n := float64(k.n)
		return k.sum/n + noise.LaplaceForEpsilon(s.nsrc, 2*bound/n, epsilon), true
	})
}

// valuesSink collects f over the pipeline's output.
type valuesSink[T any] struct {
	f    func(T) float64
	vals []float64
}

func (k *valuesSink[T]) acceptChunk(c []T) {
	for j := range c {
		k.vals = append(k.vals, k.f(c[j]))
	}
}

// chooseByRank is the exponential mechanism over the distinct values
// of f: the values are sorted, each distinct value's run of equal
// elements [i, j) is scored, and one value is drawn. Moving one record
// shifts every run boundary by at most one, so rank-based scores have
// sensitivity 1. An empty pipeline yields 0 and draws no noise.
func chooseByRank[T any](s *Stream[T], epsilon float64, f func(T) float64, score func(i, j, n int) float64) (float64, bool) {
	parts, ok := scan(*s, 0, false, func(_, n int) *valuesSink[T] { return &valuesSink[T]{f: f, vals: make([]float64, 0, n)} })
	if !ok {
		return 0, false
	}
	values := parts[0].vals
	if len(values) == 0 {
		return 0, true
	}
	sort.Float64s(values)
	cands := make([]float64, 0, len(values))
	scores := make([]float64, 0, len(values))
	for i := 0; i < len(values); {
		j := i
		for j < len(values) && values[j] == values[i] {
			j++
		}
		cands = append(cands, values[i])
		scores = append(scores, score(i, j, len(values)))
		i = j
	}
	return cands[noise.Exponential(s.nsrc, scores, 1, epsilon)], true
}

// NoisyMedian selects a record value via the exponential mechanism with
// the rank-balance score -|#below - #above|: the returned value
// partitions the input into two sets whose sizes differ by roughly
// √2/ε (Table 1). The candidate set is the distinct values present in
// the data; the mechanism's randomization is what protects each
// record's presence.
func NoisyMedian[T any](src Streamer[T], epsilon float64, f func(T) float64) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "median", epsilon, nil, func() (float64, bool) {
		return chooseByRank(&s, epsilon, f, func(i, j, n int) float64 {
			return -math.Abs(float64(i - (n - j))) // i strictly below, n-j strictly above
		})
	})
}

// NoisyOrderStatistic generalizes NoisyMedian to an arbitrary rank
// fraction in [0, 1], scoring each distinct value by the distance from
// its mid-rank to fraction·n. Useful for the noisy quantiles that
// several trace analyses report.
func NoisyOrderStatistic[T any](src Streamer[T], epsilon, fraction float64, f func(T) float64) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "orderstat", epsilon, validFraction(fraction), func() (float64, bool) {
		return chooseByRank(&s, epsilon, f, func(i, j, n int) float64 {
			return -math.Abs(float64(i+j)/2 - fraction*float64(n))
		})
	})
}
