package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
//     typically a bug in an analyst-supplied function, re-raised from
//     the scan's workers as a *WorkerPanic — as ErrInternal: both lie
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
// scan. Counter addition is exact, so the source may be cut anywhere.
func (s *Stream[T]) count() (int, bool) {
	if s.depth == 0 {
		return s.n, true
	}
	parts, ok := scan(*s, 1, false, func(_, _ int) *countSink[T] { return &countSink[T]{} })
	if !ok {
		return 0, false
	}
	n := 0
	for _, p := range parts {
		n += p.n
	}
	return n, true
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

// validDomain refuses an empty rank domain, or one 2^53 or more wide,
// where a run width would not be an exact float64.
func validDomain(lo, hi int64) error {
	if lo > hi || uint64(hi)-uint64(lo) >= 1<<53 {
		return ErrInvalidEpsilon
	}
	return nil
}

// rankRun is a run of integers [lo, lo+width) that share one score.
type rankRun struct{ lo, width int64 }

// rankRuns cuts [lo, hi] into runs of equal score over sorted, the
// clamped values: each distinct value, and each gap around them. An
// integer with i values below it and n-j above scores score(i, j, n),
// sensitivity 1; a run of w integers weighs w·exp(ε·score/2), held in
// log space as score + 2·ln(w)/ε for noise.Exponential.
func rankRuns(sorted []int64, lo, hi int64, epsilon float64, score func(i, j, n int) float64) (runs []rankRun, scores []float64) {
	n, distinct := len(sorted), 0
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	runs, scores = make([]rankRun, 0, 2*distinct+1), make([]float64, 0, 2*distinct+1)
	next := lo // the first integer no run holds yet
	for i := 0; i < n; {
		v, j := sorted[i], i
		for j < n && sorted[j] == v {
			j++
		}
		if v > next {
			runs = append(runs, rankRun{next, v - next})
			scores = append(scores, score(i, i, n)+2*math.Log(float64(v-next))/epsilon)
		}
		runs, scores = append(runs, rankRun{v, 1}), append(scores, score(i, j, n))
		next, i = v+1, j
	}
	if n == 0 || sorted[n-1] < hi {
		runs = append(runs, rankRun{next, hi - next + 1})
		scores = append(scores, score(n, n, n)+2*math.Log(float64(hi-next+1))/epsilon)
	}
	return runs, scores
}

// rankSink collects f, clamped into [lo, hi], over its range of the
// pipeline's output.
type rankSink[T any] struct {
	f      func(T) int64
	lo, hi int64
	vals   []int64
}

func (k *rankSink[T]) acceptChunk(c []T) {
	for j := range c {
		k.vals = append(k.vals, min(max(k.f(c[j]), k.lo), k.hi))
	}
}

// chooseRank is the exponential mechanism over every integer of [lo,
// hi] under a rank score: a first draw picks a run (O(distinct values)
// past the sort, not O(hi - lo)), a second an integer inside it. Two
// draws whatever the data, the empty input included.
func chooseRank[T any](s *Stream[T], epsilon float64, lo, hi int64, f func(T) int64, score func(i, j, n int) float64) (int64, bool) {
	parts, ok := scan(*s, 1, false, func(_, n int) *rankSink[T] {
		return &rankSink[T]{f: f, lo: lo, hi: hi, vals: make([]int64, 0, n)}
	})
	if !ok {
		return 0, false
	}
	values := parts[0].vals
	for _, p := range parts[1:] {
		values = append(values, p.vals...)
	}
	slices.Sort(values)
	runs, scores := rankRuns(values, lo, hi, epsilon, score)
	r := runs[noise.Exponential(s.nsrc, scores, 1, epsilon)]
	return r.lo + min(int64(s.nsrc.Float64()*float64(r.width)), r.width-1), true
}

// NoisyMedian releases an integer of [lo, hi] by the exponential
// mechanism with the rank-balance score -|#below - #above|: the value
// splits the input into sets whose sizes differ by roughly √2/ε (Table
// 1). The domain comes from public knowledge (a packet length is in
// [0, 65535]), never from the data; f's values clamp into it, and lo >
// hi or a span of 2^53 or more is refused before the charge.
func NoisyMedian[T any](src Streamer[T], epsilon float64, lo, hi int64, f func(T) int64) (int64, error) {
	s := src.Stream()
	return aggregate(&s, "median", epsilon, validDomain(lo, hi), func() (int64, bool) {
		return chooseRank(&s, epsilon, lo, hi, f, func(i, j, n int) float64 {
			return -math.Abs(float64(i - (n - j))) // i strictly below, n-j strictly above
		})
	})
}

// NoisyOrderStatistic generalizes NoisyMedian to an arbitrary rank
// fraction in [0, 1], scoring each integer of [lo, hi] by the distance
// from its mid-rank to fraction·n. Useful for the noisy quantiles that
// several trace analyses report.
func NoisyOrderStatistic[T any](src Streamer[T], epsilon, fraction float64, lo, hi int64, f func(T) int64) (int64, error) {
	s := src.Stream()
	return aggregate(&s, "orderstat", epsilon, cmp.Or(validFraction(fraction), validDomain(lo, hi)), func() (int64, bool) {
		return chooseRank(&s, epsilon, lo, hi, f, func(i, j, n int) float64 {
			return -math.Abs(float64(i+j)/2 - fraction*float64(n))
		})
	})
}
