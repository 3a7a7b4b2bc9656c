package core

import (
	"math"

	"dptrace/internal/noise"
	"dptrace/internal/sketch"
)

// This file adds the sketch-backed aggregations: NoisyQuantile (GK
// rank summary + exponential mechanism), NoisyFrequency (count-min +
// Laplace), and NoisyDistinctSketch (HLL-style registers + Laplace).
// They are what make quantile / heavy-hitter / distinct-count
// analyses practical at trace scale — one pass, O(1/ε_sketch) or
// O(sketch-width) memory, no full sort or giant map.
//
// ε-contract: identical to every other aggregation — ctx checked
// BEFORE agent.Apply (cancelled queries charge zero ε), one Apply of
// the analyst's ε through the pipeline's agent chain (so SelectMany /
// GroupBy sensitivity scaling applies unchanged), one noise draw on
// the released scalar. The sketch is internal state and is never
// released; only the noised output leaves the privacy curtain. See
// DESIGN.md §S32 for the sensitivity calibration of each mechanism.
//
// Determinism: sketch builds are deterministic functions of the
// record sequence. The quantile build partitions the sequence into
// fixed sketchBlock-sized blocks and folds per-block summaries in
// block order, so the parallel build (workers each building their
// own blocks) is byte-identical to the sequential one — the block
// structure, not the worker count, decides every merge. Count-min
// and distinct merges are exact (counter addition / register max), so
// any deterministic sharding yields identical sketches. Both
// properties are pinned by tests.

// sketchBlock is the fixed number of consecutive records per
// quantile-summary block. It is a structural constant of the build —
// never derived from worker count — which is exactly why parallel
// and sequential builds agree to the byte.
const sketchBlock = 1 << 14

// DefaultQuantileAccuracy is the quantile summary's rank-accuracy
// target ε_sketch when the caller passes 0: ranks are off by at most
// 0.5% of n, comfortably below the exponential mechanism's own noise
// at the ε values trace analyses use.
const DefaultQuantileAccuracy = 0.005

// Frequency-sketch geometry: 4 rows × 8192 counters ≈ 256 KiB,
// overcount ≤ ~0.025% of n with probability 1-2^-4 per query.
const (
	freqSketchWidth = 8192
	freqSketchDepth = 4
)

// distinctSketchPrecision gives 2^12 registers ≈ 1.6% relative
// standard error on distinct counts.
const distinctSketchPrecision = 12

// resolveSketchEps applies the default and validates.
func resolveSketchEps(sketchEps float64) (float64, error) {
	if sketchEps == 0 {
		return DefaultQuantileAccuracy, nil
	}
	if !(sketchEps > 0 && sketchEps < 1) || math.IsNaN(sketchEps) {
		return 0, ErrInvalidEpsilon
	}
	return sketchEps, nil
}

// quantileChoose runs the exponential mechanism over the summary's
// retained tuples: candidate i's score is the negated distance from
// the target rank to the tuple's plausible rank span. Adding or
// removing one record moves every rank bound — and hence every
// span endpoint and the target — by at most one, so the score
// sensitivity is 1, the same calibration NoisyMedian and
// NoisyOrderStatistic use for their rank scores. Exactly one noise
// draw (inside noise.Exponential).
func quantileChoose(src noise.Source, qs *sketch.Quantile, fraction, epsilon float64) float64 {
	tuples := qs.Tuples()
	if len(tuples) == 0 {
		return 0
	}
	target := fraction * float64(qs.Count())
	scores := make([]float64, len(tuples))
	for i := range tuples {
		lo := 0.0
		if i > 0 {
			lo = float64(tuples[i-1].RMin)
		}
		hi := float64(tuples[i].RMax)
		d := 0.0
		switch {
		case target < lo:
			d = lo - target
		case target > hi:
			d = target - hi
		}
		scores[i] = -d
	}
	idx := noise.Exponential(src, scores, 1, epsilon)
	return tuples[idx].Value
}

// quantileSink builds the fixed-block quantile fold over its range of
// the pipeline's output: one summary per sketchBlock consecutive
// records, chunks split at block boundaries, the summaries kept in
// block order for NoisyQuantile to fold. Block boundaries depend only
// on output positions, every per-block build is deterministic and the
// fold runs in block order — so neither chunking nor, on a bare source
// cut at block multiples, the worker count changes a byte of the result.
type quantileSink[T any] struct {
	f      func(T) float64
	se     float64
	blocks []*sketch.Quantile
	room   int // records the last block still takes
}

func (k *quantileSink[T]) acceptChunk(c []T) {
	for len(c) > 0 {
		if k.room == 0 {
			k.blocks = append(k.blocks, sketch.NewQuantile(k.se))
			k.room = sketchBlock
		}
		n := min(len(c), k.room)
		blk := k.blocks[len(k.blocks)-1]
		for j := range c[:n] {
			blk.Insert(k.f(c[j]))
		}
		k.room -= n
		c = c[n:]
	}
}

// NoisyQuantile returns a value whose rank is near fraction·n,
// selected by the exponential mechanism over a mergeable one-pass
// rank summary with accuracy target sketchEps (0 means
// DefaultQuantileAccuracy). It is the sketch-backed, trace-scale
// counterpart of NoisyOrderStatistic: O(1/sketchEps) memory instead
// of a full sort, at the cost of candidates being summary tuples
// rather than every distinct value. Charges ε like every aggregation;
// an empty pipeline yields 0 and draws no noise. A NaN from f has no
// rank: the summary drops it, as a Where in front would.
func NoisyQuantile[T any](src Streamer[T], epsilon, fraction, sketchEps float64, f func(T) float64) (float64, error) {
	s := src.Stream()
	se, invalid := resolveSketchEps(sketchEps)
	if err := validFraction(fraction); err != nil {
		invalid = err
	}
	return aggregate(&s, "quantile", epsilon, invalid, func() (float64, bool) {
		// Output positions are source positions only on a bare source;
		// behind a fused stage the blocks must be cut in one ordered pass.
		split := 0
		if s.depth == 0 {
			split = sketchBlock
		}
		parts, ok := scan(s, split, false, func(_, _ int) *quantileSink[T] { return &quantileSink[T]{f: f, se: se} })
		if !ok {
			return 0, false
		}
		merged := sketch.NewQuantile(se)
		for _, p := range parts {
			for _, blk := range p.blocks {
				merged.Merge(blk)
			}
		}
		return quantileChoose(s.nsrc, merged, fraction, epsilon), true
	})
}

// freqSink feeds its range of the pipeline's output into a count-min
// sketch. Counter addition is exact, so per-range sketches merge into
// the sequential build bit for bit.
type freqSink[T any] struct {
	key func(T) string
	c   *sketch.CountMin
}

func (k *freqSink[T]) acceptChunk(c []T) {
	for j := range c {
		k.c.Add(k.key(c[j]))
	}
}

// NoisyFrequency returns the approximate number of records whose key
// equals target, from a one-pass count-min sketch, perturbed with
// Laplace noise of scale 1/ε. One record contributes one increment,
// so the estimate's sensitivity is 1 — the same calibration as
// NoisyCount — and the sketch's (public-geometry) overcount is a
// bias, not a privacy cost. Charges ε like every aggregation.
func NoisyFrequency[T any](src Streamer[T], epsilon float64, key func(T) string, target string) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "frequency", epsilon, nil, func() (float64, bool) {
		parts, ok := scan(s, 1, false, func(_, _ int) *freqSink[T] {
			return &freqSink[T]{key: key, c: sketch.NewCountMin(freqSketchWidth, freqSketchDepth)}
		})
		if !ok {
			return 0, false
		}
		merged := parts[0].c
		for _, p := range parts[1:] {
			// Same geometry by construction; the error is impossible.
			if err := merged.Merge(p.c); err != nil {
				panic(err)
			}
		}
		return float64(merged.Estimate(target)) + noise.LaplaceForEpsilon(s.nsrc, 1, epsilon), true
	})
}

// distinctSink feeds its range of the pipeline's output into HLL-style
// registers; register-max merge is exact.
type distinctSink[T any] struct {
	key func(T) string
	d   *sketch.Distinct
}

func (k *distinctSink[T]) acceptChunk(c []T) {
	for j := range c {
		k.d.Add(k.key(c[j]))
	}
}

// NoisyDistinctSketch returns the approximate number of distinct keys
// among the records, from one-pass HLL-style registers, perturbed
// with Laplace noise of scale 1/ε. The released quantity is a
// distinct count, whose ideal sensitivity is 1 (one record adds or
// removes at most one distinct key); the registers themselves are
// never released. The estimator's deviation from the true distinct
// count is public-geometry bias, like count-min's overcount. Charges
// ε like every aggregation. See DESIGN.md §S32 for the honest caveat
// on estimator-level vs ideal sensitivity.
func NoisyDistinctSketch[T any](src Streamer[T], epsilon float64, key func(T) string) (float64, error) {
	s := src.Stream()
	return aggregate(&s, "distinctcount", epsilon, nil, func() (float64, bool) {
		parts, ok := scan(s, 1, false, func(_, _ int) *distinctSink[T] {
			return &distinctSink[T]{key: key, d: sketch.NewDistinct(distinctSketchPrecision)}
		})
		if !ok {
			return 0, false
		}
		merged := parts[0].d
		for _, p := range parts[1:] {
			if err := merged.Merge(p.d); err != nil {
				panic(err)
			}
		}
		return merged.Estimate() + noise.LaplaceForEpsilon(s.nsrc, 1, epsilon), true
	})
}
