package toolkit

import (
	"dptrace/internal/core"
)

// This file packages the paper's sliding-window workaround (§5.2.2) as
// a reusable primitive. Sliding-window computations are privacy-
// expensive in general — each shifted window re-reads the same records
// — but "onset" detection (an event whose keyed predecessor is more
// than gap earlier) needs only two passes of fixed, disjoint buckets
// of width 2·gap: within a bucket, any predecessor within gap of a
// second-half event necessarily lies in the same bucket, so each
// bucket confirms its onsets locally; shifting by gap covers the first
// halves. Aggregations on the result cost 4× (two Concat'ed GroupBys).

// Onset is one detected event onset: the first record of a burst,
// i.e. a record whose nearest same-key predecessor is more than the
// gap earlier.
type Onset[K comparable] struct {
	Key    K
	TimeUs int64
}

// keyBucket keys the onset-finding GroupBy.
type keyBucket[K comparable] struct {
	key    K
	bucket int64
}

// Onsets derives, behind the privacy curtain, the onsets of keyed
// event streams: records are grouped by (key, time/(2·gap)) in two
// passes shifted by gap, and each group confirms at most one onset in
// its second half. A key's very first record is an onset (no
// predecessor). gapUs must be positive.
func Onsets[T any, K comparable](q *core.Queryable[T], key func(T) K, timeUs func(T) int64, gapUs int64) *core.Queryable[Onset[K]] {
	if gapUs <= 0 {
		panic("toolkit: Onsets gap must be positive")
	}
	pass := func(shift int64) *core.Queryable[Onset[K]] {
		width := 2 * gapUs
		groups := core.GroupBy(q, func(r T) keyBucket[K] {
			return keyBucket[K]{key: key(r), bucket: (timeUs(r) + shift) / width}
		})
		confirmed := groups.Where(func(g core.Group[keyBucket[K], T]) bool {
			return onsetIn(g.Items, timeUs, shift, gapUs) >= 0
		})
		return core.Select(confirmed, func(g core.Group[keyBucket[K], T]) Onset[K] {
			return Onset[K]{Key: g.Key.key, TimeUs: onsetIn(g.Items, timeUs, shift, gapUs)}
		})
	}
	return pass(0).Concat(pass(gapUs))
}

// onsetIn returns the time of the (at most one) onset in the bucket's
// second half, or -1. Two onsets cannot both sit in the second half:
// each needs a gap-long quiet spell and the half is only gap wide.
func onsetIn[T any](items []T, timeUs func(T) int64, shift, gapUs int64) int64 {
	width := 2 * gapUs
	for i := range items {
		t := timeUs(items[i])
		if (t+shift)%width < gapUs {
			continue // first half: the other pass covers it
		}
		isOnset := true
		for j := range items {
			prev := timeUs(items[j])
			if prev < t && t-prev <= gapUs {
				isOnset = false
				break
			}
		}
		if isOnset {
			return t
		}
	}
	return -1
}

// NoisyHistogram counts records into len(buckets) bins (the bucket
// semantics of the CDF estimators: bin i holds values in
// [buckets[i-1], buckets[i]), values ≥ the last edge dropped), each
// count noisy at epsilon. One Partition, so the total privacy cost is
// a single epsilon regardless of resolution — the non-cumulative
// sibling of CDF2.
func NoisyHistogram[T any](q *core.Queryable[T], epsilon float64, value func(T) int64, buckets []int64) ([]float64, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	b := NewBucketer(buckets)
	parts := core.Partition(q, upTo(len(buckets)), func(r T) int { return b.Index(value(r)) })
	out := make([]float64, len(buckets))
	for i := range buckets {
		c, err := parts[i].NoisyCount(epsilon)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
