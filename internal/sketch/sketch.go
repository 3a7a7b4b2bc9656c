// Package sketch implements mergeable one-pass summaries: a GK-style
// ε-quantile summary and an HLL-style distinct counter, behind the
// engine's sketch-backed aggregations (core.NoisyQuantile,
// core.NoisyDistinctSketch), and a count-min frequency sketch, which
// no aggregation uses.
//
// Two properties matter more here than asymptotic optimality, and
// both are load-bearing for the privacy engine above:
//
//   - Mergeability. Each sketch supports Merge, so the engine can
//     build per-shard sketches in parallel and combine them. Count-min
//     merges by counter addition and the distinct sketch by register
//     maximum — both exact, associative, and commutative. The
//     quantile summary's merge is exact over its tracked rank bounds
//     and commutative by construction; the engine folds shard
//     summaries in a canonical order, so parallel and sequential
//     builds are byte-identical (pinned by tests).
//
//   - Determinism. All hashing is seeded FNV-1a with fixed per-row
//     mixing — never a per-process random seed — and all compaction
//     decisions depend only on sketch contents. The same records in
//     the same order always produce the same sketch bytes, which is
//     what lets the DP layer promise byte-identical noisy outputs
//     across execution strategies.
//
// Sketches are not safe for concurrent mutation; the engine gives
// each worker its own and merges on the coordinating goroutine.
package sketch

// fnv64a is the 64-bit FNV-1a hash of s. It is the deterministic
// process-independent base hash all sketches share.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a fixed bijective scrambler used
// to derive per-row hash functions from the base hash without
// re-reading the key.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
