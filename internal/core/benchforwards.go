package core

// Forwards kept ONLY because the frozen bench/ directory calls these
// spellings; check.sh fails any other caller. Delete this file with
// the next `benchmark` PR, when bench/ moves to Where / NoisyQuantile /
// NoisyDistinctSketch.

// Deprecated: use q.Where.
func WhereRecorded[T any](q *Queryable[T], pred func(T) bool) *Queryable[T] { return q.Where(pred) }

// Deprecated: use NoisyQuantile.
func StreamNoisyQuantile[T any](s Stream[T], epsilon, fraction, sketchEps float64, f func(T) float64) (float64, error) {
	return NoisyQuantile(s, epsilon, fraction, sketchEps, f)
}

// Deprecated: use NoisyDistinctSketch.
func StreamNoisyDistinctSketch[T any](s Stream[T], epsilon float64, key func(T) string) (float64, error) {
	return NoisyDistinctSketch(s, epsilon, key)
}
