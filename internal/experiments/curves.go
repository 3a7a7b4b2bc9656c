package experiments

import (
	"math"

	"dptrace/internal/core"
	"dptrace/internal/noise"
)

// curveSource is the noise source of a figure whose curves all measure
// one derived dataset: the figure wraps its records once on an unset
// curveSource, derives the dataset once, and points the source at each
// curve's own seeded stream (use) before measuring that curve. Every
// curve thus draws exactly the stream it drew when it derived the
// dataset for itself, and the one root agent charges the figure's
// curves together (its budget is +Inf, so nothing is refused). The
// derivation runs before the first use, on the unset source: a draw
// there panics, which an aggregation reports as core.ErrInternal.
type curveSource struct{ noise.Source }

// curveQueryable wraps records for a whole figure on an unset
// curveSource.
func curveQueryable[T any](records []T) (*core.Queryable[T], *curveSource) {
	src := &curveSource{}
	q, _ := core.NewQueryable(records, math.Inf(1), src)
	return q, src
}

// use points the source at stream (seed, stream) for the next curve.
func (c *curveSource) use(seed, stream uint64) {
	c.Source = noise.NewSeededSource(seed, stream)
}
