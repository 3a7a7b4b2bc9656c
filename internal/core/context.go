package core

import (
	"context"
	"errors"
	"sync/atomic"
)

// This file threads context.Context through the engine so a query
// whose caller has gone away — a cancelled HTTP request, an expired
// deadline — stops burning CPU instead of running to completion for
// nobody.
//
// The contract matters more than the mechanism: cancellation NEVER
// under-counts. Every aggregation checks its context BEFORE charging
// the budget agent, so a query cancelled before its aggregation fires
// charges zero ε and returns ErrCanceled. Once the charge is applied
// the aggregation's scan still stops when the context fires — a
// deadline must bound a 180 ms quantile build — and returns ErrCanceled
// with the charge standing; a scan that finished keeps its answer
// whatever the context does afterwards. Transformations on a cancelled
// context short-circuit to empty outputs — harmless, because the only
// way to observe a transformation's output is an aggregation, which
// will refuse.
//
// Check placement: every operator checks once at entry, and the chunk
// loop (stream.go) polls between chunks. Every scan runs that loop —
// the record-wise operators, the aggregations and every keyed pass,
// Join's and GroupJoin's included — so a context that fires stops any
// of them within a chunk per worker, at any width.

// ErrCanceled is returned by aggregations whose context was cancelled
// or past its deadline. It always wraps the context's own error, so
// errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) also hold. Cancelled before
// the aggregation fired, no budget was consumed; cancelled during its
// scan, the charge stands (the budget agent's spent counter says
// which).
var ErrCanceled = errors.New("core: query canceled")

// WithContext returns a view of this Queryable whose derived pipeline
// observes ctx: transformations stop early and aggregations refuse —
// without charging — once ctx is cancelled or past its deadline.
// Records, budget agent, noise source, recorder, and width are
// shared; a nil ctx restores the never-cancelled default.
func (q *Queryable[T]) WithContext(ctx context.Context) *Queryable[T] {
	out := *q
	out.ctx = ctx
	return &out
}

// Context returns the context attached with WithContext, or nil.
func (q *Queryable[T]) Context() context.Context { return q.ctx }

// ctxErr reports the context's error, tolerating the nil context that
// un-contextualized Queryables carry.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// canceledErr wraps a non-nil context error in ErrCanceled.
func canceledErr(cause error) error {
	return errors.Join(ErrCanceled, cause)
}

// combineCtx picks the context for a binary transformation's output,
// mirroring combineRec: the left input's when set, else the right's.
func combineCtx(a, b context.Context) context.Context {
	if a != nil {
		return a
	}
	return b
}

// canceler coordinates cooperative cancellation across the workers of
// one scan: each polls it once per chunk, and the first to see the
// context fire sets a flag its siblings see. A nil canceler (nil
// context) never cancels.
type canceler struct {
	ctx  context.Context
	stop atomic.Bool
}

func newCanceler(ctx context.Context) *canceler {
	if ctx == nil {
		return nil
	}
	return &canceler{ctx: ctx}
}

// poll reports whether the worker should abandon its range.
func (c *canceler) poll() bool {
	if c == nil {
		return false
	}
	if c.stop.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.stop.Store(true)
		return true
	}
	return false
}

// abandoned reports whether any worker bailed out mid-chunk, i.e. the
// per-worker outputs are partial and must be discarded. A run that
// completed before the context fired keeps its (complete, valid)
// result; the aggregation-side gate still refuses to charge for it.
func (c *canceler) abandoned() bool {
	return c != nil && c.stop.Load()
}
