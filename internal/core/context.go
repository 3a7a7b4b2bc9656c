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
// Check placement: every operator checks once at entry; the chunk loop
// (stream.go) polls between chunks, which covers every record-wise scan
// and every keyed pass on any worker count; the sharded join strategies
// poll their canceler every cancelStride records.

// ErrCanceled is returned by aggregations whose context was cancelled
// or past its deadline. It always wraps the context's own error, so
// errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) also hold. Cancelled before
// the aggregation fired, no budget was consumed; cancelled during its
// scan, the charge stands (the budget agent's spent counter says
// which).
var ErrCanceled = errors.New("core: query canceled")

// cancelStride is how many records a sharded-join worker processes
// between context checks: large enough that the mask-and-compare is
// noise next to the per-record work, small enough that cancellation
// lands within microseconds on commodity cores.
const cancelStride = 1 << 13

// WithContext returns a view of this Queryable whose derived pipeline
// observes ctx: transformations stop early and aggregations refuse —
// without charging — once ctx is cancelled or past its deadline.
// Records, budget agent, noise source, recorder, and execution
// strategy are shared; a nil ctx restores the never-cancelled
// default.
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

// canceler coordinates cooperative cancellation across workers. A
// sharded-join worker polls once per record with its loop index; the
// context itself is consulted only at cancelStride boundaries, and in
// between workers observe each other's verdict through a shared flag,
// so the per-record cost is a nil check and a mask compare. The chunk
// loop polls once per chunk with index 0. A nil canceler (nil context)
// never cancels.
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

// poll reports whether the worker at loop index i should abandon its
// chunk.
func (c *canceler) poll(i int) bool {
	if c == nil {
		return false
	}
	if i&(cancelStride-1) != 0 {
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
