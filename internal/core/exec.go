package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file sets how many workers run a scan. Every transformation has
// one privacy semantics (Table 1) and one body: the record-wise
// operators, the aggregations and the keyed operators, Join and
// GroupJoin among them, run the one chunk loop in stream.go over one
// contiguous source range per worker (keyed.go has the keyed sinks).
// The width is derived, not chosen: a Queryable starts at GOMAXPROCS
// workers, and a scan of fewer than DefaultParallelThreshold source
// records, or of a sink that must see its input in one range, runs on
// one. Tests set other widths with WithExecOptions.
//
// The headline guarantee is determinism: for a fixed input ordering
// and noise seed, any worker count produces byte-identical output
// slices in identical order and identical privacy-budget charges.
// Parallelism is therefore invisible to the privacy accounting —
// agents are constructed from the transformation graph alone,
// transformations never spend budget, and aggregations observe the
// same records in the same order either way. exec_test.go and
// keyed_test.go enforce this against naive references on randomized
// inputs.

// DefaultParallelThreshold is the input size below which execution
// stays on one worker when ExecOptions.Threshold is zero. Splitting a
// small input across goroutines costs more in scheduling and merge
// overhead than the loop itself. Measured on served queries on a 2-CPU
// host (dpserver's BenchmarkServed* at threshold 1 against this one): a
// second worker gains nothing at 10k records, still loses on a filtered
// count at 20k, and gains on every kind that splits at 50k — the
// crossover lies between 20k and 50k.
const DefaultParallelThreshold = 1 << 15

// ExecOptions is the width a Queryable's scans run on. The zero value
// is one worker.
type ExecOptions struct {
	// Workers is the number of source ranges, one per goroutine, that a
	// large scan is cut into. Values <= 1 mean one.
	Workers int
	// Threshold is the source record count from which a scan is cut
	// into Workers ranges; below it one worker runs the scan. Zero means
	// DefaultParallelThreshold.
	Threshold int
}

// active reports whether a scan of n source records runs on more than
// one worker.
func (o ExecOptions) active(n int) bool {
	if o.Workers <= 1 {
		return false
	}
	t := o.Threshold
	if t <= 0 {
		t = DefaultParallelThreshold
	}
	return n >= t
}

// width returns the effective worker count for n records: never more
// workers than records, never fewer than one.
func (o ExecOptions) width(n int) int {
	w := o.Workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// gomaxprocsExec is the width every Queryable starts at: GOMAXPROCS
// workers, above the default threshold.
func gomaxprocsExec() ExecOptions { return ExecOptions{Workers: runtime.GOMAXPROCS(0)} }

// WithExecOptions returns a view of this Queryable whose derived
// pipeline runs on the given width. Records, budget agent, noise source
// and recorder are shared. Tests use it to compare widths; results do
// not depend on it.
func (q *Queryable[T]) WithExecOptions(o ExecOptions) *Queryable[T] {
	out := *q
	out.exec = o
	return &out
}

// parallelExecs counts scans that ran on more than one worker,
// process-wide. Exposed for operational dashboards (dpserver registers
// it as dp_parallel_exec_total); it carries no per-dataset or
// per-record information.
var parallelExecs atomic.Uint64

// ParallelExecutions reports how many scans have run on more than one
// worker since process start.
func ParallelExecutions() uint64 { return parallelExecs.Load() }

// chunk returns the half-open bounds [lo, hi) of chunk i when n items
// are split into w balanced contiguous chunks.
func chunk(n, w, i int) (lo, hi int) {
	base, rem := n/w, n%w
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// WorkerPanic carries a panic that occurred on a parallel-exec worker
// goroutine back to the coordinating goroutine. A panic on a spawned
// goroutine is unrecoverable by the caller's deferred recover — it
// would kill the whole process — so runWorkers recovers it in the
// worker, waits for the remaining workers to drain, and re-raises it
// as a *WorkerPanic on the goroutine that called runWorkers. There the
// aggregation guards (recoverAgg) and the server's HTTP middleware can
// recover it like any single-goroutine panic.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("core: panic in parallel worker: %v", p.Value)
}

// runWorkers runs fn(0) … fn(w-1) on w goroutines and waits for all of
// them. Workers must write to disjoint state (their own chunk of a
// pre-sized slice, their own sink); the WaitGroup provides the
// happens-before edge that makes those writes visible to the caller.
// A panic in any worker is contained: every worker still runs to
// completion (or its own panic), and the first panic is re-raised on
// the calling goroutine as a *WorkerPanic.
func runWorkers(w int, fn func(worker int)) {
	if w == 1 {
		fn(0)
		return
	}
	var (
		wg      sync.WaitGroup
		panicMu sync.Mutex
		wp      *WorkerPanic
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if wp == nil {
						wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
				}
			}()
			fn(i)
		}()
	}
	wg.Wait()
	if wp != nil {
		panic(wp)
	}
}
