package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the execution-strategy layer of the engine. Every
// transformation has one privacy semantics (Table 1); ExecOptions says
// how many workers may execute it. The record-wise operators, the
// aggregations and the keyed operators run the one chunk loop in
// stream.go over one source range per worker (keyed.go has the keyed
// sinks); Join and GroupJoin have sharded strategies in parallel.go
// beside their sequential loops. A Queryable's default is one worker;
// dpserver runs every query on GOMAXPROCS workers at the default
// threshold.
//
// The headline guarantee is determinism: for a fixed input ordering
// and noise seed, any worker count produces byte-identical output
// slices in identical order and identical privacy-budget charges.
// Parallelism is therefore invisible to the privacy accounting —
// agents are constructed from the transformation graph alone,
// transformations never spend budget, and aggregations observe the
// same records in the same order either way. exec_test.go and
// keyed_test.go (against naive references) and parallel_test.go
// (sequential vs sharded joins) enforce this on randomized inputs.

// DefaultParallelThreshold is the input size below which execution
// stays on one worker when ExecOptions.Threshold is zero. Splitting a
// small input across goroutines costs more in scheduling and merge
// overhead than the loop itself. Measured on served queries on a 2-CPU
// host (dpserver's BenchmarkServed* at threshold 1 against this one): a
// second worker gains nothing at 10k records, still loses on a filtered
// count at 20k, and gains on every kind that splits at 50k — the
// crossover lies between 20k and 50k.
const DefaultParallelThreshold = 1 << 15

// ExecOptions selects the execution strategy for a Queryable's
// transformations. The zero value means sequential execution.
type ExecOptions struct {
	// Workers is the number of concurrent workers for the parallel
	// strategies. Values <= 1 select the sequential loops.
	Workers int
	// Threshold is the minimum input record count before the parallel
	// strategy engages; below it the sequential loop runs even when
	// Workers > 1. Zero means DefaultParallelThreshold.
	Threshold int
}

// active reports whether the parallel strategy should run for an input
// of n records.
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

// WithParallelism returns a view of this Queryable whose derived
// pipeline uses workers concurrent workers for large transformations
// (workers <= 0 means runtime.GOMAXPROCS(0)). Records, budget agent,
// noise source and recorder are shared; only the execution strategy
// differs. Inputs smaller than the threshold (DefaultParallelThreshold
// unless overridden with WithExecOptions) still run sequentially.
func (q *Queryable[T]) WithParallelism(workers int) *Queryable[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := *q
	out.exec.Workers = workers
	return &out
}

// WithExecOptions returns a view of this Queryable with the full
// execution configuration applied; see WithParallelism.
func (q *Queryable[T]) WithExecOptions(o ExecOptions) *Queryable[T] {
	out := *q
	out.exec = o
	return &out
}

// Exec returns this Queryable's execution configuration.
func (q *Queryable[T]) Exec() ExecOptions { return q.exec }

// defaultExec is the process-wide execution configuration picked up by
// NewQueryable/NewQueryableFor, mirroring defaultRecorder: it exists
// for whole-program opt-in (cmd/experiments -parallel) where threading
// options through every analysis would be noise.
var defaultExec atomic.Value // of ExecOptions

// SetDefaultExecOptions installs the execution configuration future
// NewQueryable and NewQueryableFor calls inherit. The zero value turns
// parallel execution back off. Existing Queryables are unaffected.
func SetDefaultExecOptions(o ExecOptions) {
	defaultExec.Store(o)
}

// DefaultExecOptions returns the configuration set by
// SetDefaultExecOptions (zero value when unset).
func DefaultExecOptions() ExecOptions {
	if o, ok := defaultExec.Load().(ExecOptions); ok {
		return o
	}
	return ExecOptions{}
}

// parallelExecs counts transformations that took a parallel strategy,
// process-wide. Exposed for operational dashboards (dpserver registers
// it as dp_parallel_exec_total); it carries no per-dataset or
// per-record information.
var parallelExecs atomic.Uint64

// ParallelExecutions reports how many transformations have executed
// under a parallel strategy since process start.
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
// pre-sized slice, their own shard); the WaitGroup provides the
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
