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

// WorkerPanic carries a panic that occurred on a scan worker goroutine,
// at any width, back to the goroutine that called runWorkers. A panic on
// a spawned goroutine is unrecoverable by the caller's deferred recover
// — it would kill the whole process — so runWorkers recovers it in the
// worker, waits for the remaining workers to drain, and re-raises it as
// a *WorkerPanic on the calling goroutine. There the aggregation guard
// and the server's HTTP middleware can recover it like any
// single-goroutine panic.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("core: panic in parallel worker: %v", p.Value)
}

// runWorkers runs fn(0) … fn(w-1) on w worker goroutines, one worker
// too, and waits for all of them: every chunk loop runs at the engine's
// own stack depth, whatever the caller's (stream.go, "By value, through
// the stack"). Workers must write to disjoint state (their own chunk of
// a pre-sized slice, their own sink); the WaitGroup provides the
// happens-before edge that makes those writes visible to the caller.
// A panic in any worker is contained: every worker still runs to
// completion (or its own panic), and the first panic is re-raised on
// the calling goroutine as a *WorkerPanic.
func runWorkers(w int, fn func(worker int)) {
	var (
		wg sync.WaitGroup
		wp atomic.Pointer[WorkerPanic] // the first panic
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		task := func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					wp.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			// pad sizes the one frame between work and a scan's own frames,
			// and so puts the record temporaries of the served kinds'
			// loops on offsets mod 64 where they measured fast (stream.go,
			// "By value, through the stack"): at one CPU, served hosts read
			// 1.04–1.12x slower without it, and 1.08–1.14x with two words.
			var pad [7]uintptr
			fn(i)
			runtime.KeepAlive(&pad)
		}
		select {
		case idleWorkers <- task:
		default:
			go work(task)
		}
	}
	wg.Wait()
	if p := wp.Load(); p != nil {
		panic(p)
	}
}

// idleWorkers hands a task to a worker that finished its last one;
// runWorkers starts a worker when none waits. Workers live as long as
// the process, as many as scan ranges ever ran at once, so a scan pays
// neither a goroutine start nor a fresh stack's growth.
var idleWorkers = make(chan func())

// work runs task, then each task handed to it while it waits.
func work(task func()) {
	for ; ; task = <-idleWorkers {
		task()
	}
}
