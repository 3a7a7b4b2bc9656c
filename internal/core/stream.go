package core

import (
	"context"
	"slices"
	"time"

	"dptrace/internal/noise"
	"dptrace/internal/obs"
)

// This file is the engine's one record-wise executor. Where, Select
// and SelectMany — eager on a Queryable, lazy on a Stream — and every
// aggregation run through the same loop (Stream.push): the source is
// cut into chunks of at most chunkSize records, each fused stage
// filters or maps a chunk into its own scratch buffer and hands that
// buffer down, and a sink at the end folds the chunks into whatever
// the caller releases (a count, a clamped sum, a sketch, a
// materialized slice). The context is polled once per chunk, stages
// count records per chunk, and nothing in the loop branches on
// whether a recorder is attached or on how the pipeline was spelled.
//
// Because there is one loop, the engine's hard invariant — values,
// record order, noise draws (same number of Source.Float64 calls in
// the same order), ε-charges and the refusal boundary are identical
// however a pipeline is executed, and however it is written but for a
// filtered NoisyQuantile, whose blocks follow its source (sketchagg.go)
// — holds by construction rather than by several implementations
// agreeing:
//
//   - stages visit records in input order, so floating-point
//     accumulation order never depends on chunking or worker count;
//   - parallel execution (scan) cuts the SOURCE into one contiguous
//     range per worker, runs the same loop over each range into a
//     private sink, and combines the sinks in range order; only sinks
//     whose combination is exact ask for it (concatenation, counter
//     addition, register max, quantile blocks cut at fixed source
//     positions), the order-sensitive float sums always take one range;
//   - each stage hands exactly one chunk down per chunk it receives, so
//     a sink can count source positions by counting chunks (the
//     quantile fold's blocks do);
//   - SelectMany wraps the budget agent in the same newScaleAgent call
//     on either handle, so the ε arithmetic is one float64 expression.
//
// Eager and lazy otherwise differ only in WHEN analyst code runs. A
// Queryable transformation materializes on the spot, so a panicking
// predicate unwinds out of the transformation before any charge. A
// Stream stage runs inside the aggregation's scan, after agent.Apply,
// so the same panic surfaces as ErrInternal with the charge standing —
// never less is charged than the eager spelling would charge
// (DESIGN.md §S27).
//
// By value, through the stack: analyst functions take records by value,
// and the compiler hands a record it cannot assign to registers (a
// 32-byte trace.Header has ten fields, one more than amd64 has integer
// argument registers) over by way of the stack — chunk to temporary,
// temporary to argument slots, 16 bytes at a time — however the loop is
// spelled. When a 16-byte piece straddles a cache line the reload
// stalls on store forwarding, and whether it straddles depends on the
// frame sizes above the loop — this package's scan frames alone, since
// every scan runs on its worker goroutines (runWorkers). So every
// per-record loop here and in the sinks indexes its chunk (f(c[j])),
// and one that reads a record twice copies it to a local first —
// f(c[j]) … g(c[j]) keeps the piece addresses live across the call and
// measures slower. The dpserver BenchmarkServed* rows are the shape
// that shows it; A/B them after touching a scan frame or a loop.
//
// Allocation: building a stage allocates a constant handful of small
// objects; a scan allocates one scratch buffer per stage plus one
// sink, per worker, sized by chunkSize and never by the record count.

// chunkSize is the number of source records the loop hands down at a
// time: large enough that per-chunk costs (one dynamic call per stage,
// one context poll, one counter update) vanish next to the per-record
// work, small enough that a stage's scratch buffer of hosted records
// (32-byte trace.Headers: 16 KB) stays cache-resident. That buffer is
// a small, pointer-free object: the allocator takes it from a size
// class and the collector never scans it. (Chunks of 56-byte
// trace.Packets, payload pointers and all, are 28 KB objects the
// collector scans.)
const chunkSize = 512

// sink consumes a pipeline's output one chunk at a time. A chunk is
// only valid during the call: stages reuse their scratch buffers.
type sink[T any] interface{ acceptChunk(chunk []T) }

// Streamer is either handle on a protected dataset — a *Queryable or
// a Stream — so each aggregation is one function that accepts both.
type Streamer[T any] interface{ Stream() Stream[T] }

// stageCount is one fused stage's profile row for one scan worker.
type stageCount struct {
	op      string
	in, out int
}

// scanRun is one worker's state for one scan: the cancellation flag
// it shares with its siblings and its private per-stage counters.
type scanRun struct {
	cn     *canceler
	counts []stageCount
}

// Stream is a lazily-fused pipeline over a Queryable's records:
// stages accumulate and run, chunk by chunk, when an aggregation or
// Materialize consumes the stream. Construct one with Queryable.Stream.
//
// Streams are values: deriving a stage never mutates its input, so one
// Stream can be the base of several pipelines, consumed concurrently.
type Stream[T any] struct {
	agent Agent
	nsrc  noise.Source
	rec   obs.Recorder
	exec  ExecOptions
	ctx   context.Context
	n     int // source record count: what scan's worker ranges divide
	depth int // number of fused stages
	recs  []T // the source itself while depth == 0, unless it is a lazy source
	// feed pushes source records [lo, hi) through fresh stage state —
	// one scratch buffer per stage — into down (depth > 0), or is the
	// lazy source's own loop over its records (depth == 0).
	feed func(r *scanRun, lo, hi int, down sink[T])
}

// Stream returns the lazy view of this Queryable: same records, budget
// agent, noise source, recorder, execution options and context.
func (q *Queryable[T]) Stream() Stream[T] {
	s := Stream[T]{agent: q.agent, nsrc: q.src, rec: q.rec, exec: q.exec, ctx: q.ctx, n: len(q.records), recs: q.records}
	if q.lazy != nil {
		// The source's own method, not lazySource's promoted one: no
		// wrapper frame between push and the source's loop.
		s.n, s.feed = q.lazy.size(), q.lazy.source.feed
	}
	return s
}

// Stream returns s, making a Stream its own Streamer.
func (s Stream[T]) Stream() Stream[T] { return s }

// push is the loop: it drives source records [lo, hi) through the
// fused stages into down, a chunk at a time, polling the context
// between chunks. A lazy source (a Partition part, a Log view) runs its
// own feed, which cuts its records at the same positions.
func (s Stream[T]) push(r *scanRun, lo, hi int, down sink[T]) {
	if s.feed != nil {
		s.feed(r, lo, hi, down)
		return
	}
	for ; lo < hi && !r.cn.poll(); lo += chunkSize {
		down.acceptChunk(s.recs[lo:min(lo+chunkSize, hi)])
	}
}

// stage is one fused operator at run time: it applies itself to each
// chunk, counts, and hands its output down. apply may build the output
// in *buf, a scratch buffer it can grow — the stage's own, or, when the
// stage feeds a collectSink, the unused tail of the collected slice, so
// that materializing copies each record once, not twice — or, when a
// filter rejects nothing, return the input chunk itself. Chunks are
// therefore read-only to whoever receives them.
type stage[T, U any] struct {
	apply func(in []T, buf *[]U) []U
	down  sink[U]
	into  *collectSink[U] // down, when it collects
	cnt   *stageCount
	buf   []U
}

func (k *stage[T, U]) acceptChunk(in []T) {
	if k.into != nil {
		k.buf = k.into.tail(len(in))
	}
	out := k.apply(in, &k.buf)
	k.cnt.in += len(in)
	k.cnt.out += len(out)
	k.down.acceptChunk(out)
}

// fuse derives the stream that runs op after s.
func fuse[T, U any](s Stream[T], op string, agent Agent, apply func(in []T, buf *[]U) []U) Stream[U] {
	i := s.depth
	return Stream[U]{agent: agent, nsrc: s.nsrc, rec: s.rec, exec: s.exec, ctx: s.ctx, n: s.n, depth: i + 1,
		feed: func(r *scanRun, lo, hi int, down sink[U]) {
			r.counts[i].op = op
			st := &stage[T, U]{apply: apply, down: down, cnt: &r.counts[i]}
			st.into, _ = down.(*collectSink[U])
			s.push(r, lo, hi, st)
		}}
}

// Where fuses a filter stage onto the stream. Filtering does not
// amplify sensitivity (Table 1), so the agent is unchanged. A nil pred
// passes every record: the stage keeps its place (and its row) in the
// pipeline without a pass over the records — on a large source that
// pass is a memory-bound read nothing else would overlap.
func (s Stream[T]) Where(pred func(T) bool) Stream[T] {
	return fuse(s, "where", s.agent, func(in []T, buf *[]T) []T {
		if pred == nil {
			return in
		}
		i := 0
		for i < len(in) && pred(in[i]) {
			i++
		}
		if i == len(in) {
			return in // nothing rejected: the chunk goes down as it came
		}
		out := slices.Grow((*buf)[:0], len(in))[:len(in)]
		n := copy(out, in[:i]) // the passing prefix moves in one copy
		for j := i + 1; j < len(in); j++ {
			v := in[j] // read twice below: see "By value, through the stack" above
			if pred(v) {
				out[n] = v
				n++
			}
		}
		*buf = out[:n]
		return out[:n]
	})
}

// StreamSelect fuses a one-to-one mapping stage onto the stream.
// One-to-one mappings do not amplify sensitivity.
func StreamSelect[T, U any](s Stream[T], f func(T) U) Stream[U] {
	return fuse(s, "select", s.agent, func(in []T, buf *[]U) []U {
		out := slices.Grow((*buf)[:0], len(in))[:len(in)]
		for j := range in {
			out[j] = f(in[j])
		}
		*buf = out
		return out
	})
}

// StreamSelectMany fuses a flattening stage: f maps each record to a
// slice, truncated to at most fanout outputs. One input record can
// influence up to fanout output records, so the stream's agent is
// wrapped in the matching sensitivity scaling; fanout must be ≥ 1.
func StreamSelectMany[T, U any](s Stream[T], fanout int, f func(T) []U) Stream[U] {
	if fanout < 1 {
		panic("core: SelectMany fanout must be >= 1")
	}
	return fuse(s, "selectmany", newScaleAgent(s.agent, float64(fanout)), func(in []T, buf *[]U) []U {
		out := (*buf)[:0]
		for j := range in {
			mapped := f(in[j])
			if len(mapped) > fanout {
				mapped = mapped[:fanout]
			}
			out = append(out, mapped...)
		}
		*buf = out
		return out
	})
}

// run is one pass of the loop: it cuts the source into ranges, pushes
// each through the fused stages into a sink made by mk, and returns
// the sinks in source order with each range's stage counters, or false
// when the context fired mid-pass and the sinks are partial. split says
// where the source may be cut: 0 for sinks that must see the whole
// output in order (one sink, always), k ≥ 1 for sinks that combine
// exactly when each range starts at a multiple of k source records —
// those get one sink per worker once the source is large enough for
// ExecOptions. The ranges depend on the stream alone, so a second pass
// cuts the same ones. mk receives its range's position and source
// record count (a sizing hint).
func run[T any, K sink[T]](s Stream[T], split int, mk func(i, n int) K) ([]K, []scanRun, bool) {
	if split == 0 {
		split = max(s.n, 1)
	}
	units := (s.n + split - 1) / split // ranges are whole numbers of units
	w := 1
	if units > 1 && s.exec.active(s.n) {
		w = s.exec.width(units)
	}
	cn := newCanceler(s.ctx)
	parts := make([]K, w)
	runs := make([]scanRun, w)
	runWorkers(w, func(i int) {
		lo, hi := chunk(units, w, i)
		lo, hi = lo*split, min(hi*split, s.n)
		parts[i] = mk(i, hi-lo)
		runs[i] = scanRun{cn: cn, counts: make([]stageCount, s.depth)}
		s.push(&runs[i], lo, hi, parts[i])
	})
	return parts, runs, !cn.abandoned()
}

// workersTag is OpDone's tag for an operator that ran on w ranges: the
// worker count, or 0 for sequential.
func workersTag(w int) int {
	if w > 1 {
		return w
	}
	return 0
}

// scan is run plus the bookkeeping of a pass that stands for itself (a
// keyed operator's second pass, over the same ranges, calls run): it
// counts a parallel execution and, on a recorded pipeline, emits one
// OpDone per fused stage, in pipeline order. The stages ran
// interleaved, so their rows carry zero duration and the
// obs.FusedWorkers tag and the pass's wall time lands on the row of the
// aggregation or keyed operator that consumed it — except under
// Materialize (mat), which has no such row: there the last stage
// carries the wall time and the worker count, so an eager
// single-operator transformation reports exactly what it cost.
func scan[T any, K sink[T]](s Stream[T], split int, mat bool, mk func(i, n int) K) ([]K, bool) {
	start := opStart(s.rec)
	parts, runs, ok := run(s, split, mk)
	if !ok {
		return nil, false
	}
	if len(parts) > 1 {
		parallelExecs.Add(1)
	}
	if s.rec != nil {
		for st, c := range runs[0].counts {
			for _, other := range runs[1:] {
				c.in += other.counts[st].in
				c.out += other.counts[st].out
			}
			if mat && st == s.depth-1 {
				s.rec.OpDone(c.op, time.Since(start), c.in, c.out, workersTag(len(parts)))
			} else {
				s.rec.OpDone(c.op, 0, c.in, c.out, obs.FusedWorkers)
			}
		}
	}
	return parts, true
}

// collectSink materializes a range of the pipeline's output.
type collectSink[T any] struct{ out []T }

func (k *collectSink[T]) acceptChunk(c []T) { k.out = append(k.out, c...) }

// tail returns the unused capacity behind the collected records, grown
// to hold at least n more. A chunk built there is accepted in place:
// the append above copies it onto itself.
func (k *collectSink[T]) tail(n int) []T {
	k.out = slices.Grow(k.out, n)
	return k.out[len(k.out):len(k.out):cap(k.out)]
}

// empty is the Queryable a transformation of s returns before it has
// records: under agent, with the stream's noise source, recorder,
// execution options and context.
func empty[T, U any](s Stream[T], agent Agent) *Queryable[U] {
	return &Queryable[U]{records: []U{}, agent: agent, src: s.nsrc, rec: s.rec, exec: s.exec, ctx: s.ctx}
}

// Materialize runs the pipeline once and returns its records as an
// ordinary Queryable carrying the stream's agent, noise source,
// recorder, execution options and context — how the eager Queryable
// transformations execute, and the way from a fused chain into the
// operators that take a *Queryable (Concat, the joins and semi-joins).
// Each worker range collects into a buffer pre-sized to its source
// range, as the eager operators always have. On a context that is
// already cancelled, or fires mid-scan, the result is empty — harmless,
// because the only way to observe it is an aggregation, which will
// refuse.
func (s Stream[T]) Materialize() *Queryable[T] {
	out := empty[T, T](s, s.agent)
	if ctxErr(s.ctx) != nil {
		return out
	}
	if s.depth == 0 && s.feed == nil {
		out.records = s.recs
		return out
	}
	if recs, _, ok := s.collect(); ok {
		out.records = recs
	}
	return out
}

// collect runs the pipeline once into one slice, and says on how many
// ranges it ran.
func (s Stream[T]) collect() (recs []T, workers int, ok bool) {
	parts, ok := scan(s, 1, true, func(_, n int) *collectSink[T] { return &collectSink[T]{out: make([]T, 0, n)} })
	if !ok {
		return nil, 0, false
	}
	if len(parts) == 1 {
		return parts[0].out, 1, true
	}
	chunks := make([][]T, len(parts))
	for i, p := range parts {
		chunks[i] = p.out
	}
	return mergeChunks(chunks), len(parts), true
}

// mergeChunks concatenates per-range output slices in range order.
func mergeChunks[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
