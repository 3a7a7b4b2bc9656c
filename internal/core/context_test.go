package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dptrace/internal/noise"
)

// The cancellation contract: a query cancelled before its aggregation
// fires charges zero ε and surfaces ErrCanceled wrapping the context's
// own error; one cancelled during the aggregation's scan stops within
// a chunk and surfaces the same error with the charge standing; a live
// (or nil) context leaves results byte-identical to an
// un-contextualized pipeline.

func TestCancelBeforeAggregationChargesZero(t *testing.T) {
	records := make([]float64, 1000)
	for i := range records {
		records[i] = float64(i % 10)
	}
	q, root := NewQueryable(records, 5.0, noise.NewSeededSource(1, 2))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	filtered := q.WithContext(ctx).Where(func(v float64) bool { return v > 2 })
	if _, err := filtered.NoisyCount(1.0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("NoisyCount on cancelled ctx: err = %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled should wrap context.Canceled, got %v", err)
	}
	if spent := root.Spent(); spent != 0 {
		t.Fatalf("cancelled query charged ε = %v, want 0", spent)
	}

	// Every aggregation honors the gate, on either handle.
	id := func(v float64) float64 { return v }
	key := func(v float64) string { return "k" }
	for name, h := range map[string]Streamer[float64]{"queryable": filtered, "stream": q.WithContext(ctx).Stream().Where(func(v float64) bool { return v > 2 })} {
		gated := map[string]func() error{
			"NoisyCount":          func() error { _, err := h.Stream().NoisyCount(1.0); return err },
			"NoisyCountInt":       func() error { _, err := h.Stream().NoisyCountInt(1.0); return err },
			"NoisySum":            func() error { _, err := NoisySum(h, 1.0, id); return err },
			"NoisyAverage":        func() error { _, err := NoisyAverage(h, 1.0, id); return err },
			"NoisyMedian":         func() error { _, err := NoisyMedian(h, 1.0, id); return err },
			"NoisyOrderStatistic": func() error { _, err := NoisyOrderStatistic(h, 1.0, 0.25, id); return err },
			"NoisyQuantile":       func() error { _, err := NoisyQuantile(h, 1.0, 0.5, 0, id); return err },
			"NoisyFrequency":      func() error { _, err := NoisyFrequency(h, 1.0, key, "k"); return err },
			"NoisyDistinctSketch": func() error { _, err := NoisyDistinctSketch(h, 1.0, key); return err },
		}
		for agg, run := range gated {
			if err := run(); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s on a %s: err = %v, want ErrCanceled wrapping context.Canceled", agg, name, err)
			}
		}
	}
	if spent := root.Spent(); spent != 0 {
		t.Fatalf("after all refused aggregations, ε = %v, want 0", spent)
	}
	// Materialize on a cancelled context short-circuits to empty, like
	// every transformation.
	if out := q.WithContext(ctx).Stream().Where(func(float64) bool { return true }).Materialize(); len(out.records) != 0 {
		t.Fatalf("Materialize on cancelled ctx produced %d records, want 0", len(out.records))
	}
}

func TestDeadlineExceededChargesZero(t *testing.T) {
	q, root := NewQueryable([]int{1, 2, 3}, 1.0, noise.NewSeededSource(3, 4))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	<-ctx.Done()

	_, err := q.WithContext(ctx).NoisyCount(0.5)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if root.Spent() != 0 {
		t.Fatalf("expired-deadline query charged ε = %v, want 0", root.Spent())
	}
}

func TestContextPropagatesThroughDerivedPipeline(t *testing.T) {
	records := make([]int, 100)
	q, root := NewQueryable(records, 10.0, noise.NewSeededSource(5, 6))
	ctx, cancel := context.WithCancel(context.Background())

	// The context attaches at the head; every derived stage inherits it.
	pipeline := SelectMany(
		Distinct(q.WithContext(ctx).Where(func(int) bool { return true }),
			func(v int) int { return v }),
		2, func(v int) []int { return []int{v, v} })
	if pipeline.Context() != ctx {
		t.Fatalf("derived Queryable lost its context")
	}

	cancel()
	if _, err := pipeline.NoisyCount(1.0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if root.Spent() != 0 {
		t.Fatalf("ε = %v, want 0", root.Spent())
	}
}

func TestCancelledTransformationsShortCircuit(t *testing.T) {
	records := []int{1, 2, 3, 4, 5}
	q, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(7, 8))
	other, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(9, 10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cq := q.WithContext(ctx)

	calls := 0
	count := func(v int) int { calls++; return v }
	_ = cq.Where(func(v int) bool { count(v); return true })
	_ = Select(cq, count)
	_ = SelectMany(cq, 1, func(v int) []int { count(v); return nil })
	_ = Distinct(cq, count)
	_ = GroupBy(cq, count)
	_ = Join(cq, other, count, func(v int) int { return v }, func(a, b int) int { return a })
	_ = GroupJoin(cq, other, count, func(v int) int { return v }, func(k int, a, b []int) int { return k })
	_ = Intersect(cq, other, count, func(v int) int { return v })
	_ = Except(cq, other, count, func(v int) int { return v })
	_ = cq.Concat(other)
	parts := Partition(cq, []int{1, 2}, count)
	if calls != 0 {
		t.Fatalf("cancelled transformations evaluated user functions %d times, want 0", calls)
	}
	if len(parts) != 2 {
		t.Fatalf("cancelled Partition returned %d parts, want 2", len(parts))
	}
	if _, err := parts[1].NoisyCount(1.0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("partition part should inherit cancelled ctx, err = %v", err)
	}
}

// TestCancelMidScan: the one loop polls the context between chunks, so
// a context that fires during a scan stops it within a chunk per worker
// — on a bare slice and on a fused chain, on one worker and on four. A
// scan that belongs to an aggregation has already charged: ErrCanceled
// with the charge standing. A scan that belongs to an eager
// transformation has not: its (empty) output reaches an aggregation
// that refuses at zero ε.
func TestCancelMidScan(t *testing.T) {
	n := DefaultParallelThreshold * 2
	records := make([]float64, n)
	for _, workers := range []int{1, 4} {
		for _, fused := range []bool{false, true} {
			for _, eager := range []bool{false, true} {
				label := fmt.Sprintf("workers=%d fused=%v eager=%v", workers, fused, eager)
				q, root := NewQueryable(records, 1.0, noise.NewSeededSource(11, 12))
				ctx, cancel := context.WithCancel(context.Background())
				q = q.WithContext(ctx).WithExecOptions(ExecOptions{Workers: workers})

				// fired is the count once cancel has returned: until then a
				// sibling's poll may still find the context live.
				var seen, fired atomic.Int64
				tick := func() {
					if seen.Add(1) == int64(n/4) {
						cancel()
						fired.Store(seen.Load())
					}
				}
				var err error
				wantSpent := 0.5
				switch {
				case eager:
					// The transformation's own scan is the one cut short.
					var out *Queryable[float64]
					if fused {
						out = Select(q.Where(func(float64) bool { return true }), func(v float64) float64 { tick(); return v })
					} else {
						out = q.Where(func(float64) bool { tick(); return true })
					}
					if len(out.records) != 0 {
						t.Errorf("%s: abandoned transformation kept %d records", label, len(out.records))
					}
					_, err = out.NoisyCount(0.5)
					wantSpent = 0
				case fused:
					st := q.Stream().Where(func(float64) bool { tick(); return true })
					_, err = NoisyFrequency(st, 0.5, func(float64) string { return "k" }, "k")
				default:
					_, err = NoisyFrequency(q, 0.5, func(float64) string { tick(); return "k" }, "k")
				}
				cancel()
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Errorf("%s: err = %v, want ErrCanceled wrapping context.Canceled", label, err)
				}
				if got := root.Spent(); got != wantSpent {
					t.Errorf("%s: ε = %v, want %v", label, got, wantSpent)
				}
				if got, at := seen.Load(), fired.Load(); got > at+int64(workers*chunkSize) {
					t.Errorf("%s: scan ran on for %d records after the context fired at %d (limit %d)", label, got-at, at, workers*chunkSize)
				}
			}
		}
	}
}

// TestCancelMidKeyedPass: the keyed operators' passes are scans of the
// same loop, so the context stops them within a chunk per worker too —
// with one worker as with four, and in either input's pass of a join.
// An abandoned pass of a transformation yields the empty result the
// pre-cancelled path returns, and the aggregation behind it refuses at
// zero ε to every input. A Partition's deferred gather belongs to the aggregation that
// scans a part, which has charged: ErrCanceled with the charge
// standing — and the partition as it was, for a later scan under a live
// context to gather.
func TestCancelMidKeyedPass(t *testing.T) {
	n := DefaultParallelThreshold * 2
	records := make([]float64, n)
	for i := range records {
		records[i] = float64(i % 8)
	}
	keys := []int{0, 1, 2, 3, 4, 5, 6, 7}
	group := func(v float64) int { return int(v) }
	share := func(v float64) float64 { return v / 8 }
	for _, workers := range []int{1, 4} {
		for _, op := range []string{"GroupBy", "GroupFold", "Distinct", "Partition", "gather", "Join a", "Join b", "GroupJoin a", "GroupJoin b"} {
			label := fmt.Sprintf("%s workers=%d", op, workers)
			q, root := NewQueryable(records, 1.0, noise.NewSeededSource(11, 12))
			ctx, cancel := context.WithCancel(context.Background())
			q = q.WithContext(ctx).WithExecOptions(ExecOptions{Workers: workers})

			// fired is the count once cancel has returned: until then a
			// sibling's poll may still find the context live.
			var seen, fired atomic.Int64
			fireAt := int64(n / 4)
			tick := func() {
				if seen.Add(1) == fireAt {
					cancel()
					fired.Store(seen.Load())
				}
			}
			key := func(v float64) int { tick(); return group(v) }
			var (
				kept      int // records the abandoned transformation handed on
				count     func(eps float64) (float64, error)
				wantSpent float64
				part      *Queryable[float64]
				other     *RootAgent // a join's right input's
			)
			switch op {
			case "GroupBy":
				g := GroupBy(q, key)
				kept, count = len(g.records), g.NoisyCount
			case "GroupFold":
				g := GroupFold(q, key, func(acc int, v float64) int { return acc + int(v) }, func(a, b int) int { return a + b })
				kept, count = len(g.records), g.NoisyCount
			case "Distinct":
				d := Distinct(q, key)
				kept, count = len(d.records), d.NoisyCount
			case "Partition":
				parts := Partition(q, keys, key)
				for _, p := range parts {
					kept += p.Stream().n
				}
				count = parts[1].NoisyCount
			case "gather":
				// The index pass sees every record; the context fires a
				// quarter of the way into the pass that gathers them.
				fireAt = int64(n + n/4)
				st := q.Stream().Where(func(float64) bool { tick(); return true })
				part = Partition(st, keys, group)[1]
				count = func(eps float64) (float64, error) { return NoisySum(part, eps, share) }
				wantSpent = 0.5
			default: // a join whose context fires in the index pass of input a or b
				var b *Queryable[float64]
				b, other = NewQueryable(records, 1.0, noise.NewSeededSource(13, 14))
				keyA, keyB := key, group
				if strings.HasSuffix(op, "b") {
					keyA, keyB = group, key
				}
				if strings.HasPrefix(op, "GroupJoin") {
					j := GroupJoin(q, b, keyA, keyB, func(k int, _, _ []float64) int { return k })
					kept, count = len(j.records), j.NoisyCount
				} else {
					j := Join(q, b, keyA, keyB, func(v, _ float64) float64 { return v })
					kept, count = len(j.records), j.NoisyCount
				}
			}
			if kept != 0 {
				t.Errorf("%s: abandoned pass kept %d records", label, kept)
			}
			_, err := count(0.5)
			cancel()
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want ErrCanceled wrapping context.Canceled", label, err)
			}
			if got := root.Spent(); got != wantSpent {
				t.Errorf("%s: ε = %v, want %v", label, got, wantSpent)
			}
			if other != nil && other.Spent() != 0 {
				t.Errorf("%s: ε = %v charged to the join's other input, want 0", label, other.Spent())
			}
			if got, at := seen.Load(), fired.Load(); got > at+int64(workers*chunkSize) {
				t.Errorf("%s: pass ran on for %d records after the context fired at %d (limit %d)", label, got-at, at, workers*chunkSize)
			}
			if part != nil {
				if got := part.WithContext(context.Background()).Where(func(float64) bool { return true }).records; len(got) != n/8 {
					t.Errorf("%s: after the abandoned gather the part holds %d records under a live context, want %d", label, len(got), n/8)
				}
			}
		}
	}
}

// TestCancelMidScanOrderedSink: the aggregations that fold in order
// (one sink, never split across workers) stop the same way.
func TestCancelMidScanOrderedSink(t *testing.T) {
	n := 50 * chunkSize
	q, root := NewQueryable(make([]float64, n), 1.0, noise.NewSeededSource(11, 12))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := NoisySum(q.WithContext(ctx), 0.5, func(float64) float64 {
		if seen++; seen == n/2 {
			cancel()
		}
		return 1
	})
	if !errors.Is(err, ErrCanceled) || root.Spent() != 0.5 {
		t.Fatalf("err = %v, ε = %v; want ErrCanceled with the 0.5 charge standing", err, root.Spent())
	}
	if seen > n/2+chunkSize {
		t.Fatalf("scan ran on for %d records after the context fired", seen-n/2)
	}
}

func TestLiveContextKeepsResultsIdentical(t *testing.T) {
	n := DefaultParallelThreshold + 100
	records := make([]float64, n)
	for i := range records {
		records[i] = float64(i % 97)
	}
	pipeline := func(q *Queryable[float64]) (float64, error) {
		f := q.Where(func(v float64) bool { return v > 10 })
		g := GroupBy(f, func(v float64) float64 { return math.Mod(v, 7) })
		return g.NoisyCount(0.25)
	}

	plain, _ := NewQueryable(records, 1.0, noise.NewSeededSource(21, 22))
	vPlain, err := pipeline(plain)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, _ := NewQueryable(records, 1.0, noise.NewSeededSource(21, 22))
	vCtx, err := pipeline(withCtx.WithContext(context.Background()).WithExecOptions(ExecOptions{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if vPlain != vCtx {
		t.Fatalf("live context changed result: %v != %v", vCtx, vPlain)
	}
}

// TestChargedAggregationCompletes pins the other half of the
// invariant: once ε is charged the aggregation returns a value even if
// the context fires immediately after; the spend is real either way.
func TestChargedAggregationCompletes(t *testing.T) {
	q, root := NewQueryable([]int{1, 2, 3}, 1.0, noise.NewSeededSource(31, 32))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := q.WithContext(ctx).NoisyCount(0.5); err != nil {
		t.Fatalf("live-context aggregation failed: %v", err)
	}
	if root.Spent() != 0.5 {
		t.Fatalf("ε = %v, want 0.5", root.Spent())
	}
}
