package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"dptrace/internal/noise"
)

// These tests pin the panic-containment contract: a panic in a
// parallel worker surfaces on the coordinating goroutine as a
// recoverable *WorkerPanic (instead of killing the process), and the
// aggregation boundary converts panics to ErrInternal with the same
// ε-contract as cancellation — before agent.Apply nothing is charged,
// after Apply the charge stands.

// manyInts returns enough records to clear any parallel threshold.
func manyInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestWorkerPanicIsRecoverableOnCaller(t *testing.T) {
	q, _ := NewQueryable(manyInts(1000), math.Inf(1), noise.NewSeededSource(1, 2))
	q = q.WithExecOptions(ExecOptions{Workers: 4, Threshold: 1})

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		q.Where(func(v int) bool {
			if v == 617 {
				panic("predicate bug")
			}
			return true
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
	}
	if wp.Value != "predicate bug" {
		t.Fatalf("WorkerPanic.Value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 || !strings.Contains(string(wp.Stack), "panic_test") {
		t.Fatalf("WorkerPanic.Stack should capture the worker's stack, got %q", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "predicate bug") {
		t.Fatalf("Error() = %q", wp.Error())
	}
}

func TestGroupByWorkerPanicIsRecoverable(t *testing.T) {
	q, _ := NewQueryable(manyInts(1000), math.Inf(1), noise.NewSeededSource(3, 4))
	q = q.WithExecOptions(ExecOptions{Workers: 4, Threshold: 1})

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		GroupBy(q, func(v int) int {
			if v == 123 {
				panic("key bug")
			}
			return v % 7
		})
	}()
	if _, ok := recovered.(*WorkerPanic); !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
}

// TestJoinKeyPanicBecomesErrInternal: a key function that panics in
// either input's index pass unwinds out of Join and GroupJoin — across
// workers as a *WorkerPanic — to a caller-side recover that makes it
// ErrInternal, before any aggregation has charged either input.
func TestJoinKeyPanicBecomesErrInternal(t *testing.T) {
	fine := func(v int) int { return v % 7 }
	buggy := func(v int) int {
		if v == 1234 {
			panic("key bug")
		}
		return v % 7
	}
	for _, workers := range []int{1, 4} {
		for _, op := range []string{"Join a", "Join b", "GroupJoin a", "GroupJoin b"} {
			label := fmt.Sprintf("%s workers=%d", op, workers)
			a, rootA := NewQueryable(manyInts(2000), 1, noise.NewSeededSource(1, 2))
			b, rootB := NewQueryable(manyInts(2000), 1, noise.NewSeededSource(3, 4))
			a = a.WithExecOptions(ExecOptions{Workers: workers, Threshold: 1})
			keyA, keyB := buggy, fine
			if strings.HasSuffix(op, "b") {
				keyA, keyB = fine, buggy
			}
			run := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = panicError(r)
					}
				}()
				if strings.HasPrefix(op, "GroupJoin") {
					_, err = GroupJoin(a, b, keyA, keyB, func(k int, _, _ []int) int { return k }).NoisyCount(0.1)
				} else {
					_, err = Join(a, b, keyA, keyB, func(x, _ int) int { return x }).NoisyCount(0.1)
				}
				return err
			}
			if err := run(); !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "key bug") {
				t.Fatalf("%s: err = %v, want ErrInternal carrying the panic", label, err)
			}
			if rootA.Spent() != 0 || rootB.Spent() != 0 {
				t.Fatalf("%s: spent %v and %v, want 0 (the panic came before any charge)", label, rootA.Spent(), rootB.Spent())
			}
		}
	}
}

func TestAggregationPanicAfterApplyChargesAndReturnsErrInternal(t *testing.T) {
	q, root := NewQueryable(manyInts(100), 5.0, noise.NewSeededSource(5, 6))
	v, err := NoisySum(q, 0.5, func(v int) float64 {
		panic("selector bug")
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if v != 0 {
		t.Fatalf("value on panic = %v, want zero", v)
	}
	// The selector runs after agent.Apply: the charge stands
	// (conservative — the same contract as post-Apply cancellation).
	if got := root.Spent(); got != 0.5 {
		t.Fatalf("spent = %v, want the applied 0.5", got)
	}
	// The engine survives: the next aggregation works normally.
	if _, err := q.NoisyCount(0.5); err != nil {
		t.Fatalf("count after recovered panic: %v", err)
	}
	if got := root.Spent(); got != 1.0 {
		t.Fatalf("spent after second query = %v, want 1.0", got)
	}
}

func TestParallelWorkerPanicBecomesErrInternalAtAggregation(t *testing.T) {
	// End-to-end through both layers: the worker guard re-raises on the
	// caller, whose next aggregation boundary... is not in this chain —
	// Where is a transformation. So run the panicking predicate
	// inside an aggregation's selector via a derived pipeline instead:
	// the panic must cross runWorkers (transformation) and be caught by
	// a caller-side recover, then a direct aggregation panic must come
	// out as ErrInternal. Combined here to mirror dpserver's layering.
	q, root := NewQueryable(manyInts(2000), math.Inf(1), noise.NewSeededSource(7, 8))
	q = q.WithExecOptions(ExecOptions{Workers: 4, Threshold: 1})

	run := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = panicError(r)
			}
		}()
		filtered := q.Where(func(v int) bool {
			if v == 1999 {
				panic("late worker bug")
			}
			return true
		})
		_, err = filtered.NoisyCount(0.1)
		return err
	}
	err := run()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "late worker bug") {
		t.Fatalf("err should carry the panic value: %v", err)
	}
	// The panic fired during the transformation, before any Apply.
	if got := root.Spent(); got != 0 {
		t.Fatalf("spent = %v, want 0 (panic before Apply)", got)
	}
}

func TestMedianSelectorPanicContained(t *testing.T) {
	q, root := NewQueryable(manyInts(50), 2.0, noise.NewSeededSource(9, 10))
	_, err := NoisyMedian(q, 0.3, func(v int) float64 { panic("median bug") })
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if got := root.Spent(); got != 0.3 {
		t.Fatalf("spent = %v, want 0.3 (post-Apply panic keeps the charge)", got)
	}
}
