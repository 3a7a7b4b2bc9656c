package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dptrace/internal/noise"
)

// Differential determinism tests for Join and GroupJoin, the two
// operators that still have a sharded strategy beside a sequential loop:
// for a fixed input ordering both must produce identical output records
// in identical order — and identical budget charges — either way, at any
// GOMAXPROCS. (Every other operator has one body, held to a naive
// reference: the record-wise ones in exec_test.go, the keyed ones in
// keyed_test.go.) These run under -race in the tier-1 gate, so they
// double as the sharded strategies' concurrency-safety tests.

// parExec forces the parallel strategies on for any input size.
func parExec(workers int) ExecOptions {
	return ExecOptions{Workers: workers, Threshold: 1}
}

// flowRec is a record type with several usable keys, shaped like the
// engine's real packet workloads.
type flowRec struct {
	Src  uint32
	Dst  uint32
	Port uint16
	Len  int
}

// randomFlows builds a deterministic pseudo-random input with heavy
// key skew (many duplicate ports, some duplicate hosts) so grouping
// operators see both tiny and large groups.
func randomFlows(rng *rand.Rand, n int) []flowRec {
	out := make([]flowRec, n)
	for i := range out {
		out[i] = flowRec{
			Src:  uint32(rng.Intn(max(n/7, 1))),
			Dst:  uint32(rng.Intn(max(n/3, 1))),
			Port: uint16(rng.Intn(17)),
			Len:  rng.Intn(1500),
		}
	}
	return out
}

// inputSizes exercises empty, tiny, odd, and chunk-spanning inputs.
var inputSizes = []int{0, 1, 7, 1023, 20000}

// diffCase runs one operator both ways on one input and compares the
// output records and the budget charge of a subsequent aggregation.
// op receives the prepared Queryable and returns the transformed
// records (via the returned Queryable) plus performs one aggregation
// so charges flow to the root agent.
func diffCase[R any](t *testing.T, name string, flows []flowRec, workers int,
	op func(q *Queryable[flowRec]) (*Queryable[R], float64)) {
	t.Helper()

	run := func(exec ExecOptions) ([]R, float64, float64) {
		q, root := NewQueryable(flows, 100, noise.NewSeededSource(11, 13))
		out, eps := op(q.WithExecOptions(exec))
		if eps > 0 {
			if _, err := out.NoisyCount(eps); err != nil {
				t.Fatalf("%s: NoisyCount: %v", name, err)
			}
		}
		return out.records, root.Spent(), eps
	}

	seqOut, seqSpent, _ := run(ExecOptions{})
	parOut, parSpent, _ := run(parExec(workers))

	if !reflect.DeepEqual(seqOut, parOut) {
		t.Fatalf("%s (n=%d, workers=%d): parallel output differs from sequential\nseq: len %d\npar: len %d",
			name, len(flows), workers, len(seqOut), len(parOut))
	}
	if seqSpent != parSpent {
		t.Fatalf("%s (n=%d, workers=%d): budget charge differs: seq %v, par %v",
			name, len(flows), workers, seqSpent, parSpent)
	}
}

// TestParallelMatchesSequential: both joins, randomized inputs, several
// sizes and worker counts, GOMAXPROCS 1 and 4.
func TestParallelMatchesSequential(t *testing.T) {
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

		rng := rand.New(rand.NewSource(int64(42 + gmp)))
		for _, n := range inputSizes {
			flows := randomFlows(rng, n)
			other := randomFlows(rng, max(n/2, 1))
			for _, workers := range []int{2, 4, 7} {
				diffCase(t, "join", flows, workers, func(q *Queryable[flowRec]) (*Queryable[int], float64) {
					b := NewQueryableFor(other, NewRootAgent(math.Inf(1)), noise.NewSeededSource(3, 5)).
						WithExecOptions(q.Exec())
					return Join(q, b,
						func(f flowRec) uint32 { return f.Dst },
						func(f flowRec) uint32 { return f.Src },
						func(x, y flowRec) int { return x.Len + y.Len }), 0.5
				})
				diffCase(t, "groupjoin", flows, workers, func(q *Queryable[flowRec]) (*Queryable[[3]int], float64) {
					b := NewQueryableFor(other, NewRootAgent(math.Inf(1)), noise.NewSeededSource(3, 5)).
						WithExecOptions(q.Exec())
					return GroupJoin(q, b,
						func(f flowRec) uint16 { return f.Port },
						func(f flowRec) uint16 { return f.Port },
						func(k uint16, ga, gb []flowRec) [3]int { return [3]int{int(k), len(ga), len(gb)} }), 0.5
				})
			}
		}
	}
}

// TestParallelThresholdGate checks small inputs stay on the sequential
// path even with workers configured, and that crossing the threshold
// flips to the parallel strategy (visible via the process counter).
func TestParallelThresholdGate(t *testing.T) {
	flows := randomFlows(rand.New(rand.NewSource(3)), 100)
	q, _ := NewQueryable(flows, math.Inf(1), noise.NewSeededSource(1, 2))

	small := q.WithExecOptions(ExecOptions{Workers: 4, Threshold: 101})
	before := ParallelExecutions()
	GroupBy(small, func(f flowRec) uint16 { return f.Port })
	if got := ParallelExecutions(); got != before {
		t.Fatalf("input below threshold took the parallel path (%d executions added)", got-before)
	}

	big := q.WithExecOptions(ExecOptions{Workers: 4, Threshold: 100})
	before = ParallelExecutions()
	GroupBy(big, func(f flowRec) uint16 { return f.Port })
	if got := ParallelExecutions(); got != before+1 {
		t.Fatalf("input at threshold did not take the parallel path (counter %d -> %d)", before, got)
	}
}

// TestExecPropagation: execution options must survive derivation, like
// the noise source and recorder, so a pipeline configured once stays
// configured.
func TestExecPropagation(t *testing.T) {
	q, _ := NewQueryable([]int{1, 2, 3}, math.Inf(1), noise.NewSeededSource(1, 2))
	p := q.WithParallelism(8)
	if got := p.Exec().Workers; got != 8 {
		t.Fatalf("WithParallelism(8).Exec().Workers = %d", got)
	}
	child := Select(p, func(x int) int { return x + 1 })
	if got := child.Exec().Workers; got != 8 {
		t.Fatalf("derived child lost exec options: Workers = %d", got)
	}
	grandchild := child.Where(func(x int) bool { return x > 0 })
	if got := grandchild.Exec().Workers; got != 8 {
		t.Fatalf("grandchild lost exec options: Workers = %d", got)
	}
}

// TestWithParallelismDefaultsToGOMAXPROCS documents the workers<=0
// convention.
func TestWithParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	q, _ := NewQueryable([]int{1}, math.Inf(1), noise.NewSeededSource(1, 2))
	if got, want := q.WithParallelism(0).Exec().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("WithParallelism(0).Workers = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestDefaultExecOptions: NewQueryable and NewQueryableFor must pick
// up the process-wide configuration (the cmd/experiments -parallel
// path).
func TestDefaultExecOptions(t *testing.T) {
	SetDefaultExecOptions(ExecOptions{Workers: 3, Threshold: 5})
	defer SetDefaultExecOptions(ExecOptions{})

	q, _ := NewQueryable([]int{1}, math.Inf(1), noise.NewSeededSource(1, 2))
	if got := q.Exec(); got.Workers != 3 || got.Threshold != 5 {
		t.Fatalf("NewQueryable did not inherit default exec options: %+v", got)
	}
	qf := NewQueryableFor([]int{1}, NewRootAgent(1), noise.NewSeededSource(1, 2))
	if got := qf.Exec(); got.Workers != 3 || got.Threshold != 5 {
		t.Fatalf("NewQueryableFor did not inherit default exec options: %+v", got)
	}

	SetDefaultExecOptions(ExecOptions{})
	q2, _ := NewQueryable([]int{1}, math.Inf(1), noise.NewSeededSource(1, 2))
	if got := q2.Exec(); got != (ExecOptions{}) {
		t.Fatalf("zero default exec options did not reset: %+v", got)
	}
}

// TestParallelRefusalMatchesSequential: a budget refusal must be
// identical (and leave identical ledger state) under both strategies.
func TestParallelRefusalMatchesSequential(t *testing.T) {
	flows := randomFlows(rand.New(rand.NewSource(9)), 5000)
	run := func(exec ExecOptions) (error, float64) {
		q, root := NewQueryable(flows, 1.0, noise.NewSeededSource(11, 13))
		g := GroupBy(q.WithExecOptions(exec), func(f flowRec) uint16 { return f.Port })
		// GroupBy doubles sensitivity: ε=0.6 requests 1.2 > 1.0.
		_, err := g.NoisyCount(0.6)
		return err, root.Spent()
	}
	seqErr, seqSpent := run(ExecOptions{})
	parErr, parSpent := run(parExec(4))
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("refusal differs: seq %v, par %v", seqErr, parErr)
	}
	if seqErr == nil {
		t.Fatal("expected a budget refusal")
	}
	if seqSpent != parSpent || seqSpent != 0 {
		t.Fatalf("refusal charged budget: seq %v, par %v", seqSpent, parSpent)
	}
}
