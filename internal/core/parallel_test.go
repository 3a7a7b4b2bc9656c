package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dptrace/internal/noise"
)

// Shared fixtures for the width tests, and the tests of the width
// itself: where it comes from, how it propagates, and that a refusal
// does not depend on it. What each operator releases at every width is
// held to naive references in exec_test.go (record-wise) and
// keyed_test.go (keyed, joins included).

// parExec splits every scan across workers, whatever its size.
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

// diffCase runs one operator on one worker and on workers, over the
// same input, and compares the output records with each other and with
// want, and the budget charge of a count of them. op receives the
// prepared Queryable and returns the transformed records plus the ε of
// the count, so charges flow to the root agent.
func diffCase[R any](t *testing.T, name string, flows []flowRec, workers int, want []R,
	op func(q *Queryable[flowRec]) (*Queryable[R], float64)) {
	t.Helper()

	run := func(exec ExecOptions) ([]R, float64) {
		q, root := NewQueryable(flows, 100, noise.NewSeededSource(11, 13))
		out, eps := op(q.WithExecOptions(exec))
		if _, err := out.NoisyCount(eps); err != nil {
			t.Fatalf("%s: NoisyCount: %v", name, err)
		}
		return out.records, root.Spent()
	}

	seqOut, seqSpent := run(ExecOptions{Workers: 1})
	parOut, parSpent := run(parExec(workers))

	if !reflect.DeepEqual(seqOut, parOut) {
		t.Fatalf("%s (n=%d, workers=%d): output on %d workers differs from one worker's\nseq: len %d\npar: len %d",
			name, len(flows), workers, workers, len(seqOut), len(parOut))
	}
	if len(seqOut) != len(want) || (len(want) > 0 && !reflect.DeepEqual(seqOut, want)) {
		t.Fatalf("%s (n=%d): output differs from the reference: len %d, want %d", name, len(flows), len(seqOut), len(want))
	}
	if seqSpent != parSpent {
		t.Fatalf("%s (n=%d, workers=%d): budget charge differs: seq %v, par %v",
			name, len(flows), workers, seqSpent, parSpent)
	}
}

// TestParallelMatchesSequential: both joins, randomized inputs, several
// sizes and worker counts, GOMAXPROCS 1 and 4. One worker and several
// must release the same records in the same order, the reference's,
// and charge the same.
func TestParallelMatchesSequential(t *testing.T) {
	dst := func(f flowRec) uint32 { return f.Dst }
	src := func(f flowRec) uint32 { return f.Src }
	port := func(f flowRec) uint16 { return f.Port }
	lens := func(x, y flowRec) int { return x.Len + y.Len }
	sizes := func(k uint16, ga, gb []flowRec) [3]int { return [3]int{int(k), len(ga), len(gb)} }

	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

		rng := rand.New(rand.NewSource(int64(42 + gmp)))
		for _, n := range inputSizes {
			flows := randomFlows(rng, n)
			other := randomFlows(rng, max(n/2, 1))
			wantJoin := refJoin(flows, other, dst, src, lens)
			wantGroupJoin := refGroupJoin(flows, other, port, port, sizes)
			for _, workers := range []int{2, 4, 7} {
				diffCase(t, "join", flows, workers, wantJoin, func(q *Queryable[flowRec]) (*Queryable[int], float64) {
					b := NewQueryableFor(other, NewRootAgent(math.Inf(1)), noise.NewSeededSource(3, 5)).
						WithExecOptions(q.exec)
					return Join(q, b, dst, src, lens), 0.5
				})
				diffCase(t, "groupjoin", flows, workers, wantGroupJoin, func(q *Queryable[flowRec]) (*Queryable[[3]int], float64) {
					b := NewQueryableFor(other, NewRootAgent(math.Inf(1)), noise.NewSeededSource(3, 5)).
						WithExecOptions(q.exec)
					return GroupJoin(q, b, port, port, sizes), 0.5
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

// TestExecPropagation: the width must survive derivation, like the
// noise source and recorder, so a pipeline configured once stays
// configured.
func TestExecPropagation(t *testing.T) {
	q, _ := NewQueryable([]int{1, 2, 3}, math.Inf(1), noise.NewSeededSource(1, 2))
	p := q.WithExecOptions(ExecOptions{Workers: 8})
	if got := p.exec.Workers; got != 8 {
		t.Fatalf("WithExecOptions(8 workers): Workers = %d", got)
	}
	child := Select(p, func(x int) int { return x + 1 })
	if got := child.exec.Workers; got != 8 {
		t.Fatalf("derived child lost its width: Workers = %d", got)
	}
	grandchild := child.Where(func(x int) bool { return x > 0 })
	if got := grandchild.exec.Workers; got != 8 {
		t.Fatalf("grandchild lost its width: Workers = %d", got)
	}
	joined := Join(grandchild, q, func(x int) int { return x }, func(x int) int { return x }, func(x, _ int) int { return x })
	if got := joined.exec.Workers; got != 8 {
		t.Fatalf("a join lost its left input's width: Workers = %d", got)
	}
}

// TestDefaultExecOptions: every way to make a Queryable starts at the
// width the server runs at, GOMAXPROCS workers above the default
// threshold, read when the Queryable is made.
func TestDefaultExecOptions(t *testing.T) {
	for _, gmp := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(gmp)
		want := ExecOptions{Workers: gmp}
		q, _ := NewQueryable([]int{1}, math.Inf(1), noise.NewSeededSource(1, 2))
		qf := NewQueryableFor([]int{1}, NewRootAgent(1), noise.NewSeededSource(1, 2))
		qp := NewQueryableFor([]int{1}, NewAnalystPolicy(2, 1).AgentFor("alice"), noise.NewSeededSource(1, 2))
		runtime.GOMAXPROCS(prev)
		for name, got := range map[string]ExecOptions{"NewQueryable": q.exec, "NewQueryableFor": qf.exec, "AnalystPolicy": qp.exec} {
			if got != want {
				t.Fatalf("GOMAXPROCS %d: %s starts at %+v, want %+v", gmp, name, got, want)
			}
		}
	}
}

// TestParallelRefusalMatchesSequential: a budget refusal must be
// identical (and leave identical ledger state) on one worker and four.
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
