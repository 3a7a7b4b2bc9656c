package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dptrace/internal/noise"
	"dptrace/internal/sketch"
)

// The counts and the quantile split their scan across workers: a count
// sums one counter per source range, and a quantile cuts a block every
// blockChunks source chunks, so its blocks — and the order they fold
// in — depend on source positions alone. These tests run both behind
// every kind of stage and on a Partition part, at sizes straddling the
// chunk and the block, and hold every worker count to one worker's
// values, draws, charges and refusals; where the output keeps every
// source position (no filter, or Select), the summary must also be the
// one blocks of sketchBlock consecutive output records give, as it was
// when blocks were cut by output position.

// splitSizes straddle k·chunkSize and k·sketchBlock.
var splitSizes = []int{0, 1,
	chunkSize - 1, chunkSize + 1, 3*chunkSize - 1, 3*chunkSize + 1,
	sketchBlock - 1, sketchBlock + 1, 2*sketchBlock - 1, 2*sketchBlock + 1, 3*sketchBlock + 1}

// splitPosition is one place an aggregation runs: the stream it sees
// and, for the shapes that keep every source record, the values the
// quantile's summary is built from.
type splitPosition struct {
	name   string
	scale  float64 // ε amplification of the position's agent
	stream func(q *Queryable[flowRec]) Stream[flowRec]
	keeps  bool // output record i is source record i (mapped)
	mapped func(flowRec) flowRec
}

// quarter puts a quarter of the records in part 0, the rest in part 1.
func quarter(f flowRec) int {
	if f.Len%4 == 0 {
		return 0
	}
	return 1
}

var splitPositions = []splitPosition{
	{name: "where-nil", scale: 1, keeps: true, mapped: func(f flowRec) flowRec { return f },
		stream: func(q *Queryable[flowRec]) Stream[flowRec] { return q.Stream().Where(nil) }},
	{name: "where", scale: 1,
		stream: func(q *Queryable[flowRec]) Stream[flowRec] { return q.Stream().Where(lenDiv3) }},
	{name: "select", scale: 1, keeps: true, mapped: double,
		stream: func(q *Queryable[flowRec]) Stream[flowRec] { return StreamSelect(q.Stream(), double) }},
	{name: "selectmany", scale: 2,
		stream: func(q *Queryable[flowRec]) Stream[flowRec] { return StreamSelectMany(q.Stream(), 2, burst) }},
	{name: "part", scale: 1,
		stream: func(q *Queryable[flowRec]) Stream[flowRec] {
			return Partition(q, []int{0, 1}, quarter)[1].Stream()
		}},
	{name: "part/where", scale: 1,
		stream: func(q *Queryable[flowRec]) Stream[flowRec] {
			return Partition(q, []int{0, 1}, quarter)[1].Stream().Where(lenDiv3)
		}},
}

// splitOutcome is everything a run of the split aggregations releases
// or charges.
type splitOutcome struct {
	vals   []uint64 // Float64bits of each released value
	errs   []error
	spent  []float64 // cumulative, after each aggregation
	draws  int
	tuples []sketch.Tuple
}

// runSplit runs count, countint and quantile against a budget that
// affords exactly those three, then a fourth that must be refused.
func runSplit(flows []flowRec, pos splitPosition, exec ExecOptions) splitOutcome {
	const eps = 0.3
	src := &countingSource{src: noise.NewSeededSource(23, 29)}
	q, root := NewQueryable(flows, 3*eps*pos.scale, src)
	q = q.WithRecorder(nil).WithExecOptions(exec)
	s := pos.stream(q)
	var out splitOutcome
	note := func(v float64, err error) {
		out.vals = append(out.vals, math.Float64bits(v))
		out.errs = append(out.errs, err)
		out.spent = append(out.spent, root.Spent())
	}
	note(s.NoisyCount(eps))
	n, err := s.NoisyCountInt(eps)
	note(float64(n), err)
	note(NoisyQuantile(s, eps, 0.5, 0.02, rawLen))
	note(s.NoisyCount(eps))
	out.draws = src.draws
	if summary, ok := quantileSummary(s, 0.02, rawLen); ok {
		out.tuples = append([]sketch.Tuple{}, summary.Tuples()...)
	}
	return out
}

// blocksByOutput is the summary blocks of sketchBlock consecutive
// values give, folded in order.
func blocksByOutput(vals []float64, se float64) []sketch.Tuple {
	merged := sketch.NewQuantile(se)
	for lo := 0; lo < len(vals); lo += sketchBlock {
		blk := sketch.NewQuantile(se)
		for _, v := range vals[lo:min(lo+sketchBlock, len(vals))] {
			blk.Insert(v)
		}
		merged.Merge(blk)
	}
	return append([]sketch.Tuple{}, merged.Tuples()...)
}

func TestSplitAggregationsMatchOneWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	rng := rand.New(rand.NewSource(31))
	for _, n := range splitSizes {
		flows := randomFlows(rng, n)
		for _, pos := range splitPositions {
			one := runSplit(flows, pos, ExecOptions{Workers: 1, Threshold: 1})
			if n > 0 && (one.errs[2] != nil || !errors.Is(one.errs[3], ErrBudgetExceeded)) {
				t.Fatalf("%s n=%d: errors %v, want three answers and a refusal", pos.name, n, one.errs)
			}
			for _, workers := range []int{2, 4} {
				label := fmt.Sprintf("%s n=%d workers=%d", pos.name, n, workers)
				got := runSplit(flows, pos, ExecOptions{Workers: workers, Threshold: 1})
				if !reflect.DeepEqual(got.vals, one.vals) || !reflect.DeepEqual(got.spent, one.spent) || got.draws != one.draws {
					t.Fatalf("%s: values %v spent %v draws %d; one worker: %v %v %d",
						label, got.vals, got.spent, got.draws, one.vals, one.spent, one.draws)
				}
				for i := range got.errs {
					if (got.errs[i] == nil) != (one.errs[i] == nil) || got.errs[i] != nil && !errors.Is(got.errs[i], ErrBudgetExceeded) {
						t.Fatalf("%s: aggregation %d: err %v, one worker %v", label, i, got.errs[i], one.errs[i])
					}
				}
				if !reflect.DeepEqual(got.tuples, one.tuples) {
					t.Fatalf("%s: quantile summary differs from one worker's", label)
				}
			}
			if pos.keeps {
				vals := make([]float64, n)
				for i, f := range flows {
					vals[i] = rawLen(pos.mapped(f))
				}
				if want := blocksByOutput(vals, 0.02); !reflect.DeepEqual(one.tuples, want) {
					t.Fatalf("%s n=%d: summary differs from blocks of %d output records", pos.name, n, sketchBlock)
				}
			}
		}
	}
}
