package experiments

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/core"
	"dptrace/internal/noise"
)

// Table1Row is one empirical noise-calibration measurement.
type Table1Row struct {
	Operation string
	Epsilon   float64
	TheoryStd float64
	// EmpiricalStd is the measured standard deviation of the added
	// noise over many repetitions.
	EmpiricalStd float64
}

// Table1Result reproduces the quantitative half of the paper's
// Table 1: the noise each aggregation adds, plus probes verifying the
// sensitivity bookkeeping of the transformations.
type Table1Result struct {
	Rows []Table1Row
	// GroupByFactor is the measured budget multiplier of one GroupBy
	// (Table 1 says 2).
	GroupByFactor float64
	// PartitionCostRatio is (budget charged by aggregating every
	// part) / (single part's cost); Table 1 says 1 (the maximum, not
	// the sum).
	PartitionCostRatio float64
	// JoinLeftCost and JoinRightCost are the per-input charges of one
	// aggregation on a Join at ε=1 (Table 1: no increase → 1).
	JoinLeftCost, JoinRightCost float64
}

// RunTable1 measures the noise distributions and budget behaviour.
func RunTable1(seed uint64) *Table1Result {
	const reps = 20000
	res := &Table1Result{}
	records := make([]float64, 1000)
	for i := range records {
		records[i] = 0.5
	}

	for _, eps := range Epsilons {
		// Count noise.
		q, _ := core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 1))
		samples := make([]float64, reps)
		for i := range samples {
			v, err := q.NoisyCount(eps)
			if err != nil {
				panic(err)
			}
			samples[i] = v - float64(len(records))
		}
		res.Rows = append(res.Rows, Table1Row{
			Operation: "Count", Epsilon: eps,
			TheoryStd: math.Sqrt2 / eps, EmpiricalStd: stdOf(samples),
		})

		// Sum noise (values clamped to [-1,1]; true sum 500).
		q, _ = core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 2))
		for i := range samples {
			v, err := core.NoisySum(q, eps, func(x float64) float64 { return x })
			if err != nil {
				panic(err)
			}
			samples[i] = v - 500
		}
		res.Rows = append(res.Rows, Table1Row{
			Operation: "Sum", Epsilon: eps,
			TheoryStd: math.Sqrt2 / eps, EmpiricalStd: stdOf(samples),
		})

		// Average noise: std sqrt(8)/(eps n).
		q, _ = core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 3))
		for i := range samples {
			v, err := core.NoisyAverage(q, eps, func(x float64) float64 { return x })
			if err != nil {
				panic(err)
			}
			samples[i] = v - 0.5
		}
		res.Rows = append(res.Rows, Table1Row{
			Operation: "Average", Epsilon: eps,
			TheoryStd: math.Sqrt(8) / (eps * float64(len(records))), EmpiricalStd: stdOf(samples),
		})

		// Median partition imbalance: ~sqrt(2)/eps, over the public
		// domain [0, 1000] that the ranked values fill.
		ranked := make([]int64, 1001)
		for i := range ranked {
			ranked[i] = int64(i)
		}
		q2, _ := core.NewQueryable(ranked, math.Inf(1), noise.NewSeededSource(seed, 4))
		imb := make([]float64, 2000)
		for i := range imb {
			v, err := core.NoisyMedian(q2, eps, 0, 1000, func(x int64) int64 { return x })
			if err != nil {
				panic(err)
			}
			below, above := v, int64(len(ranked)-1)-v
			imb[i] = float64(below - above)
		}
		res.Rows = append(res.Rows, Table1Row{
			Operation: "Median imbalance", Epsilon: eps,
			TheoryStd: math.Sqrt2 / eps, EmpiricalStd: stdOf(imb),
		})
	}

	// Transformation bookkeeping probes.
	q, root := core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 5))
	g := core.GroupBy(q, func(x float64) int { return int(x) })
	if _, err := g.NoisyCount(1.0); err != nil {
		panic(err)
	}
	res.GroupByFactor = root.Spent()

	q, root = core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 6))
	parts := core.Partition(q, []int{0, 1, 2, 3}, func(x float64) int { return int(x*8) % 4 })
	for k := 0; k < 4; k++ {
		if _, err := parts[k].NoisyCount(1.0); err != nil {
			panic(err)
		}
	}
	res.PartitionCostRatio = root.Spent() / 1.0

	left, rootL := core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 7))
	right, rootR := core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, 8))
	joined := core.Join(left, right,
		func(x float64) float64 { return x }, func(x float64) float64 { return x },
		func(a, b float64) float64 { return a })
	if _, err := joined.NoisyCount(1.0); err != nil {
		panic(err)
	}
	res.JoinLeftCost, res.JoinRightCost = rootL.Spent(), rootR.Spent()
	return res
}

func stdOf(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean := sum / n
	return math.Sqrt(sumSq/n - mean*mean)
}

// String renders the measurement rows.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — aggregation noise and transformation bookkeeping\n")
	fmt.Fprintf(&b, "%-18s %8s %14s %14s\n", "operation", "eps", "theory std", "measured std")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %8.1f %14.5f %14.5f\n",
			row.Operation, row.Epsilon, row.TheoryStd, row.EmpiricalStd)
	}
	fmt.Fprintf(&b, "GroupBy sensitivity factor: %.2f (paper: 2)\n", r.GroupByFactor)
	fmt.Fprintf(&b, "Partition cost / single part: %.2f (paper: max, i.e. 1)\n", r.PartitionCostRatio)
	fmt.Fprintf(&b, "Join per-input cost at eps=1: %.2f / %.2f (paper: no increase)\n",
		r.JoinLeftCost, r.JoinRightCost)
	return b.String()
}
