package dptrace_test

import (
	"fmt"

	"dptrace"
)

// ExampleNewQueryable shows the basic protect → transform → aggregate
// flow with budget tracking. The noise source is seeded so the output
// is reproducible; use NewCryptoSource outside documentation.
func ExampleNewQueryable() {
	salaries := []float64{40, 55, 62, 48, 51, 70, 44, 58}
	q, budget := dptrace.NewQueryable(salaries, 1.0, dptrace.NewSeededSource(42, 42))

	count, _ := q.NoisyCount(0.5)
	fmt.Printf("count ≈ %.0f (true 8, noise std %.1f)\n", count, dptrace.LaplaceStd(0.5))
	fmt.Printf("spent %.1f of %.1f\n", budget.Spent(), budget.Budget())

	// Exceeding the budget is refused, not silently degraded.
	if _, err := q.NoisyCount(0.6); err != nil {
		fmt.Println("refused:", err != nil)
	}
	// Output:
	// count ≈ 7 (true 8, noise std 2.8)
	// spent 0.5 of 1.0
	// refused: true
}

// ExamplePartition shows the max-accounting that makes per-bucket
// sweeps affordable: counting every part costs one ε total.
func ExamplePartition() {
	values := make([]int, 1000)
	for i := range values {
		values[i] = i % 4
	}
	q, budget := dptrace.NewQueryable(values, 1.0, dptrace.NewSeededSource(7, 7))
	parts := dptrace.Partition(q, []int{0, 1, 2, 3}, func(v int) int { return v })
	for k := 0; k < 4; k++ {
		if _, err := parts[k].NoisyCount(0.25); err != nil {
			fmt.Println("error:", err)
		}
	}
	fmt.Printf("four counts, total cost %.2f\n", budget.Spent())
	// Output:
	// four counts, total cost 0.25
}

// ExampleGroupBy shows the ×2 sensitivity of grouping: aggregations on
// groups charge double.
func ExampleGroupBy() {
	values := []int{1, 2, 3, 4, 5, 6}
	q, budget := dptrace.NewQueryable(values, 1.0, dptrace.NewSeededSource(9, 9))
	groups := dptrace.GroupBy(q, func(v int) int { return v % 2 })
	if _, err := groups.NoisyCount(0.3); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("grouped count cost %.1f\n", budget.Spent())
	// Output:
	// grouped count cost 0.6
}

// ExampleGroupFold counts the keys whose records add up to more than a
// threshold without ever storing a group: GroupBy's ×2, one accumulator
// per key. Integer addition is an exact merge, so a large input would
// fold on every worker.
func ExampleGroupFold() {
	type sale struct {
		shop   string
		amount int
	}
	sales := []sale{{"a", 30}, {"b", 5}, {"a", 40}, {"c", 90}, {"b", 10}, {"c", 20}}
	q, budget := dptrace.NewQueryable(sales, 1.0, dptrace.NewSeededSource(5, 5))
	totals := dptrace.GroupFold(q,
		func(s sale) string { return s.shop },
		func(total int, s sale) int { return total + s.amount },
		func(a, b int) int { return a + b })
	big := totals.Where(func(t dptrace.Folded[string, int]) bool { return t.Value > 50 })
	if _, err := big.NoisyCount(0.2); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("shops over 50 counted at cost %.1f\n", budget.Spent())
	// Output:
	// shops over 50 counted at cost 0.4
}

// ExampleCDF2 measures a whole distribution for one ε.
func ExampleCDF2() {
	values := make([]int64, 0, 900)
	for i := 0; i < 900; i++ {
		values = append(values, int64(i%90))
	}
	q, budget := dptrace.NewQueryable(values, 1.0, dptrace.NewSeededSource(11, 11))
	buckets := dptrace.LinearBuckets(0, 30, 3)
	cdf, _ := dptrace.CDF2(q, 1.0, func(v int64) int64 { return v }, buckets)
	fmt.Printf("%d points, final ≈ %.0f00, cost %.1f\n",
		len(cdf), cdf[len(cdf)-1]/100, budget.Spent())
	// Output:
	// 3 points, final ≈ 900, cost 1.0
}
