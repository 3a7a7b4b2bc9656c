package dptrace_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"dptrace"
)

// These tests exercise the public facade end-to-end, as an external
// adopter of the library would use it.

type pkt struct {
	src, dst int
	port     int
	length   int
}

func testPackets() []pkt {
	var out []pkt
	for h := 0; h < 50; h++ {
		for i := 0; i < 20; i++ {
			out = append(out, pkt{src: h, dst: 1000 + i%5, port: 80, length: 100 + i})
		}
	}
	for h := 50; h < 80; h++ {
		out = append(out, pkt{src: h, dst: 2000, port: 443, length: 1492})
	}
	return out
}

func TestFacadePipeline(t *testing.T) {
	q, budget := dptrace.NewQueryable(testPackets(), 1.0, dptrace.NewSeededSource(1, 2))
	grouped := dptrace.GroupBy(
		q.Where(func(p pkt) bool { return p.port == 80 }),
		func(p pkt) int { return p.src })
	heavy := grouped.Where(func(g dptrace.Group[int, pkt]) bool {
		total := 0
		for _, p := range g.Items {
			total += p.length
		}
		return total > 1024
	})
	count, err := heavy.NoisyCount(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// 50 hosts each send 20*(100..119) > 1024 bytes to port 80.
	if math.Abs(count-50) > 5*2*dptrace.LaplaceStd(0.1) {
		t.Errorf("count %v, want ~50", count)
	}
	if spent := budget.Spent(); math.Abs(spent-0.2) > 1e-12 {
		t.Errorf("spent %v, want 0.2", spent)
	}
}

func TestFacadeBudgetLifecycle(t *testing.T) {
	q, budget := dptrace.NewQueryable(testPackets(), 0.5, dptrace.NewSeededSource(3, 4))
	if _, err := q.NoisyCount(0.3); err != nil {
		t.Fatal(err)
	}
	if budget.Remaining() > 0.2+1e-12 {
		t.Errorf("remaining %v, want 0.2", budget.Remaining())
	}
	_, err := q.NoisyCount(0.3)
	if !errors.Is(err, dptrace.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	// The refusal consumed nothing.
	if _, err := q.NoisyCount(0.2); err != nil {
		t.Fatalf("exact-fit query refused: %v", err)
	}
}

func TestFacadeAggregations(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i) / 1000
	}
	q, _ := dptrace.NewQueryable(values, math.Inf(1), dptrace.NewSeededSource(5, 6))

	sum, err := dptrace.Sum(q, 1.0, func(v float64) float64 { return v })
	if err != nil || math.Abs(sum-499.5) > 10 {
		t.Errorf("sum %v, %v; want ~499.5", sum, err)
	}
	avg, err := dptrace.Average(q, 1.0, func(v float64) float64 { return v })
	if err != nil || math.Abs(avg-0.4995) > 0.05 {
		t.Errorf("avg %v, %v; want ~0.5", avg, err)
	}
	// The order statistics rank i over the public domain [0, 999] for
	// each value i/1000.
	rank := func(v float64) int64 { return int64(math.Round(v * 1000)) }
	med, err := dptrace.NoisyMedian(q, 1.0, 0, 999, rank)
	if err != nil || med < 450 || med > 550 {
		t.Errorf("median rank %v, %v; want ~500", med, err)
	}
	q90, err := dptrace.NoisyOrderStatistic(q, 1.0, 0.9, 0, 999, rank)
	if err != nil || q90 < 850 || q90 > 950 {
		t.Errorf("p90 rank %v, %v; want ~900", q90, err)
	}
	scaled, err := dptrace.Sum(q, 1.0, func(v float64) float64 { return v * 5 }, dptrace.WithBound(10))
	if err != nil || math.Abs(scaled-2497.5) > 50 {
		t.Errorf("scaled sum %v, %v; want ~2497.5", scaled, err)
	}
	avgScaled, err := dptrace.Average(q, 1.0, func(v float64) float64 { return v * 5 }, dptrace.WithBound(10))
	if err != nil || math.Abs(avgScaled-2.4975) > 0.2 {
		t.Errorf("scaled avg %v, %v; want ~2.5", avgScaled, err)
	}
}

func TestFacadeContextCancellation(t *testing.T) {
	q, budget := dptrace.NewQueryable(testPackets(), 1.0, dptrace.NewSeededSource(1, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := q.WithContext(ctx).NoisyCount(0.5)
	if !errors.Is(err, dptrace.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if spent := budget.Spent(); spent != 0 {
		t.Fatalf("cancelled query charged ε = %v, want 0", spent)
	}
}

func TestFacadeTransformations(t *testing.T) {
	q, _ := dptrace.NewQueryable([]int{1, 2, 3, 4, 5, 5, 5}, math.Inf(1), dptrace.NewSeededSource(7, 8))

	doubled := dptrace.Select(q, func(x int) int { return 2 * x })
	fanned := dptrace.SelectMany(doubled, 2, func(x int) []int { return []int{x, x + 1} })
	distinct := dptrace.Distinct(fanned, func(x int) int { return x })
	c, err := distinct.NoisyCount(100)
	if err != nil {
		t.Fatal(err)
	}
	// doubled: {2,4,6,8,10,10,10}; fanned adds +1s; distinct: 2..11 = 10.
	if math.Abs(c-10) > 2 {
		t.Errorf("distinct count ~%v, want ~10", c)
	}

	other, _ := dptrace.NewQueryable([]int{4, 5, 6}, math.Inf(1), dptrace.NewSeededSource(9, 10))
	inter := dptrace.Intersect(q, other, func(x int) int { return x }, func(x int) int { return x })
	c, err = inter.NoisyCount(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-4) > 2 { // records 4,5,5,5
		t.Errorf("intersect count ~%v, want ~4", c)
	}

	joined := dptrace.Join(q, other,
		func(x int) int { return x }, func(x int) int { return x },
		func(a, b int) int { return a + b })
	c, err = joined.NoisyCount(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-2) > 2 { // keys 4 and 5 (zip limits 5s to one pair)
		t.Errorf("join count ~%v, want ~2", c)
	}

	gj := dptrace.GroupJoin(q, other,
		func(x int) int { return x }, func(x int) int { return x },
		func(k int, a, b []int) int { return len(a) * len(b) })
	c, err = gj.NoisyCount(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-2) > 2 {
		t.Errorf("group-join count ~%v, want ~2", c)
	}
}

func TestFacadePartitionAndCDF(t *testing.T) {
	values := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		values = append(values, int64(i%32))
	}
	q, budget := dptrace.NewQueryable(values, 10.0, dptrace.NewSeededSource(11, 12))

	buckets := dptrace.LinearBuckets(0, 4, 8)
	cdf2, err := dptrace.CDF2(q, 1.0, func(v int64) int64 { return v }, buckets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cdf2[len(cdf2)-1]-1000) > 30 {
		t.Errorf("CDF2 final %v, want ~1000", cdf2[len(cdf2)-1])
	}
	if spent := budget.Spent(); math.Abs(spent-1.0) > 1e-9 {
		t.Errorf("CDF2 spent %v, want 1.0", spent)
	}

	cdf3, err := dptrace.CDF3(q, 0.5, func(v int64) int64 { return v }, buckets)
	if err != nil {
		t.Fatal(err)
	}
	iso := dptrace.IsotonicRegression(cdf3)
	for i := 1; i < len(iso); i++ {
		if iso[i] < iso[i-1] {
			t.Fatal("isotonic output not monotone")
		}
	}

	parts := dptrace.Partition(q, []int64{0, 1}, func(v int64) int64 { return v % 2 })
	for _, k := range []int64{0, 1} {
		if _, err := parts[k].NoisyCount(0.5); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeToolkitMining(t *testing.T) {
	payloads := make([][]byte, 0)
	for i := 0; i < 3000; i++ {
		payloads = append(payloads, []byte("AB"))
	}
	for i := 0; i < 40; i++ {
		payloads = append(payloads, []byte("ZZ"))
	}
	q, _ := dptrace.NewQueryable(payloads, math.Inf(1), dptrace.NewSeededSource(13, 14))
	found, err := dptrace.FrequentStrings(q, dptrace.FrequentStringsConfig{
		Length: 2, EpsilonPerRound: 1.0, Threshold: 500, Alphabet: []byte("ABZ"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || string(found[0].Value) != "AB" {
		t.Fatalf("found %v, want just AB", found)
	}

	baskets := make([]dptrace.Basket, 0, 2000)
	for i := 0; i < 2000; i++ {
		baskets = append(baskets, dptrace.Basket{ID: uint64(i), Items: []int{0, 1}})
	}
	bq, _ := dptrace.NewQueryable(baskets, math.Inf(1), dptrace.NewSeededSource(15, 16))
	mined, err := dptrace.FrequentItemsets(bq, 3, dptrace.FrequentItemsetsConfig{
		MaxSize: 2, EpsilonPerRound: 1.0, Threshold: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundPair := false
	for _, ic := range mined {
		if len(ic.Items) == 2 && ic.Items[0] == 0 && ic.Items[1] == 1 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Fatalf("pair {0,1} not mined: %v", mined)
	}
}

func TestFacadeCryptoSource(t *testing.T) {
	q, _ := dptrace.NewQueryable([]int{1, 2, 3}, math.Inf(1), dptrace.NewCryptoSource())
	if _, err := q.NoisyCount(1.0); err != nil {
		t.Fatal(err)
	}
}
