package toolkit

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dptrace/internal/core"
	"dptrace/internal/noise"
)

// uniformValues returns n records with values spread uniformly over
// [0, maxVal).
func uniformValues(n int, maxVal int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) % maxVal
	}
	return out
}

func trueCDF(values []int64, buckets []int64) []float64 {
	out := make([]float64, len(buckets))
	for i, edge := range buckets {
		var c float64
		for _, v := range values {
			if v < edge {
				c++
			}
		}
		out[i] = c
	}
	return out
}

func id(v int64) int64 { return v }

func TestCDF2ApproximatesTruth(t *testing.T) {
	values := uniformValues(50000, 64)
	buckets := LinearBuckets(0, 4, 16)
	q, _ := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(1, 2))
	got, err := CDF2(q, 1.0, id, buckets)
	if err != nil {
		t.Fatal(err)
	}
	want := trueCDF(values, buckets)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 50 {
			t.Errorf("bucket %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDF3ApproximatesTruth(t *testing.T) {
	values := uniformValues(50000, 64)
	buckets := LinearBuckets(0, 4, 16)
	q, _ := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(3, 4))
	got, err := CDF3(q, 1.0, id, buckets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(buckets) {
		t.Fatalf("got %d values, want %d", len(got), len(buckets))
	}
	want := trueCDF(values, buckets)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 50 {
			t.Errorf("bucket %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDF1ApproximatesTruth(t *testing.T) {
	values := uniformValues(20000, 64)
	buckets := LinearBuckets(0, 8, 8)
	q, _ := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(5, 6))
	got, err := CDF1(q, 1.0, id, buckets)
	if err != nil {
		t.Fatal(err)
	}
	want := trueCDF(values, buckets)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 50 {
			t.Errorf("bucket %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCDFPrivacyCosts checks the paper's cost claims: CDF1 costs
// |buckets|·ε, CDF2 costs ε, CDF3 costs ε·(log2|buckets|+1).
func TestCDFPrivacyCosts(t *testing.T) {
	values := uniformValues(1000, 64)
	buckets := LinearBuckets(0, 4, 16)
	eps := 0.5

	q1, root1 := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(1, 1))
	if _, err := CDF1(q1, eps, id, buckets); err != nil {
		t.Fatal(err)
	}
	if got, want := root1.Spent(), eps*16; math.Abs(got-want) > 1e-9 {
		t.Errorf("CDF1 cost %v, want %v", got, want)
	}

	q2, root2 := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(1, 1))
	if _, err := CDF2(q2, eps, id, buckets); err != nil {
		t.Fatal(err)
	}
	if got := root2.Spent(); math.Abs(got-eps) > 1e-9 {
		t.Errorf("CDF2 cost %v, want %v (resolution-independent)", got, eps)
	}

	q3, root3 := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(1, 1))
	if _, err := CDF3(q3, eps, id, buckets); err != nil {
		t.Fatal(err)
	}
	if got, want := root3.Spent(), eps*(4+1); math.Abs(got-want) > 1e-9 {
		t.Errorf("CDF3 cost %v, want %v (log2(16)+1 levels)", got, want)
	}
}

// TestCDF2CostIndependentOfResolution doubles the bucket count and
// checks the charge is unchanged.
func TestCDF2CostIndependentOfResolution(t *testing.T) {
	values := uniformValues(1000, 64)
	for _, nb := range []int{8, 32, 64} {
		q, root := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(2, 2))
		if _, err := CDF2(q, 1.0, id, LinearBuckets(0, 1, nb)); err != nil {
			t.Fatal(err)
		}
		if got := root.Spent(); math.Abs(got-1.0) > 1e-9 {
			t.Errorf("%d buckets: cost %v, want 1.0", nb, got)
		}
	}
}

func TestCDF3RequiresPowerOfTwo(t *testing.T) {
	q, _ := core.NewQueryable([]int64{1}, math.Inf(1), noise.NewSeededSource(1, 1))
	if _, err := CDF3(q, 1.0, id, LinearBuckets(0, 1, 12)); !errors.Is(err, ErrBadBuckets) {
		t.Fatalf("got %v, want ErrBadBuckets", err)
	}
}

func TestCDFRejectsBadBuckets(t *testing.T) {
	q, _ := core.NewQueryable([]int64{1}, math.Inf(1), noise.NewSeededSource(1, 1))
	for _, buckets := range [][]int64{nil, {}, {5, 5}, {5, 3}} {
		if _, err := CDF1(q, 1, id, buckets); !errors.Is(err, ErrBadBuckets) {
			t.Errorf("CDF1(%v): %v", buckets, err)
		}
		if _, err := CDF2(q, 1, id, buckets); !errors.Is(err, ErrBadBuckets) {
			t.Errorf("CDF2(%v): %v", buckets, err)
		}
	}
}

func TestCDFBudgetExhaustionSurfaces(t *testing.T) {
	values := uniformValues(100, 16)
	q, _ := core.NewQueryable(values, 0.5, noise.NewSeededSource(1, 1))
	// CDF1 over 4 buckets needs 4*0.2 = 0.8 > 0.5.
	if _, err := CDF1(q, 0.2, id, LinearBuckets(0, 4, 4)); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func TestBucketIndex(t *testing.T) {
	buckets := []int64{10, 20, 30}
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}, {30, -1}, {99, -1},
	}
	b := NewBucketer(buckets)
	for _, c := range cases {
		if got := bucketIndex(c.v, buckets); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		if got := b.Index(c.v); got != c.want {
			t.Errorf("Bucketer.Index(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestBucketerTables: which edge lists get a table, from where, and in
// cells of what size — the served CDFs' lists all do, in cells as wide
// as their step's power-of-two factor.
func TestBucketerTables(t *testing.T) {
	for _, c := range []struct {
		name         string
		edges        []int64
		lo           int64
		shift, cells int // cells 0: no table, the search
	}{
		{"lengths at 16 B", LinearBuckets(0, 16, 95), 0, 4, 95},
		{"ports at 1024", LinearBuckets(0, 1024, 64), 0, 10, 64},
		{"ports at 1", LinearBuckets(0, 1, 65536), 0, 0, 65536},
		{"RTT at 10 ms", LinearBuckets(0, 10, 64), 0, 1, 320},
		{"loss at 25 ‰", LinearBuckets(0, 25, 41), 0, 0, 1025},
		{"far from zero", []int64{1 << 40, 1<<40 + 3}, 1 << 40, 0, 3},
		{"below zero", []int64{-7, -5, 0, 1}, -7, 0, 8},
		{"one cell too many", []int64{0, 1, tableSpan + 1}, 0, 0, 0},
		{"one edge", []int64{5}, 0, 0, 0},
		{"no edges", nil, 0, 0, 0},
	} {
		b := NewBucketer(c.edges)
		if len(b.table) != c.cells || (c.cells > 0 && (b.lo != c.lo || b.shift != c.shift)) {
			t.Errorf("%s: table of %d cells of 2^%d from %d, want %d of 2^%d from %d",
				c.name, len(b.table), b.shift, b.lo, c.cells, c.shift, c.lo)
		}
	}
}

// fuzzEdges builds a strictly increasing edge list from first, a cell
// shift and steps of 1..65,536 cells read two bytes at a time, stopping
// before an edge would overflow.
func fuzzEdges(first int64, shift uint8, steps []byte) []int64 {
	edges := []int64{first}
	for i := 0; i+1 < len(steps) && len(edges) < 1024; i += 2 {
		step := int64((uint64(steps[i])<<8|uint64(steps[i+1]))+1) << (shift % 48)
		last := edges[len(edges)-1]
		if step <= 0 || last+step <= last {
			break
		}
		edges = append(edges, last+step)
	}
	return edges
}

// FuzzBucketIndex: for any strictly increasing edges, Bucketer.Index is
// the binary search, at v, around v, at each edge ±1 and at both ends
// of int64.
func FuzzBucketIndex(f *testing.F) {
	repeat := func(hi, lo byte, n int) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, hi, lo)
		}
		return out
	}
	f.Add(int64(16), uint8(0), repeat(0, 15, 94), int64(1492))      // lengths at 16 B
	f.Add(int64(1024), uint8(0), repeat(3, 255, 63), int64(443))    // ports at 1024
	f.Add(int64(0), uint8(0), repeat(255, 255, 1), int64(65535))    // a span of 65,536
	f.Add(int64(0), uint8(0), repeat(255, 254, 1), int64(-1))       // 65,535
	f.Add(int64(0), uint8(0), []byte{255, 255, 0, 0}, int64(65536)) // 65,537
	f.Add(int64(1), uint8(0), repeat(255, 255, 1), int64(0))        // from zero: 65,537
	f.Add(int64(-3), uint8(2), []byte{0, 1, 0, 0, 7, 9}, int64(5))
	f.Add(int64(math.MinInt64), uint8(0), repeat(0, 4, 5), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64-40), uint8(0), repeat(0, 9, 5), int64(math.MinInt64))
	f.Add(int64(0), uint8(62), []byte{0, 0, 0, 0}, int64(1<<62))
	f.Fuzz(func(t *testing.T, first int64, shift uint8, steps []byte, v int64) {
		edges := fuzzEdges(first, shift, steps)
		b := NewBucketer(edges)
		values := []int64{v, v - 1, v + 1, 0, math.MinInt64, math.MaxInt64}
		for _, e := range edges {
			values = append(values, e-1, e, e+1)
		}
		for _, x := range values {
			if got, want := b.Index(x), bucketIndex(x, edges); got != want {
				t.Fatalf("edges %v (table of %d cells of 2^%d from %d): Index(%d) = %d, search %d",
					edges, len(b.table), b.shift, b.lo, x, got, want)
			}
		}
	})
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(0, 5, 3)
	want := []int64{5, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("bad args did not panic")
		}
	}()
	LinearBuckets(0, 0, 3)
}

// TestCDFValuesAboveRangeDropped ensures all three estimators treat
// out-of-range values identically (dropped, not clamped).
func TestCDFValuesAboveRangeDropped(t *testing.T) {
	// 100 values in range, 50 above.
	values := make([]int64, 0, 150)
	for i := 0; i < 100; i++ {
		values = append(values, int64(i%8))
	}
	for i := 0; i < 50; i++ {
		values = append(values, 100)
	}
	buckets := LinearBuckets(0, 1, 8)
	for name, f := range map[string]func(*core.Queryable[int64]) ([]float64, error){
		"CDF1": func(q *core.Queryable[int64]) ([]float64, error) { return CDF1(q, 5, id, buckets) },
		"CDF2": func(q *core.Queryable[int64]) ([]float64, error) { return CDF2(q, 5, id, buckets) },
		"CDF3": func(q *core.Queryable[int64]) ([]float64, error) { return CDF3(q, 5, id, buckets) },
	} {
		q, _ := core.NewQueryable(values, math.Inf(1), noise.NewSeededSource(9, 9))
		got, err := f(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		final := got[len(got)-1]
		if math.Abs(final-100) > 10 {
			t.Errorf("%s: final cumulative %v, want ~100 (out-of-range dropped)", name, final)
		}
	}
}

func TestIsotonicRegressionKnownExample(t *testing.T) {
	in := []float64{1, 3, 2, 4}
	got := IsotonicRegression(in)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIsotonicRegressionPreservesMonotone(t *testing.T) {
	in := []float64{1, 2, 2, 5, 9}
	got := IsotonicRegression(in)
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("monotone input changed: %v -> %v", in, got)
		}
	}
}

func TestIsotonicRegressionEmpty(t *testing.T) {
	if got := IsotonicRegression(nil); got != nil {
		t.Fatalf("got %v, want nil", got)
	}
}

// Property: the output is non-decreasing, has the same mean as the
// input (PAV preserves block means), and is idempotent.
func TestIsotonicRegressionProperties(t *testing.T) {
	f := func(raw []int8) bool {
		in := make([]float64, len(raw))
		var sumIn float64
		for i, r := range raw {
			in[i] = float64(r)
			sumIn += float64(r)
		}
		out := IsotonicRegression(in)
		if len(out) != len(in) {
			return false
		}
		var sumOut float64
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1]-1e-9 {
				return false
			}
		}
		for _, v := range out {
			sumOut += v
		}
		if len(in) > 0 && math.Abs(sumIn-sumOut) > 1e-6*float64(len(in)+1) {
			return false
		}
		again := IsotonicRegression(out)
		for i := range out {
			if math.Abs(again[i]-out[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
