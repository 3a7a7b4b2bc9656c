package core

import (
	"errors"
	"math"
	"testing"

	"dptrace/internal/noise"
)

// repeatedCounts runs NoisyCount n times on fresh unlimited-budget
// queryables over the same records and returns the noise samples.
func repeatedCounts(t *testing.T, records []int, epsilon float64, n int) []float64 {
	t.Helper()
	src := noise.NewSeededSource(7, 11)
	q, _ := NewQueryable(records, math.Inf(1), src)
	out := make([]float64, n)
	for i := range out {
		v, err := q.NoisyCount(epsilon)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v - float64(len(records))
	}
	return out
}

func stddev(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean := sum / n
	return math.Sqrt(sumSq/n - mean*mean)
}

// TestNoisyCountStdMatchesTable1 verifies the paper's Table 1: Count's
// added noise has std sqrt(2)/epsilon.
func TestNoisyCountStdMatchesTable1(t *testing.T) {
	for _, eps := range []float64{0.1, 1.0, 10.0} {
		samples := repeatedCounts(t, ints(1000), eps, 30000)
		got := stddev(samples)
		want := math.Sqrt2 / eps
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("eps %v: noise std %v, want %v", eps, got, want)
		}
	}
}

func TestNoisyCountUnbiased(t *testing.T) {
	samples := repeatedCounts(t, ints(500), 1.0, 30000)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	if mean := sum / float64(len(samples)); math.Abs(mean) > 0.05 {
		t.Errorf("noise mean %v, want ~0", mean)
	}
}

func TestNoisyCountIntIsIntegral(t *testing.T) {
	q, _ := newTestQueryable(ints(100), math.Inf(1))
	for i := 0; i < 100; i++ {
		v, err := q.NoisyCountInt(1.0)
		if err != nil {
			t.Fatal(err)
		}
		_ = v // type int64 guarantees integrality; check plausibility
		if v < 50 || v > 150 {
			t.Errorf("count %d wildly off 100 at eps=1", v)
		}
	}
}

func TestNoisySumClampsToUnitRange(t *testing.T) {
	// Records worth +10 each must be clamped to +1 each.
	recs := make([]float64, 100)
	for i := range recs {
		recs[i] = 10
	}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(3, 4))
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		v, err := NoisySum(q, 10.0, func(x float64) float64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-100) > 1 {
		t.Errorf("clamped sum mean %v, want ~100 (clamp to 1 each)", mean)
	}
}

func TestNoisySumScaledWiderBound(t *testing.T) {
	recs := []float64{5, -3, 7, 2}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(5, 6))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		v, err := NoisySumScaled(q, 10.0, 10, func(x float64) float64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-11) > 0.5 {
		t.Errorf("scaled sum mean %v, want ~11", mean)
	}
}

func TestNoisySumScaledNoiseGrowsWithBound(t *testing.T) {
	q, _ := NewQueryable(make([]float64, 10), math.Inf(1), noise.NewSeededSource(9, 9))
	noiseStd := func(bound float64) float64 {
		samples := make([]float64, 20000)
		for i := range samples {
			v, err := NoisySumScaled(q, 1.0, bound, func(float64) float64 { return 0 })
			if err != nil {
				t.Fatal(err)
			}
			samples[i] = v
		}
		return stddev(samples)
	}
	s1, s10 := noiseStd(1), noiseStd(10)
	if ratio := s10 / s1; ratio < 8 || ratio > 12 {
		t.Errorf("noise std ratio %v for 10x bound, want ~10", ratio)
	}
}

// TestNoisyAverageStdMatchesTable1: std ~ sqrt(8)/(eps*n).
func TestNoisyAverageStdMatchesTable1(t *testing.T) {
	const n = 200
	recs := make([]float64, n)
	for i := range recs {
		recs[i] = 0.5
	}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(13, 17))
	eps := 1.0
	samples := make([]float64, 30000)
	for i := range samples {
		v, err := NoisyAverage(q, eps, func(x float64) float64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = v - 0.5
	}
	got := stddev(samples)
	want := math.Sqrt(8) / (eps * n)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("average noise std %v, want %v", got, want)
	}
}

func TestNoisyAverageEmptyDataset(t *testing.T) {
	q, _ := NewQueryable([]float64{}, math.Inf(1), noise.NewSeededSource(1, 1))
	v, err := NoisyAverage(q, 1.0, func(x float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("empty average not finite: %v", v)
	}
}

// TestNoisyMedianPartitionBalance: Table 1 says the returned value
// partitions the input into sets whose sizes differ by roughly
// sqrt(2)/eps.
func TestNoisyMedianPartitionBalance(t *testing.T) {
	const n = 10001
	recs := make([]int64, n)
	for i := range recs {
		recs[i] = int64(i)
	}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(19, 23))
	eps := 1.0
	const trials = 500
	var totalImbalance float64
	for i := 0; i < trials; i++ {
		v, err := NoisyMedian(q, eps, 0, n-1, func(x int64) int64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		below := v // values are 0..n-1, so rank == value
		above := n - 1 - v
		totalImbalance += math.Abs(float64(below - above))
	}
	avg := totalImbalance / trials
	// Imbalance should be O(1/eps): tiny relative to n.
	if avg > 50 {
		t.Errorf("average partition imbalance %v, want O(sqrt(2)/eps) ~ small", avg)
	}
}

// TestNoisyMedianEmpty: an empty input draws over the whole domain,
// with the same two draws as any other input.
func TestNoisyMedianEmpty(t *testing.T) {
	src := &countingSource{src: noise.NewSeededSource(1, 2)}
	q, _ := NewQueryable([]int64{}, math.Inf(1), src)
	seen := map[int64]bool{}
	for range 200 {
		v, err := NoisyMedian(q, 1.0, -5, 5, func(x int64) int64 { return x })
		if err != nil || v < -5 || v > 5 {
			t.Fatalf("empty median = %v, %v; want a value of [-5, 5]", v, err)
		}
		seen[v] = true
	}
	if src.draws != 400 {
		t.Errorf("200 empty medians made %d draws, want 400", src.draws)
	}
	if len(seen) != 11 {
		t.Errorf("200 empty medians drew %d of the domain's 11 values", len(seen))
	}
}

func TestNoisyOrderStatisticQuartiles(t *testing.T) {
	const n = 4000
	recs := make([]int64, n)
	for i := range recs {
		recs[i] = int64(i)
	}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(29, 31))
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		v, err := NoisyOrderStatistic(q, 1.0, frac, 0, 1<<20, func(x int64) int64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		want := frac * n
		if math.Abs(float64(v)-want) > 60 {
			t.Errorf("order stat %v: got %v, want ~%v", frac, v, want)
		}
	}
}

func TestNoisyOrderStatisticRejectsBadFraction(t *testing.T) {
	q, _ := newTestQueryable(ints(10), 1)
	if _, err := NoisyOrderStatistic(q, 1.0, 1.5, 0, 9, func(x int) int64 { return int64(x) }); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestRankDomainRefusedBeforeCharge: an empty domain, or one 2^53 or
// more integers wide, is refused before the charge.
func TestRankDomainRefusedBeforeCharge(t *testing.T) {
	q, root := newTestQueryable(ints(10), 1)
	id := func(x int) int64 { return int64(x) }
	for _, d := range [][2]int64{{1, 0}, {0, 1 << 53}, {-1 << 52, 1 << 52}, {math.MinInt64, math.MaxInt64}} {
		if _, err := NoisyMedian(q, 0.5, d[0], d[1], id); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("NoisyMedian over [%d, %d]: err %v, want ErrInvalidEpsilon", d[0], d[1], err)
		}
		if _, err := NoisyOrderStatistic(q, 0.5, 0.5, d[0], d[1], id); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("NoisyOrderStatistic over [%d, %d]: err %v, want ErrInvalidEpsilon", d[0], d[1], err)
		}
	}
	if root.Spent() != 0 {
		t.Errorf("refused domains spent %v", root.Spent())
	}
	// The widest domain accepted, at either end of int64.
	for _, d := range [][2]int64{{0, 1<<53 - 1}, {math.MaxInt64 - (1<<53 - 1), math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1<<53 - 1}} {
		if v, err := NoisyMedian(q, 0.1, d[0], d[1], id); err != nil || v < d[0] || v > d[1] {
			t.Errorf("NoisyMedian over [%d, %d] = %d, %v", d[0], d[1], v, err)
		}
	}
}

// script is a noise source that returns its values in order and
// fails the test past the end.
type script struct {
	t *testing.T
	u []float64
}

func (s *script) Float64() float64 {
	if len(s.u) == 0 {
		s.t.Fatal("a draw past the script")
	}
	u := s.u[0]
	s.u = s.u[1:]
	return u
}

// reachable is every output a rank release over values can give, from
// a grid of first and second draws fine enough to land in every run
// this test's small inputs make, and on every integer of a run up to
// 41 wide.
func reachable(t *testing.T, values []int64, lo, hi int64, release func(q *Queryable[int64]) (int64, error)) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for i := range 400 {
		for k := range 41 {
			src := &script{t: t, u: []float64{(float64(i) + 0.5) / 400, (float64(k) + 0.5) / 41}}
			q, _ := NewQueryable(values, math.Inf(1), src)
			v, err := release(q)
			if err != nil || v < lo || v > hi {
				t.Fatalf("release over [%d, %d] = %d, %v", lo, hi, v, err)
			}
			if len(src.u) != 0 {
				t.Fatalf("a release made %d draws, want 2", 2-len(src.u))
			}
			out[v] = true
		}
	}
	return out
}

// TestRankSupportCoversNeighbours: the median and an order statistic
// can release a value that only the added record of a neighbouring
// input carries from both neighbours, and every integer of the domain
// from the empty input — each in exactly two draws.
func TestRankSupportCoversNeighbours(t *testing.T) {
	id := func(x int64) int64 { return x }
	releases := map[string]func(q *Queryable[int64]) (int64, error){
		"median":    func(q *Queryable[int64]) (int64, error) { return NoisyMedian(q, 1, 0, 40, id) },
		"orderstat": func(q *Queryable[int64]) (int64, error) { return NoisyOrderStatistic(q, 1, 0.75, 0, 40, id) },
	}
	for name, release := range releases {
		without := reachable(t, []int64{10, 20, 30}, 0, 40, release)
		with := reachable(t, []int64{10, 20, 25, 30}, 0, 40, release)
		if !without[25] || !with[25] {
			t.Errorf("%s: 25, which only the added record carries, reachable without it %v, with it %v", name, without[25], with[25])
		}
		if empty := reachable(t, nil, 0, 40, release); !empty[0] || !empty[40] || len(empty) != 41 {
			t.Errorf("%s: the empty input reaches %d of the domain's 41 integers", name, len(empty))
		}
	}
}

func TestAggregationsRejectInvalidEpsilon(t *testing.T) {
	q, root := newTestQueryable(ints(10), 1)
	for _, eps := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
		if _, err := q.NoisyCount(eps); err == nil {
			t.Errorf("NoisyCount(%v) accepted", eps)
		}
		if _, err := NoisySum(q, eps, func(x int) float64 { return 1 }); err == nil {
			t.Errorf("NoisySum(%v) accepted", eps)
		}
		if _, err := NoisyAverage(q, eps, func(x int) float64 { return 1 }); err == nil {
			t.Errorf("NoisyAverage(%v) accepted", eps)
		}
		if _, err := NoisyMedian(q, eps, 0, 1, func(x int) int64 { return 1 }); err == nil {
			t.Errorf("NoisyMedian(%v) accepted", eps)
		}
	}
	if root.Spent() != 0 {
		t.Errorf("invalid epsilons consumed budget: %v", root.Spent())
	}
}

// TestPaperExampleDistinctHosts reproduces the §2.3 example shape:
// filter to port 80, group by source, keep groups with >1024 summed
// bytes, count with eps=0.1. Expected error ±10 means a correct answer
// of 120 should come back within a few tens.
func TestPaperExampleDistinctHosts(t *testing.T) {
	type pkt struct {
		srcIP   int
		dstPort int
		len     int
	}
	var packets []pkt
	// 120 hosts that send >1024 bytes to port 80.
	for h := 0; h < 120; h++ {
		for p := 0; p < 3; p++ {
			packets = append(packets, pkt{srcIP: h, dstPort: 80, len: 500})
		}
	}
	// 80 hosts below the threshold, plus non-port-80 chatter.
	for h := 200; h < 280; h++ {
		packets = append(packets, pkt{srcIP: h, dstPort: 80, len: 100})
		packets = append(packets, pkt{srcIP: h, dstPort: 443, len: 5000})
	}
	src := noise.NewSeededSource(2010, 8)
	q, root := NewQueryable(packets, 1.0, src)
	grouped := GroupBy(q.Where(func(p pkt) bool { return p.dstPort == 80 }),
		func(p pkt) int { return p.srcIP })
	heavy := grouped.Where(func(g Group[int, pkt]) bool {
		total := 0
		for _, p := range g.Items {
			total += p.len
		}
		return total > 1024
	})
	got, err := heavy.NoisyCount(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Noise std for the grouped count is 2*sqrt(2)/0.1 ~ 28.
	if math.Abs(got-120) > 120 {
		t.Errorf("noisy distinct-host count %v, want ~120", got)
	}
	// GroupBy doubles: 0.1 spends 0.2.
	if spent := root.Spent(); math.Abs(spent-0.2) > 1e-12 {
		t.Errorf("spent %v, want 0.2", spent)
	}
}

// naiveRank is the exponential mechanism over [lo, hi] computed one
// integer at a time: each integer's below (values < x) and through
// (values <= x) counts by a loop over the values, its probability
// exp(ε·score/2) normalized in log space. Neighbouring integers with
// the same counts share a score; they form the runs, each returned
// with its probability.
func naiveRank(values []int64, lo, hi int64, eps float64, score func(below, through, n int) float64) (runLo, runHi []int64, prob []float64) {
	var logw []float64
	var prevBelow, prevThrough int
	for x := lo; ; x++ {
		below, through := 0, 0
		for _, v := range values {
			v = min(max(v, lo), hi)
			if v < x {
				below++
			}
			if v <= x {
				through++
			}
		}
		w := eps * score(below, through, len(values)) / 2
		if x > lo && below == prevBelow && through == prevThrough {
			runHi[len(runHi)-1] = x
			logw[len(logw)-1] = logAdd(logw[len(logw)-1], w)
		} else {
			runLo, runHi, logw = append(runLo, x), append(runHi, x), append(logw, w)
		}
		prevBelow, prevThrough = below, through
		if x == hi {
			break
		}
	}
	total := math.Inf(-1)
	for _, w := range logw {
		total = logAdd(total, w)
	}
	for _, w := range logw {
		prob = append(prob, math.Exp(w-total))
	}
	return runLo, runHi, prob
}

// logAdd is log(e^a + e^b).
func logAdd(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(b, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// FuzzDenseQuantile checks NoisyMedian and NoisyOrderStatistic against
// naiveRank on domains of up to 64 integers, anywhere in int64, with
// values on and past both ends: a first draw inside a run's share of
// the naive cumulative probability must pick that run, and a second
// draw the integer at its position in the run, in exactly two draws.
func FuzzDenseQuantile(f *testing.F) {
	f.Add([]byte{3, 3, 7, 0, 200}, int64(0), uint8(15), uint16(999), uint8(128), true)
	f.Add([]byte{}, int64(-7), uint8(63), uint16(99), uint8(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(math.MaxInt64), uint8(9), uint16(4999), uint8(255), false)
	f.Add([]byte{0, 0, 0, 255}, int64(math.MinInt64), uint8(0), uint16(0), uint8(64), true)
	f.Fuzz(func(t *testing.T, raw []byte, lo int64, span uint8, epsMilli uint16, frac uint8, median bool) {
		width := int64(span%64) + 1
		lo = min(lo, math.MaxInt64-(width-1))
		hi := lo + width - 1
		eps := float64(epsMilli%5000+1) / 1000
		fraction := float64(frac) / 255
		// Offsets -2 … width+1 from lo, saturating at the ends of int64.
		var values []int64
		for _, b := range raw[:min(len(raw), 200)] {
			off := int64(b)%(width+4) - 2
			switch {
			case off < 0 && lo < math.MinInt64-off:
				values = append(values, math.MinInt64)
			case off > 0 && lo > math.MaxInt64-off:
				values = append(values, math.MaxInt64)
			default:
				values = append(values, lo+off)
			}
		}
		score := func(below, through, n int) float64 { return -math.Abs(float64(below - (n - through))) }
		release := func(q *Queryable[int64]) (int64, error) {
			return NoisyMedian(q, eps, lo, hi, func(v int64) int64 { return v })
		}
		if !median {
			score = func(below, through, n int) float64 { return -math.Abs(float64(below+through)/2 - fraction*float64(n)) }
			release = func(q *Queryable[int64]) (int64, error) {
				return NoisyOrderStatistic(q, eps, fraction, lo, hi, func(v int64) int64 { return v })
			}
		}
		draw := func(u1, u2 float64) int64 {
			src := &script{t: t, u: []float64{u1, u2}}
			q, _ := NewQueryable(values, math.Inf(1), src)
			v, err := release(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(src.u) != 0 {
				t.Fatalf("a release made %d draws, want 2", 2-len(src.u))
			}
			return v
		}
		runLo, runHi, prob := naiveRank(values, lo, hi, eps, score)
		below := 0.0 // the naive probability of the runs before r
		for r := range prob {
			p := prob[r]
			// A first draw a millionth of the run's share inside either
			// end of it, or in its middle, where that share is too small
			// for the ends to tell apart from rounding.
			u1s := []float64{below + p/2}
			if p > 1e-6 {
				u1s = append(u1s, below+p*1e-6, below+p*(1-1e-6))
			}
			below += p
			if p < 1e-12 {
				continue
			}
			n := runHi[r] - runLo[r] + 1
			for _, u1 := range u1s {
				for _, k := range []int64{0, n / 2, n - 1} {
					if got, want := draw(u1, (float64(k)+0.5)/float64(n)), runLo[r]+k; got != want {
						t.Fatalf("draws (%v, position %d of %d) over [%d, %d] gave %d, want %d (run [%d, %d], probability %v)",
							u1, k, n, lo, hi, got, want, runLo[r], runHi[r], p)
					}
				}
			}
		}
	})
}
