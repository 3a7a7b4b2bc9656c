package sketch

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"
)

// rankError returns the distance from target rank t to the true rank
// interval of v in sorted data: [#{x < v}, #{x ≤ v}].
func rankError(sorted []float64, v, t float64) float64 {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if t < float64(lo) {
		return float64(lo) - t
	}
	if t > float64(hi) {
		return t - float64(hi)
	}
	return 0
}

// adversarialOrderings generates the insertion orders that
// historically break rank sketches: sorted, reverse-sorted,
// organ-pipe (sorted halves interleaved outward-in), heavy
// duplicates, and seeded-random.
func adversarialOrderings(n int) map[string][]float64 {
	rng := rand.New(rand.NewPCG(7, 11))
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64() * 1e6
	}
	sorted := append([]float64(nil), base...)
	sort.Float64s(sorted)
	reversed := make([]float64, n)
	for i, v := range sorted {
		reversed[n-1-i] = v
	}
	organ := make([]float64, 0, n)
	for i, j := 0, n-1; i <= j; i, j = i+1, j-1 {
		organ = append(organ, sorted[i])
		if i != j {
			organ = append(organ, sorted[j])
		}
	}
	dupes := make([]float64, n)
	for i := range dupes {
		dupes[i] = float64(i % 17)
	}
	return map[string][]float64{
		"random":     base,
		"sorted":     sorted,
		"reversed":   reversed,
		"organpipe":  organ,
		"duplicates": dupes,
	}
}

func TestQuantileRankErrorAdversarial(t *testing.T) {
	const n = 50000
	for _, eps := range []float64{0.05, 0.01} {
		for name, data := range adversarialOrderings(n) {
			q := NewQuantile(eps)
			for _, v := range data {
				q.Insert(v)
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			for f := 0.0; f <= 1.0; f += 0.05 {
				target := f * float64(n)
				got := q.Query(f)
				if err := rankError(sorted, got, target); err > eps*float64(n)+2 {
					t.Errorf("eps=%v %s f=%.2f: rank error %.0f > %.0f", eps, name, f, err, eps*float64(n))
				}
			}
			if q.Count() != n {
				t.Errorf("%s: Count = %d, want %d", name, q.Count(), n)
			}
		}
	}
}

func TestQuantileExactSmall(t *testing.T) {
	q := NewQuantile(0.01)
	for i := 10; i >= 1; i-- {
		q.Insert(float64(i))
	}
	if got := q.Query(0); got != 1 {
		t.Errorf("Query(0) = %v, want 1", got)
	}
	if got := q.Query(1); got != 10 {
		t.Errorf("Query(1) = %v, want 10", got)
	}
	mid := q.Query(0.5)
	if mid < 4 || mid > 6 {
		t.Errorf("Query(0.5) = %v, want ~5", mid)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	q := NewQuantile(0.01)
	if got := q.Query(0.5); got != 0 {
		t.Errorf("empty Query = %v, want 0", got)
	}
	q.Insert(42)
	if got := q.Query(0.5); got != 42 {
		t.Errorf("single Query = %v, want 42", got)
	}
	if q.Count() != 1 {
		t.Errorf("Count = %d, want 1", q.Count())
	}
}

func quantileState(q *Quantile) ([]Tuple, int) {
	return append([]Tuple(nil), q.Tuples()...), q.Count()
}

func TestQuantileMergeCommutative(t *testing.T) {
	mk := func(seed uint64, n int) *Quantile {
		rng := rand.New(rand.NewPCG(seed, 3))
		q := NewQuantile(0.02)
		for i := 0; i < n; i++ {
			q.Insert(rng.Float64() * 100)
		}
		return q
	}
	ab1, ab2 := mk(1, 30000), mk(2, 20000)
	ba1, ba2 := mk(1, 30000), mk(2, 20000)
	ab1.Merge(ab2)
	ba2.Merge(ba1)
	abT, abN := quantileState(ab1)
	baT, baN := quantileState(ba2)
	if abN != baN {
		t.Fatalf("merge counts differ: %d vs %d", abN, baN)
	}
	if !reflect.DeepEqual(abT, baT) {
		t.Fatalf("Merge is not commutative: %d vs %d tuples", len(abT), len(baT))
	}
}

func TestQuantileShardMergeAccuracy(t *testing.T) {
	// Shard-built-and-merged summaries must honor the same rank
	// bound as a single sequential build, however the shards split.
	const n, eps = 60000, 0.02
	rng := rand.New(rand.NewPCG(5, 9))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 1000
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for _, shards := range []int{2, 4, 7} {
		merged := NewQuantile(eps)
		for s := 0; s < shards; s++ {
			part := NewQuantile(eps)
			lo, hi := s*n/shards, (s+1)*n/shards
			for _, v := range data[lo:hi] {
				part.Insert(v)
			}
			merged.Merge(part)
		}
		if merged.Count() != n {
			t.Fatalf("shards=%d: Count = %d, want %d", shards, merged.Count(), n)
		}
		for f := 0.0; f <= 1.0; f += 0.1 {
			got := merged.Query(f)
			if err := rankError(sorted, got, f*float64(n)); err > eps*float64(n)+2 {
				t.Errorf("shards=%d f=%.1f: rank error %.0f > %.0f", shards, f, err, eps*float64(n))
			}
		}
	}
}

func TestQuantileFoldDeterministic(t *testing.T) {
	// Folding identical block summaries in identical order must give
	// identical bytes — the foundation of parallel == sequential at
	// the engine layer.
	build := func() ([]Tuple, int) {
		rng := rand.New(rand.NewPCG(21, 8))
		merged := NewQuantile(0.02)
		for b := 0; b < 5; b++ {
			blk := NewQuantile(0.02)
			for i := 0; i < 10000; i++ {
				blk.Insert(rng.Float64())
			}
			merged.Merge(blk)
		}
		return quantileState(merged)
	}
	t1, n1 := build()
	t2, n2 := build()
	if n1 != n2 || !reflect.DeepEqual(t1, t2) {
		t.Fatal("identical fold produced different summaries")
	}
}

func TestQuantileTupleBoundsValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	q := NewQuantile(0.05)
	data := make([]float64, 20000)
	for i := range data {
		data[i] = math.Floor(rng.Float64() * 500)
		q.Insert(data[i])
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	prev := math.Inf(-1)
	for _, tp := range q.Tuples() {
		if tp.Value <= prev {
			t.Fatalf("tuples not strictly increasing at %v", tp.Value)
		}
		prev = tp.Value
		trueRank := sort.Search(len(sorted), func(i int) bool { return sorted[i] > tp.Value })
		if trueRank < tp.RMin || trueRank > tp.RMax {
			t.Errorf("value %v: true rank %d outside [%d, %d]", tp.Value, trueRank, tp.RMin, tp.RMax)
		}
	}
}

// TestQuantileNaNDropped: NaN has no rank, so Insert drops it uncounted
// and the summary is the one built without it. Each case runs under a
// deadline: flush's duplicate-run loop never advanced on a NaN, so a
// single NaN hung Tuples — and NoisyQuantile after its charge.
func TestQuantileNaNDropped(t *testing.T) {
	nan := math.NaN()
	const eps = 0.02 // a 100-value buffer
	mixed := []float64{1, nan, 2, nan, 2, -3}
	boundary := make([]float64, 0, 300)
	for i := 0; i < 300; i++ {
		v := float64(i % 7)
		if i%50 == 49 || i == 99 || i == 100 {
			v = nan // around and on the first flush
		}
		boundary = append(boundary, v)
	}
	for name, values := range map[string][]float64{
		"nan-only": {nan, nan, nan},
		"mixed":    mixed,
		"boundary": boundary,
	} {
		done := make(chan struct{})
		var got, want []Tuple
		var gotN, wantN int
		go func() {
			defer close(done)
			q, ref := NewQuantile(eps), NewQuantile(eps)
			for _, v := range values {
				q.Insert(v)
				if !math.IsNaN(v) {
					ref.Insert(v)
				}
			}
			got, gotN = quantileState(q)
			want, wantN = quantileState(ref)
			q.Query(0.5)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the summary did not return in 5 s", name)
		}
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d values %v, want the NaN-free summary: %d values %v", name, gotN, got, wantN, want)
		}
	}
}

// TestQuantileNegativeZero: −0 and +0 compare equal, so they are one
// value with one rank, released as +0. The flush counts values by order
// key, where the two zeros differ, so Insert stores −0 as +0; before,
// the sort released whichever zero it happened to put first.
func TestQuantileNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	q := NewQuantile(0.02)
	for range 3 {
		q.Insert(negZero)
	}
	if tuples := q.Tuples(); len(tuples) != 1 || math.Signbit(tuples[0].Value) || tuples[0].Dups != 3 {
		t.Errorf("a summary of −0 alone holds %v, want one +0 tuple of 3", tuples)
	}
	if v := q.Query(0.5); math.Signbit(v) {
		t.Errorf("a summary of −0 alone releases %v, want +0", v)
	}
	mixed := NewQuantile(0.02)
	for i := range 150 { // one flush of 100 values, 50 pending
		v := float64(i%3 - 1)
		if i%4 == 0 {
			v = negZero
		}
		mixed.Insert(v)
	}
	zeros := 0
	for _, tu := range mixed.Tuples() {
		if tu.Value == 0 {
			zeros++
			if math.Signbit(tu.Value) {
				t.Errorf("mixed zeros released as −0: %v", tu)
			}
		}
	}
	if zeros != 1 {
		t.Errorf("mixed ±0 yields %d zero tuples, want 1: %v", zeros, mixed.Tuples())
	}
}

// TestQuantileInsertAllocs: a summary reuses its buffer, its flush's
// exact list and a spare tuple list, so a build allocates while its
// lists grow to O(1/ε) and then no more — four times the inserts cost
// no more allocations. (Every flush used to allocate two lists: 10,495
// objects and 120 MB for a million values.) Counts are compared, not
// pinned, so the race detector's own allocations cancel out.
func TestQuantileInsertAllocs(t *testing.T) {
	build := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			q := NewQuantile(0.01)
			for j := 0; j < n; j++ {
				q.Insert(float64(j*7919%1500) + float64(j%3)/4)
			}
			q.Tuples()
		})
	}
	small, large := build(1<<15), build(1<<17)
	if large > small+8 || small > 100 {
		t.Fatalf("a build allocates %.0f times over 32k values and %.0f over 128k: want O(1/ε), at most 100 and not growing", small, large)
	}
}

func TestQuantileBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1, 1, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuantile(%v) did not panic", eps)
				}
			}()
			NewQuantile(eps)
		}()
	}
}
