package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"dptrace/internal/noise"
)

// Tests for the sketch-backed aggregations: the parallel sketch builds
// must be byte-identical to the sequential ones (the fixed-block /
// exact-merge determinism contract), the mechanisms must land near the
// true answers at generous ε, and the ε-contract (ctx before Apply,
// validation before charge, refusal on exhaustion) must match every
// other aggregation.

// TestSketchAggParallelMatchesSequential pins the shard-merge ==
// sequential-build guarantee under the real engine: same seeded noise
// source, any worker count, GOMAXPROCS 1 and 4 — identical outputs
// and identical charges.
func TestSketchAggParallelMatchesSequential(t *testing.T) {
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

		rng := rand.New(rand.NewSource(int64(400 + gmp)))
		// Sizes straddling sketchBlock so multi-block quantile builds
		// and uneven worker chunks are both exercised.
		for _, n := range []int{0, 1, 1023, sketchBlock - 1, sketchBlock + 1, 3 * sketchBlock} {
			flows := randomFlows(rng, n)
			aggs := []struct {
				name string
				run  func(q *Queryable[flowRec]) (float64, error)
			}{
				{"quantile", func(q *Queryable[flowRec]) (float64, error) {
					return NoisyQuantile(q, 0.5, 0.75, 0.02, func(f flowRec) float64 { return float64(f.Len) })
				}},
				{"distinctcount", func(q *Queryable[flowRec]) (float64, error) {
					return NoisyDistinctSketch(q, 0.5, func(f flowRec) string {
						return string(rune('A' + f.Src%128))
					})
				}},
			}
			for _, agg := range aggs {
				q, root := NewQueryable(flows, 100, noise.NewSeededSource(17, 19))
				seqV, seqErr := agg.run(q)
				for _, workers := range []int{2, 4, 7} {
					qp, rootP := NewQueryable(flows, 100, noise.NewSeededSource(17, 19))
					parV, parErr := agg.run(qp.WithExecOptions(parExec(workers)))
					if math.Float64bits(seqV) != math.Float64bits(parV) {
						t.Fatalf("%s (n=%d, workers=%d, gmp=%d): parallel %v differs from sequential %v",
							agg.name, n, workers, gmp, parV, seqV)
					}
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("%s (n=%d, workers=%d): errs %v vs %v", agg.name, n, workers, parErr, seqErr)
					}
					if root.Spent() != rootP.Spent() {
						t.Fatalf("%s (n=%d, workers=%d): charges differ", agg.name, n, workers)
					}
				}
			}
		}
	}
}

// TestNoisyQuantileAccuracy: at generous ε the mechanism's answer must
// sit within (sketch error + mechanism slack) of the true quantile's
// rank.
func TestNoisyQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	const n = 60000
	vals := make([]float64, n)
	recs := make([]flowRec, n)
	for i := range recs {
		l := rng.Intn(1500)
		recs[i] = flowRec{Len: l}
		vals[i] = float64(l)
	}
	sort.Float64s(vals)
	const sketchEps = 0.01
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.99} {
		q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(1, 1))
		got, err := NoisyQuantile(q, 50, frac, sketchEps, func(f flowRec) float64 { return float64(f.Len) })
		if err != nil {
			t.Fatal(err)
		}
		// Rank of the returned value vs the target rank.
		lo := sort.SearchFloat64s(vals, got)
		hi := sort.Search(n, func(i int) bool { return vals[i] > got })
		target := frac * n
		rankErr := 0.0
		if target < float64(lo) {
			rankErr = float64(lo) - target
		} else if target > float64(hi) {
			rankErr = target - float64(hi)
		}
		// Sketch contributes ≤ sketchEps·n; at ε=50 the exponential
		// mechanism adds a few hundred ranks of slack at most.
		if limit := sketchEps*n + 0.01*n; rankErr > limit {
			t.Errorf("fraction %.2f: returned %v has rank error %.0f > %.0f", frac, got, rankErr, limit)
		}
	}
}

// TestNoisyDistinctAccuracy: HLL estimate plus noise lands within a
// few percent of the true distinct count.
func TestNoisyDistinctAccuracy(t *testing.T) {
	const n, distinct = 40000, 2500
	recs := make([]flowRec, n)
	for i := range recs {
		recs[i] = flowRec{Src: uint32(i % distinct)}
	}
	q, _ := NewQueryable(recs, math.Inf(1), noise.NewSeededSource(3, 3))
	got, err := NoisyDistinctSketch(q, 50, func(f flowRec) string {
		return string(rune(f.Src)) + string(rune(f.Src>>8))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-distinct) / distinct; rel > 0.08 {
		t.Errorf("distinct estimate %v, true %d (%.1f%% off)", got, distinct, rel*100)
	}
}

// TestSketchAggContract: parameter validation, refusal, and empty
// inputs follow the shared aggregation contract.
func TestSketchAggContract(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	flows := randomFlows(rng, 200)
	lenOf := func(f flowRec) float64 { return float64(f.Len) }
	keyOf := func(f flowRec) string { return "k" }

	t.Run("validation-before-charge", func(t *testing.T) {
		q, root := NewQueryable(flows, 10, noise.NewSeededSource(1, 1))
		if _, err := NoisyQuantile(q, -1, 0.5, 0, lenOf); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("bad ε: %v", err)
		}
		if _, err := NoisyQuantile(q, 0.5, 2, 0, lenOf); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("bad fraction: %v", err)
		}
		if _, err := NoisyQuantile(q, 0.5, 0.5, -0.1, lenOf); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("bad sketchEps: %v", err)
		}
		if _, err := NoisyDistinctSketch(q, 0, keyOf); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("distinct bad ε: %v", err)
		}
		if spent := root.Spent(); spent != 0 {
			t.Fatalf("invalid parameters charged ε=%v", spent)
		}
	})

	t.Run("refusal", func(t *testing.T) {
		q, root := NewQueryable(flows, 1, noise.NewSeededSource(1, 1))
		if _, err := NoisyQuantile(q, 0.8, 0.5, 0, lenOf); err != nil {
			t.Fatal(err)
		}
		if _, err := NoisyDistinctSketch(q, 0.8, keyOf); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("want refusal, got %v", err)
		}
		if spent := root.Spent(); spent != 0.8 {
			t.Fatalf("refused aggregation moved the ledger: %v", spent)
		}
	})

	t.Run("empty", func(t *testing.T) {
		q, root := NewQueryable([]flowRec{}, 10, noise.NewSeededSource(1, 1))
		v, err := NoisyQuantile(q, 0.5, 0.5, 0, lenOf)
		if err != nil || v != 0 {
			t.Fatalf("empty quantile: (%v, %v), want (0, nil)", v, err)
		}
		// The distinct count still answers (pure noise) on empty data,
		// like NoisyCount.
		if _, err := NoisyDistinctSketch(q, 0.5, keyOf); err != nil {
			t.Fatalf("empty distinct: %v", err)
		}
		// Both charged.
		if spent := root.Spent(); spent != 1 {
			t.Fatalf("spent %v, want 1", spent)
		}
	})
}

// TestQuantileDefaultSketchEps: passing 0 selects the documented
// default accuracy rather than failing validation.
func TestQuantileDefaultSketchEps(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	flows := randomFlows(rng, 1000)
	q, _ := NewQueryable(flows, 10, noise.NewSeededSource(1, 1))
	if _, err := NoisyQuantile(q, 0.5, 0.5, 0, func(f flowRec) float64 { return float64(f.Len) }); err != nil {
		t.Fatalf("sketchEps=0 (default): %v", err)
	}
}
