package experiments

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dptrace/internal/analyses/degrees"
	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/analyses/steppingstone"
	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// fresh wraps records in a Queryable of their own on stream
// (seed, stream): the reference below re-derives every curve's dataset
// on one, the way each curve did before the figures shared a
// derivation.
func fresh[T any](records []T, seed, stream uint64) *core.Queryable[T] {
	q, _ := core.NewQueryable(records, math.Inf(1), noise.NewSeededSource(seed, stream))
	return q
}

// sameFloats fails unless got and want hold the same float64s, bit for
// bit. The bench's analyses digest cannot see drift here: it hashes the
// rounded String() tables.
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, re-derived per curve %v", name, i, got[i], want[i])
		}
	}
}

// TestSharedDerivationMatchesPerCurve: a figure that derives its
// protected dataset once and measures every curve on it releases, curve
// for curve and float for float, what it released when each curve
// derived the dataset on its own Queryable and noise stream.
func TestSharedDerivationMatchesPerCurve(t *testing.T) {
	const seed = 1
	h := hotspot()
	id := func(v int64) int64 { return v }

	t.Run("fig1", func(t *testing.T) {
		const total = 1.0
		res := RunFig1(seed, total)
		buckets := res.BucketsMs
		nb := float64(len(buckets))
		curves := []struct {
			name   string
			stream uint64
			got    []float64
			cdf    func(q *core.Queryable[int64]) ([]float64, error)
		}{
			{"cdf1", 11, res.CDF1, func(q *core.Queryable[int64]) ([]float64, error) {
				return toolkit.CDF1(q, total/nb, id, buckets)
			}},
			{"cdf2", 12, res.CDF2, func(q *core.Queryable[int64]) ([]float64, error) {
				return toolkit.CDF2(q, total, id, buckets)
			}},
			{"cdf3", 13, res.CDF3, func(q *core.Queryable[int64]) ([]float64, error) {
				return toolkit.CDF3(q, total/(math.Log2(nb)+1), id, buckets)
			}},
		}
		for _, c := range curves {
			want, err := c.cdf(flowstats.RetransmitDelaysMs(fresh(h.headers, seed, c.stream)))
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, c.name, c.got, want)
		}
	})

	t.Run("fig3", func(t *testing.T) {
		res := RunFig3(seed)
		for i, eps := range Epsilons {
			want, err := flowstats.PrivateRTTCDF(fresh(h.headers, seed, uint64(80+i)), eps, res.RTTBucketsMs)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, fmt.Sprintf("rtt eps=%g", eps), res.RTTCurves[i].Values, want)
			want, err = flowstats.PrivateLossCDF(fresh(h.headers, seed, uint64(90+i)), eps, lossMinPackets, res.LossBuckets)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, fmt.Sprintf("loss eps=%g", eps), res.LossCurves[i].Values, want)
		}
	})

	t.Run("degrees", func(t *testing.T) {
		res := RunDegrees(seed)
		for i, eps := range Epsilons {
			want, err := degrees.PrivateOutDegreeCDF(fresh(h.packets, seed, uint64(170+i)), eps, res.Buckets)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, fmt.Sprintf("out eps=%g", eps), res.OutCurves[i].Values, want)
			want, err = degrees.PrivateInDegreeCDF(fresh(h.packets, seed, uint64(180+i)), eps, res.Buckets)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, fmt.Sprintf("in eps=%g", eps), res.InCurves[i].Values, want)
		}
	})

	t.Run("table5", func(t *testing.T) {
		res := table5Seed1()
		perLevel := func(d *hotspotData, seed uint64) []Table5Level {
			return runTable5On(d, func(i int) *core.Queryable[steppingstone.Activation] {
				return steppingstone.Activations(fresh(d.packets, seed, uint64(100+i)), steppingstone.DefaultTIdleUs)
			})
		}
		if want := perLevel(hotspot(), seed); !reflect.DeepEqual(res.Levels, want) {
			t.Fatalf("paper-scale levels\n got %+v\nwant %+v", res.Levels, want)
		}
		if want := perLevel(hotspotSparse(), seed+1000); !reflect.DeepEqual(res.SparseLevels, want) {
			t.Fatalf("low-signal levels\n got %+v\nwant %+v", res.SparseLevels, want)
		}
	})

	t.Run("thresholds", func(t *testing.T) {
		res := thresholdsSeed1()
		want := thresholdSweep(res.Epsilon, func(i int) *core.Queryable[[]byte] {
			return payloadPrefixes(fresh(h.packets, seed, uint64(160+i)))
		})
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("sweep\n got %+v\nwant %+v", res, want)
		}
	})
}

// TestCurveSourceRefusesDerivationNoise: the shared derivation runs on
// an unset source, so noise drawn before a curve picks its stream fails
// loudly instead of shifting that curve's draws.
func TestCurveSourceRefusesDerivationNoise(t *testing.T) {
	q, curve := curveQueryable([]trace.Packet{{Header: trace.Header{Len: 1}}})
	if _, err := q.NoisyCount(1); !errors.Is(err, core.ErrInternal) {
		t.Fatalf("a count on an unset curveSource: err %v, want core.ErrInternal", err)
	}
	curve.use(1, 2)
	if _, err := q.NoisyCount(1); err != nil {
		t.Fatalf("a count after use: %v", err)
	}
}
