package experiments

import (
	"fmt"
	"strings"

	"dptrace/internal/analyses/degrees"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
)

// DegreesResult measures the §5.3 "easy" graph statistics: in/out
// degree CDFs at the three privacy levels.
type DegreesResult struct {
	OutCurves []Fig2Curve
	InCurves  []Fig2Curve
	Buckets   []int64
	OutExact  []float64
	InExact   []float64
}

// RunDegrees measures both degree distributions on the Hotspot trace.
func RunDegrees(seed uint64) *DegreesResult {
	h := hotspot()
	res := &DegreesResult{Buckets: toolkit.LinearBuckets(0, 4, 64)}
	exactCDF := func(values []int64) []float64 {
		freq := make([]float64, len(res.Buckets))
		for _, v := range values {
			idx := v / 4
			if idx >= 0 && int(idx) < len(freq) {
				freq[idx]++
			}
		}
		out := make([]float64, len(freq))
		run := 0.0
		for i, f := range freq {
			run += f
			out[i] = run
		}
		return out
	}
	res.OutExact = exactCDF(degrees.ExactOutDegrees(h.packets))
	res.InExact = exactCDF(degrees.ExactInDegrees(h.packets))

	q, curve := curveQueryable(h.packets)
	outDeg, inDeg := degrees.OutDegrees(q), degrees.InDegrees(q)
	id := func(v int64) int64 { return v }
	for i, eps := range Epsilons {
		curve.use(seed, uint64(170+i))
		out, err := toolkit.CDF2(outDeg, eps, id, res.Buckets)
		if err != nil {
			panic(err)
		}
		rmse, _ := stats.RMSE(out, res.OutExact)
		res.OutCurves = append(res.OutCurves, Fig2Curve{Epsilon: eps, Values: out, RMSE: rmse})

		curve.use(seed, uint64(180+i))
		in, err := toolkit.CDF2(inDeg, eps, id, res.Buckets)
		if err != nil {
			panic(err)
		}
		rmse, _ = stats.RMSE(in, res.InExact)
		res.InCurves = append(res.InCurves, Fig2Curve{Epsilon: eps, Values: in, RMSE: rmse})
	}
	return res
}

// String renders the RMSE summary.
func (r *DegreesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.3 — in/out degree distributions (the \"easy\" graph statistics)\n")
	for _, c := range r.OutCurves {
		fmt.Fprintf(&b, "out-degree CDF eps=%-5.1f relative RMSE = %.3f%%\n", c.Epsilon, c.RMSE*100)
	}
	for _, c := range r.InCurves {
		fmt.Fprintf(&b, "in-degree CDF  eps=%-5.1f relative RMSE = %.3f%%\n", c.Epsilon, c.RMSE*100)
	}
	return b.String()
}

// Series implements Plotter.
func (r *DegreesResult) Series() []Series {
	x := bucketsToX(r.Buckets)
	out := []Series{
		{Name: "out-noise-free", X: x, Y: r.OutExact},
		{Name: "in-noise-free", X: x, Y: r.InExact},
	}
	for _, c := range r.OutCurves {
		out = append(out, Series{Name: fmt.Sprintf("out-eps=%g", c.Epsilon), X: x, Y: c.Values})
	}
	for _, c := range r.InCurves {
		out = append(out, Series{Name: fmt.Sprintf("in-eps=%g", c.Epsilon), X: x, Y: c.Values})
	}
	return out
}
