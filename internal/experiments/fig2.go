package experiments

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/analyses/packetdist"
	"dptrace/internal/core"
	"dptrace/internal/noise"
)

// Fig2Curve is one private CDF at one privacy level with its relative
// RMSE against the noise-free curve.
type Fig2Curve struct {
	Epsilon float64
	Values  []float64
	RMSE    float64
}

// Fig2Result reproduces Figure 2: packet-length and destination-port
// CDFs at the three privacy levels, plus the paper's 1/10th-data
// sensitivity check.
type Fig2Result struct {
	LengthBuckets []int64
	LengthExact   []float64
	LengthCurves  []Fig2Curve
	PortBuckets   []int64
	PortExact     []float64
	PortCurves    []Fig2Curve
	// TenthDataRMSE is the length-CDF RMSE at ε=0.1 using only a
	// tenth of the trace (paper: 0.01% → 0.02%).
	TenthDataRMSE float64
}

// RunFig2 measures both distributions with the CDF2 method the paper
// uses for its experiments.
func RunFig2(seed uint64) *Fig2Result {
	h := hotspot()
	res := &Fig2Result{
		LengthBuckets: packetdist.LengthBuckets(8),
		PortBuckets:   packetdist.PortBuckets(256),
	}
	res.LengthExact = packetdist.ExactLengthCDF(h.headers, res.LengthBuckets)
	res.PortExact = packetdist.ExactPortCDF(h.headers, res.PortBuckets)

	for i, eps := range Epsilons {
		q, _ := core.NewQueryable(h.headers, math.Inf(1), noise.NewSeededSource(seed, uint64(20+i)))
		values, err := packetdist.LengthCDF(q, eps, res.LengthBuckets)
		if err != nil {
			panic(err)
		}
		rmse, _ := packetdist.RMSE(values, res.LengthExact)
		res.LengthCurves = append(res.LengthCurves, Fig2Curve{Epsilon: eps, Values: values, RMSE: rmse})

		q, _ = core.NewQueryable(h.headers, math.Inf(1), noise.NewSeededSource(seed, uint64(30+i)))
		values, err = packetdist.PortCDF(q, eps, res.PortBuckets)
		if err != nil {
			panic(err)
		}
		rmse, _ = packetdist.RMSE(values, res.PortExact)
		res.PortCurves = append(res.PortCurves, Fig2Curve{Epsilon: eps, Values: values, RMSE: rmse})
	}

	// Paper's robustness probe: a tenth of the data at ε=0.1.
	tenth := h.headers[:len(h.headers)/10]
	tenthExact := packetdist.ExactLengthCDF(tenth, res.LengthBuckets)
	q, _ := core.NewQueryable(tenth, math.Inf(1), noise.NewSeededSource(seed, 40))
	values, err := packetdist.LengthCDF(q, 0.1, res.LengthBuckets)
	if err != nil {
		panic(err)
	}
	res.TenthDataRMSE, _ = packetdist.RMSE(values, tenthExact)
	return res
}

// String renders the RMSE summary Figure 2's caption reports.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — packet length and port CDFs (CDF2 method)\n")
	for _, c := range r.LengthCurves {
		fmt.Fprintf(&b, "length CDF  eps=%-5.1f relative RMSE = %.4f%%\n", c.Epsilon, c.RMSE*100)
	}
	for _, c := range r.PortCurves {
		fmt.Fprintf(&b, "port CDF    eps=%-5.1f relative RMSE = %.4f%%\n", c.Epsilon, c.RMSE*100)
	}
	fmt.Fprintf(&b, "length CDF  eps=0.1 on 1/10th data: RMSE = %.4f%%\n", r.TenthDataRMSE*100)
	// The length spikes the paper highlights.
	spike := func(buckets []int64, cdf []float64, at int64) float64 {
		for i, edge := range buckets {
			if edge > at {
				if i == 0 {
					return cdf[0]
				}
				return cdf[i] - cdf[i-1]
			}
		}
		return 0
	}
	fmt.Fprintf(&b, "spikes in noise-free length CDF: @40B=%.0f pkts, @1492B=%.0f pkts\n",
		spike(r.LengthBuckets, r.LengthExact, 40), spike(r.LengthBuckets, r.LengthExact, 1492))
	return b.String()
}
