package experiments

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/analyses/flowcdf"
	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/stats"
)

// FlowCDFPoint is one privacy level of the flow-size CDF: the noisy
// quantile curve and its relative RMSE against the noise-free curve.
type FlowCDFPoint struct {
	Epsilon float64 // per-probe ε (total charge is 2·K·ε)
	Values  []float64
	RMSE    float64
}

// FlowCDFResult is the accuracy-vs-ε sweep of the flow-size CDF
// (packets per src→dst host pair) from noisy order statistics over the
// public domain [1, flowcdf.MaxFlowSize].
type FlowCDFResult struct {
	Fractions []float64
	Exact     []float64
	Points    []FlowCDFPoint
}

// RunFlowCDF probes the flow-size distribution at a tail-weighted grid
// of rank fractions for each privacy level, reporting the error of the
// rank-spaced method as ε shrinks.
func RunFlowCDF(seed uint64) *FlowCDFResult {
	h := hotspot()
	res := &FlowCDFResult{Fractions: flowcdf.TailFractions()}
	res.Exact = flowcdf.ExactFlowSizeCDF(h.packets, res.Fractions)

	for i, eps := range Epsilons {
		q, _ := core.NewQueryable(h.packets, math.Inf(1), noise.NewSeededSource(seed, uint64(50+i)))
		values, err := flowcdf.PrivateFlowSizeCDF(q, eps, res.Fractions)
		if err != nil {
			panic(err)
		}
		rmse, _ := stats.RMSE(values, res.Exact)
		res.Points = append(res.Points, FlowCDFPoint{Epsilon: eps, Values: values, RMSE: rmse})
	}
	return res
}

// String renders the accuracy-vs-ε table.
func (r *FlowCDFResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flow-size CDF — noisy order statistics over the public domain [1, 2^20]\n")
	fmt.Fprintf(&b, "%-10s", "fraction")
	for _, f := range r.Fractions {
		fmt.Fprintf(&b, "%8.3f", f)
	}
	fmt.Fprintf(&b, "\n%-10s", "exact")
	for _, v := range r.Exact {
		fmt.Fprintf(&b, "%8.0f", v)
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "eps=%-6.1f", p.Epsilon)
		for _, v := range p.Values {
			fmt.Fprintf(&b, "%8.0f", v)
		}
		fmt.Fprintf(&b, "  relative RMSE = %.2f%%\n", p.RMSE*100)
	}
	return b.String()
}
