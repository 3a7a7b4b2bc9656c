// Package flowcdf measures the distribution of flow sizes — packets
// per src→dst host conversation — as a differentially-private CDF
// built from noisy quantiles. Where the toolkit's CDF estimators fix a
// value grid and measure noisy counts per bucket, this analysis
// inverts the axes: it fixes a grid of rank fractions and asks the
// engine's sketch-backed NoisyQuantile for the flow size at each rank.
// That suits heavy-tailed flow-size distributions, where a fixed value
// grid wastes resolution on the sparse tail; rank-spaced probes adapt
// to wherever the mass is.
//
// The pipeline is GroupBy(host pair) → count per group → quantile,
// executed on the engine's fused streaming path: the per-group size
// projection fuses into the one-pass sketch build, with no
// intermediate size slice. Sensitivity: GroupBy doubles sensitivity
// (one packet can leave one conversation and join another), and each
// quantile is an exponential-mechanism release of sensitivity 1, so a
// K-point CDF at per-probe ε costs 2·K·ε of the (packet-principal)
// budget.
package flowcdf

import (
	"fmt"
	"sort"

	"dptrace/internal/core"
	"dptrace/internal/stats"
	"dptrace/internal/trace"
)

// FlowKey identifies a conversation: the directed src→dst host pair.
type FlowKey struct {
	Src, Dst trace.IPv4
}

func keyOf(p trace.Packet) FlowKey {
	return FlowKey{Src: p.SrcIP, Dst: p.DstIP}
}

// Fractions returns k rank fractions evenly spaced on (0, 1):
// 1/(k+1), 2/(k+1), …, k/(k+1) — the probe grid for a k-point CDF.
func Fractions(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(i+1) / float64(k+1)
	}
	return out
}

// TailFractions is a probe grid weighted toward the upper tail, where
// heavy-tailed flow-size distributions carry their information.
func TailFractions() []float64 {
	return []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
}

// PrivateFlowSizeCDF returns the noisy flow-size quantile at each rank
// fraction, spending epsilonPerProbe on each (2× that in sensitivity-
// adjusted charge, from the GroupBy). sketchEps is the rank-accuracy
// target of the underlying mergeable summary (0 = engine default).
func PrivateFlowSizeCDF(q *core.Queryable[trace.Packet], epsilonPerProbe, sketchEps float64, fractions []float64) ([]float64, error) {
	grouped := core.GroupBy(q, keyOf)
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		sizes := core.StreamSelect(grouped.Stream(),
			func(g core.Group[FlowKey, trace.Packet]) float64 { return float64(len(g.Items)) })
		v, err := core.NoisyQuantile(sizes, epsilonPerProbe, f, sketchEps,
			func(s float64) float64 { return s })
		if err != nil {
			return nil, fmt.Errorf("flowcdf: probe %d (fraction %v): %w", i, f, err)
		}
		out[i] = v
	}
	return out, nil
}

// ExactFlowSizeCDF is the noise-free baseline: per-flow packet counts,
// read at the same rank fractions with the same lower-rank convention
// the quantile sketch uses (value at rank ⌈f·n⌉).
func ExactFlowSizeCDF(packets []trace.Packet, fractions []float64) []float64 {
	counts := map[FlowKey]int{}
	for _, p := range packets {
		counts[keyOf(p)]++
	}
	sizes := make([]float64, 0, len(counts))
	for _, n := range counts {
		sizes = append(sizes, float64(n))
	}
	sort.Float64s(sizes)
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		if len(sizes) == 0 {
			continue
		}
		rank := int(f * float64(len(sizes)))
		if rank >= len(sizes) {
			rank = len(sizes) - 1
		}
		out[i] = sizes[rank]
	}
	return out
}

// RMSE is the relative root-mean-square error between a private curve
// and its exact baseline.
func RMSE(private, exact []float64) (float64, error) {
	return stats.RMSE(private, exact)
}
