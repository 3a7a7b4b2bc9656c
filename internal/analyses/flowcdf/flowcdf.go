// Package flowcdf measures the distribution of flow sizes — packets
// per src→dst host conversation — as a differentially-private CDF
// built from noisy order statistics. Where the toolkit's CDF
// estimators fix a value grid and measure noisy counts per bucket,
// this analysis inverts the axes: it fixes a grid of rank fractions and
// asks the engine's NoisyOrderStatistic for the flow size at each rank.
// That suits heavy-tailed flow-size distributions, where a fixed value
// grid wastes resolution on the sparse tail; rank-spaced probes adapt
// to wherever the mass is.
//
// The pipeline is GroupBy(host pair) → count per group → order
// statistic over the public domain [1, MaxFlowSize]. Sensitivity: GroupBy doubles sensitivity (one packet can
// leave one conversation and join another), and each probe is an
// exponential-mechanism release of sensitivity 1, so a K-point CDF at
// per-probe ε costs 2·K·ε of the (packet-principal) budget.
package flowcdf

import (
	"fmt"
	"sort"

	"dptrace/internal/core"
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

// MaxFlowSize is the public upper end of the flow-size domain the
// probes draw from: a flow larger than 2^20 packets reads as 2^20.
const MaxFlowSize = 1 << 20

// PrivateFlowSizeCDF returns the noisy flow size at each rank fraction,
// spending epsilonPerProbe on each (2× that in sensitivity-adjusted
// charge, from the GroupBy).
func PrivateFlowSizeCDF(q *core.Queryable[trace.Packet], epsilonPerProbe float64, fractions []float64) ([]float64, error) {
	grouped := core.GroupBy(q, keyOf)
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		v, err := core.NoisyOrderStatistic(grouped, epsilonPerProbe, f, 1, MaxFlowSize,
			func(g core.Group[FlowKey, trace.Packet]) int64 { return int64(len(g.Items)) })
		if err != nil {
			return nil, fmt.Errorf("flowcdf: probe %d (fraction %v): %w", i, f, err)
		}
		out[i] = float64(v)
	}
	return out, nil
}

// ExactFlowSizeCDF is the noise-free baseline: per-flow packet counts,
// read at the same rank fractions (the value at rank ⌊f·n⌋, counting
// from 0).
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
