package experiments

import (
	"fmt"
	"strings"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/toolkit"
)

// ThresholdSweepResult quantifies the paper's counter-intuitive §4.3
// remark — "these high thresholds allow us to learn more" — on the
// frequent-string search: too LOW a threshold floods the candidate
// set with noise-promoted prefixes (splitting attention and compute,
// and at the extreme exploding the branching), while too HIGH a
// threshold prunes genuinely frequent strings. The sweep measures
// both failure modes at a fixed privacy level.
type ThresholdSweepResult struct {
	Epsilon    float64
	Thresholds []float64
	// TruePositives[i] is how many of the generator's 25 most
	// frequent planted strings were recovered at Thresholds[i];
	// FalsePositives[i] is how many reported strings are not planted
	// at all.
	TruePositives  []int
	FalsePositives []int
	// Candidates[i] is the total number of strings reported.
	Candidates []int
}

// sweepTopK is how many planted strings the sweep scores against.
const sweepTopK = 25

// RunThresholdSweep sweeps the survival threshold at ε=0.5/round.
func RunThresholdSweep(seed uint64, epsilon float64) *ThresholdSweepResult {
	// Every threshold searches one derived payload dataset, each on its
	// own noise stream.
	q, curve := curveQueryable(hotspot().packets)
	payloads := payloadPrefixes(q)
	return thresholdSweep(epsilon, func(i int) *core.Queryable[[]byte] {
		curve.use(seed, uint64(160+i))
		return payloads
	})
}

// thresholdSweep runs the sweep; payloadsAt hands point i (at
// Thresholds[i]) the payloads it searches.
func thresholdSweep(epsilon float64, payloadsAt func(point int) *core.Queryable[[]byte]) *ThresholdSweepResult {
	// Ground truth: the top planted strings by 8-byte prefix.
	trueCount := plantedPrefixCounts(hotspot())
	type kv struct {
		s string
		n int
	}
	ranked := make([]kv, 0, len(trueCount))
	for s, n := range trueCount {
		ranked = append(ranked, kv{s, n})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[i].n {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	top := make(map[string]bool)
	for i := 0; i < sweepTopK && i < len(ranked); i++ {
		top[ranked[i].s] = true
	}

	noiseStd := noise.LaplaceStd(epsilon)
	res := &ThresholdSweepResult{
		Epsilon: epsilon,
		// From well below the noise floor to well above the planted
		// counts.
		Thresholds: []float64{noiseStd, 3 * noiseStd, 60, 120, 300, 1000, 5000},
	}
	for i, thr := range res.Thresholds {
		found, err := toolkit.FrequentStrings(payloadsAt(i), toolkit.FrequentStringsConfig{
			Length:          prefixLen,
			EpsilonPerRound: epsilon,
			Threshold:       thr,
			MaxCandidates:   512,
		})
		if err != nil {
			panic(err)
		}
		tp, fp := 0, 0
		for _, sc := range found {
			s := string(sc.Value)
			switch {
			case top[s]:
				tp++
			case trueCount[s] == 0:
				fp++
			}
		}
		res.TruePositives = append(res.TruePositives, tp)
		res.FalsePositives = append(res.FalsePositives, fp)
		res.Candidates = append(res.Candidates, len(found))
	}
	return res
}

// String renders the sweep.
func (r *ThresholdSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — frequent-string threshold sweep (eps/round=%g, top-%d scored)\n",
		r.Epsilon, sweepTopK)
	fmt.Fprintf(&b, "%10s %12s %10s %10s\n", "threshold", "candidates", "true+", "false+")
	for i, thr := range r.Thresholds {
		fmt.Fprintf(&b, "%10.1f %12d %10d %10d\n",
			thr, r.Candidates[i], r.TruePositives[i], r.FalsePositives[i])
	}
	fmt.Fprintf(&b, "(low thresholds admit noise-promoted junk; very high thresholds prune real strings)\n")
	return b.String()
}

// Series implements Plotter.
func (r *ThresholdSweepResult) Series() []Series {
	x := r.Thresholds
	tp := make([]float64, len(r.TruePositives))
	fp := make([]float64, len(r.FalsePositives))
	for i := range tp {
		tp[i] = float64(r.TruePositives[i])
		fp[i] = float64(r.FalsePositives[i])
	}
	return []Series{
		{Name: "true-positives", X: x, Y: tp},
		{Name: "false-positives", X: x, Y: fp},
	}
}
