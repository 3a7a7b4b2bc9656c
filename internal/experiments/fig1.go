package experiments

import (
	"fmt"
	"math"
	"strings"

	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
)

// Fig1Result compares the three CDF estimators against the noise-free
// CDF of retransmission time differences (paper Figure 1), at an
// equal TOTAL privacy budget so the error comparison is fair.
type Fig1Result struct {
	TotalEpsilon float64
	BucketsMs    []int64
	Exact        []float64
	CDF1         []float64
	CDF2         []float64
	CDF3         []float64
	// CDF3Isotonic is CDF3 post-processed with isotonic regression —
	// the smoothing the paper mentions can help (§4.1 ablation).
	CDF3Isotonic []float64
	// AbsRMSE per method against Exact.
	AbsRMSE1, AbsRMSE2, AbsRMSE3, AbsRMSE3Iso float64
}

// RunFig1 measures the retransmission-delay CDF (1 ms buckets,
// 0-256 ms) with all three estimators, each spending the same total
// budget.
func RunFig1(seed uint64, totalEpsilon float64) *Fig1Result {
	h := hotspot()
	buckets := toolkit.LinearBuckets(0, 1, 256)
	exact := flowstats.ExactCDFFromValues(flowstats.ExactRetransmitDelaysMs(h.headers), buckets)

	res := &Fig1Result{TotalEpsilon: totalEpsilon, BucketsMs: buckets, Exact: exact}
	nb := float64(len(buckets))
	levels := math.Log2(nb) + 1

	// All three measure one derived dataset, each on its own noise
	// stream; each estimator's per-measurement ε is scaled so the TOTAL
	// cost (through the GroupBy ×2 of the retransmit derivation)
	// matches.
	q, curve := curveQueryable(h.headers)
	delays := flowstats.RetransmitDelaysMs(q)
	run := func(stream uint64, f func() ([]float64, error)) []float64 {
		curve.use(seed, stream)
		out, err := f()
		if err != nil {
			panic(err)
		}
		return out
	}
	id := func(v int64) int64 { return v }
	res.CDF1 = run(11, func() ([]float64, error) {
		return toolkit.CDF1(delays, totalEpsilon/nb, id, buckets)
	})
	res.CDF2 = run(12, func() ([]float64, error) {
		return toolkit.CDF2(delays, totalEpsilon, id, buckets)
	})
	res.CDF3 = run(13, func() ([]float64, error) {
		return toolkit.CDF3(delays, totalEpsilon/levels, id, buckets)
	})
	res.CDF3Isotonic = toolkit.IsotonicRegression(res.CDF3)

	res.AbsRMSE1, _ = stats.AbsRMSE(res.CDF1, exact)
	res.AbsRMSE2, _ = stats.AbsRMSE(res.CDF2, exact)
	res.AbsRMSE3, _ = stats.AbsRMSE(res.CDF3, exact)
	res.AbsRMSE3Iso, _ = stats.AbsRMSE(res.CDF3Isotonic, exact)
	return res
}

// String renders the per-method errors and a sampled series.
func (r *Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — CDF estimators on retransmission time diffs (total eps=%.2f, %d buckets)\n",
		r.TotalEpsilon, len(r.BucketsMs))
	fmt.Fprintf(&b, "abs RMSE: cdf1=%.1f  cdf2=%.1f  cdf3=%.1f  cdf3+isotonic=%.1f\n",
		r.AbsRMSE1, r.AbsRMSE2, r.AbsRMSE3, r.AbsRMSE3Iso)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "ms", "noise-free", "cdf1", "cdf2", "cdf3")
	for i := 0; i < len(r.BucketsMs); i += 32 {
		fmt.Fprintf(&b, "%6d %12.0f %12.0f %12.0f %12.0f\n",
			r.BucketsMs[i], r.Exact[i], r.CDF1[i], r.CDF2[i], r.CDF3[i])
	}
	return b.String()
}
