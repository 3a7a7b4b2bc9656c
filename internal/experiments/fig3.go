package experiments

import (
	"fmt"
	"strings"

	"dptrace/internal/analyses/flowstats"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
)

// Fig3Result reproduces Figure 3: CDFs of per-flow RTT and downstream
// loss rate at the three privacy levels (paper RMSEs at ε=0.1: 2.8%
// for RTT, 0.2% for loss rate).
type Fig3Result struct {
	RTTBucketsMs []int64
	RTTExact     []float64
	RTTCurves    []Fig2Curve
	LossBuckets  []int64 // permille
	LossExact    []float64
	LossCurves   []Fig2Curve
}

// lossMinPackets is the paper's flow-size cut for loss rates.
const lossMinPackets = 10

// RunFig3 measures both flow-property CDFs.
func RunFig3(seed uint64) *Fig3Result {
	h := hotspot()
	res := &Fig3Result{
		RTTBucketsMs: toolkit.LinearBuckets(0, 10, 64), // 10 ms to 640 ms
		LossBuckets:  toolkit.LinearBuckets(0, 25, 41), // permille to 1025
	}
	rttMs := make([]int64, 0)
	for _, us := range flowstats.ExactRTTs(h.headers) {
		rttMs = append(rttMs, us/1000)
	}
	res.RTTExact = flowstats.ExactCDFFromValues(rttMs, res.RTTBucketsMs)
	res.LossExact = flowstats.ExactCDFFromValues(
		flowstats.ExactLossPermille(h.headers, lossMinPackets), res.LossBuckets)

	// Each curve measures the two derived datasets on its own noise
	// stream; the Join and the GroupBy run once for all three ε.
	q, curve := curveQueryable(h.headers)
	rtts := flowstats.RTTMicros(q)
	loss := flowstats.LossPermille(q, lossMinPackets)
	for i, eps := range Epsilons {
		curve.use(seed, uint64(80+i))
		values, err := toolkit.CDF2(rtts, eps, func(us int64) int64 { return us / 1000 }, res.RTTBucketsMs)
		if err != nil {
			panic(err)
		}
		rmse, _ := stats.RMSE(values, res.RTTExact)
		res.RTTCurves = append(res.RTTCurves, Fig2Curve{Epsilon: eps, Values: values, RMSE: rmse})

		curve.use(seed, uint64(90+i))
		values, err = toolkit.CDF2(loss, eps, func(v int64) int64 { return v }, res.LossBuckets)
		if err != nil {
			panic(err)
		}
		rmse, _ = stats.RMSE(values, res.LossExact)
		res.LossCurves = append(res.LossCurves, Fig2Curve{Epsilon: eps, Values: values, RMSE: rmse})
	}
	return res
}

// String renders the RMSE summary.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — flow RTT and loss-rate CDFs\n")
	for _, c := range r.RTTCurves {
		fmt.Fprintf(&b, "RTT CDF   eps=%-5.1f relative RMSE = %.3f%% (paper at 0.1: 2.8%%)\n",
			c.Epsilon, c.RMSE*100)
	}
	for _, c := range r.LossCurves {
		fmt.Fprintf(&b, "loss CDF  eps=%-5.1f relative RMSE = %.3f%% (paper at 0.1: 0.2%%)\n",
			c.Epsilon, c.RMSE*100)
	}
	return b.String()
}
