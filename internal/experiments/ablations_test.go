package experiments

import (
	"math"
	"testing"
)

// TestEMAblationShape: at equal per-iteration budget, private EM must
// not beat private k-means (its per-measurement noise is ~K× larger),
// and both stay above the exact baseline.
func TestEMAblationShape(t *testing.T) {
	// Average over seeds: both algorithms are noisy.
	var kmSum, emSum, exact float64
	var res *EMAblationResult // seed 1's run
	const runs = 3
	for s := uint64(1); s <= runs; s++ {
		r := RunEMAblation(s, 1.0)
		if res == nil {
			res = r
		}
		kmSum += r.KMeansFinal
		emSum += r.EMFinal
		exact = r.ExactFinal
	}
	km, em := kmSum/runs, emSum/runs
	if em < km*0.95 {
		t.Errorf("EM (%v) beat k-means (%v) at equal budget", em, km)
	}
	if km < exact*0.9 {
		t.Errorf("private k-means (%v) implausibly beats exact (%v)", km, exact)
	}
	if res.EMMeasurements <= res.KMeansMeasurements {
		t.Errorf("EM measurement count %d not above k-means %d",
			res.EMMeasurements, res.KMeansMeasurements)
	}
}

// TestCDFScalingLaws: fitted log-log slopes must match §4.1's error
// laws — cdf1 ≈ 1, cdf2 ≈ 0.5, cdf3 clearly sublinear and below cdf2.
func TestCDFScalingLaws(t *testing.T) {
	res := RunCDFScaling(1, 1.0)
	if math.Abs(res.FittedExponents[0]-1.0) > 0.15 {
		t.Errorf("cdf1 slope %v, theory 1", res.FittedExponents[0])
	}
	if math.Abs(res.FittedExponents[1]-0.5) > 0.2 {
		t.Errorf("cdf2 slope %v, theory 0.5", res.FittedExponents[1])
	}
	if res.FittedExponents[2] > res.FittedExponents[1] {
		t.Errorf("cdf3 slope %v not below cdf2 %v",
			res.FittedExponents[2], res.FittedExponents[1])
	}
	// At every resolution, cdf1 is the worst.
	for i := range res.BucketCounts {
		if res.RMSE[0][i] < res.RMSE[1][i] || res.RMSE[0][i] < res.RMSE[2][i] {
			t.Errorf("buckets=%d: cdf1 (%v) not worst (cdf2 %v, cdf3 %v)",
				res.BucketCounts[i], res.RMSE[0][i], res.RMSE[1][i], res.RMSE[2][i])
		}
	}
}

// TestPrincipalGranularityCost: coarsening the principal from packets
// to hosts must cost substantial accuracy at the same ε.
func TestPrincipalGranularityCost(t *testing.T) {
	res := RunPrincipal(1, 0.1)
	if res.HostPrincipalRMSE < 5*res.PacketPrincipalRMSE {
		t.Errorf("host principal RMSE %v not clearly above packet principal %v",
			res.HostPrincipalRMSE, res.PacketPrincipalRMSE)
	}
	if res.Hosts >= res.Packets {
		t.Errorf("host records (%d) should be far fewer than packets (%d)",
			res.Hosts, res.Packets)
	}
}

// TestThresholdSweepShape: the §4.3 claim — sub-noise thresholds flood
// the output with noise-promoted junk; very high thresholds prune real
// strings; a noise-aware middle recovers everything cleanly.
func TestThresholdSweepShape(t *testing.T) {
	res := thresholdsSeed1()
	if res.FalsePositives[0] < 20 {
		t.Errorf("sub-noise threshold admitted only %d false positives; expected a flood",
			res.FalsePositives[0])
	}
	// Some middle threshold is clean and complete.
	clean := false
	for i := range res.Thresholds {
		if res.TruePositives[i] == sweepTopK && res.FalsePositives[i] == 0 {
			clean = true
		}
	}
	if !clean {
		t.Error("no threshold recovered all planted strings without false positives")
	}
	// The highest threshold prunes real strings.
	last := len(res.Thresholds) - 1
	if res.TruePositives[last] >= sweepTopK {
		t.Errorf("threshold %v should prune real strings, recovered %d",
			res.Thresholds[last], res.TruePositives[last])
	}
}
