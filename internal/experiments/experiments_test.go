package experiments

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// These tests assert the SHAPE of every reproduced table and figure:
// who wins, by roughly what factor, and where the crossovers fall —
// the reproduction contract stated in DESIGN.md.

// The seed-1 runs that several tests read are made once per test
// binary: under -race each takes seconds. Tests only read them.
var (
	table5Seed1     = sync.OnceValue(func() *Table5Result { return RunTable5(1) })
	thresholdsSeed1 = sync.OnceValue(func() *ThresholdSweepResult { return RunThresholdSweep(1, 0.5) })
)

func TestTable1NoiseMatchesTheory(t *testing.T) {
	res := RunTable1(1)
	for _, row := range res.Rows {
		if row.Operation == "Median imbalance" {
			// Table 1 says "approx"; the exponential mechanism's
			// imbalance is the right order but not exactly Laplace.
			if row.EmpiricalStd > 5*row.TheoryStd+1 {
				t.Errorf("%s eps=%v: empirical %v way above theory %v",
					row.Operation, row.Epsilon, row.EmpiricalStd, row.TheoryStd)
			}
			continue
		}
		if math.Abs(row.EmpiricalStd-row.TheoryStd)/row.TheoryStd > 0.10 {
			t.Errorf("%s eps=%v: empirical std %v, theory %v",
				row.Operation, row.Epsilon, row.EmpiricalStd, row.TheoryStd)
		}
	}
	if math.Abs(res.GroupByFactor-2) > 1e-9 {
		t.Errorf("GroupBy factor %v, want 2", res.GroupByFactor)
	}
	if math.Abs(res.PartitionCostRatio-1) > 1e-9 {
		t.Errorf("Partition cost ratio %v, want 1", res.PartitionCostRatio)
	}
	if res.JoinLeftCost != 1 || res.JoinRightCost != 1 {
		t.Errorf("Join costs %v/%v, want 1/1", res.JoinLeftCost, res.JoinRightCost)
	}
}

func TestQuickstartWithinExpectedError(t *testing.T) {
	res := RunQuickstart(1)
	if math.Abs(res.NoisyCount-float64(res.TrueCount)) > 2*res.ExpectedErr {
		t.Errorf("noisy %v vs true %d exceeds twice the expected error %v",
			res.NoisyCount, res.TrueCount, res.ExpectedErr)
	}
	if math.Abs(res.BudgetSpent-0.2) > 1e-9 {
		t.Errorf("budget spent %v, want 0.2 (GroupBy doubles 0.1)", res.BudgetSpent)
	}
}

// TestFig1ErrorOrdering is the Figure 1 claim: at equal total budget,
// the naive estimator's error dwarfs the partition-based ones.
func TestFig1ErrorOrdering(t *testing.T) {
	res := RunFig1(1, 1.0)
	if res.AbsRMSE1 < 3*res.AbsRMSE2 {
		t.Errorf("cdf1 RMSE %v not clearly above cdf2 %v", res.AbsRMSE1, res.AbsRMSE2)
	}
	if res.AbsRMSE1 < 3*res.AbsRMSE3 {
		t.Errorf("cdf1 RMSE %v not clearly above cdf3 %v", res.AbsRMSE1, res.AbsRMSE3)
	}
	// cdf2 and cdf3 should both be small relative to the data scale
	// (tens of thousands of records).
	final := res.Exact[len(res.Exact)-1]
	if res.AbsRMSE2 > 0.05*final || res.AbsRMSE3 > 0.05*final {
		t.Errorf("cdf2/cdf3 errors (%v, %v) not small vs scale %v",
			res.AbsRMSE2, res.AbsRMSE3, final)
	}
}

func TestFig2RMSEDecreasesWithEpsilon(t *testing.T) {
	res := RunFig2(1)
	for i := 1; i < len(res.LengthCurves); i++ {
		if res.LengthCurves[i].RMSE > res.LengthCurves[i-1].RMSE {
			t.Errorf("length RMSE not decreasing: %v", res.LengthCurves)
		}
	}
	// Strong privacy must still be accurate (paper: 0.01%; ours is a
	// smaller trace so allow up to 1%).
	if res.LengthCurves[0].RMSE > 0.01 {
		t.Errorf("length RMSE at eps=0.1 is %v, want < 1%%", res.LengthCurves[0].RMSE)
	}
	if res.PortCurves[0].RMSE > 0.01 {
		t.Errorf("port RMSE at eps=0.1 is %v, want < 1%%", res.PortCurves[0].RMSE)
	}
	// Less data, more relative error — the paper's 1/10th probe.
	if res.TenthDataRMSE < res.LengthCurves[0].RMSE {
		t.Errorf("tenth-data RMSE %v not above full-data %v",
			res.TenthDataRMSE, res.LengthCurves[0].RMSE)
	}
}

func TestTable4TopTenCorrect(t *testing.T) {
	res := RunTable4(1, 1.0)
	if res.CorrectTop10 != 10 {
		t.Errorf("discovered %d/10 of the true top-10", res.CorrectTop10)
	}
	if !res.OrderPreserved {
		t.Error("top-10 order not preserved")
	}
	for _, row := range res.Rows {
		if math.Abs(row.PercentErr) > 1 {
			t.Errorf("string %q error %v%%, want sub-1%%", row.Payload, row.PercentErr)
		}
	}
}

func TestItemsetsTopFivePlanted(t *testing.T) {
	res := RunItemsets(1, 1.0)
	if res.CorrectTop != 5 {
		t.Errorf("planted pairs in top five: %d/5", res.CorrectTop)
	}
}

// TestWormRecoveryProgression is the §5.1.2 claim: recovery is
// monotone in ε, poor at strong privacy, complete at weak privacy.
func TestWormRecoveryProgression(t *testing.T) {
	res := RunWorm(1)
	if len(res.Levels) != 3 {
		t.Fatalf("got %d levels", len(res.Levels))
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Recovered < res.Levels[i-1].Recovered {
			t.Errorf("recovery not monotone: %+v", res.Levels)
		}
	}
	if res.Levels[0].Recovered > res.Levels[0].Total/2 {
		t.Errorf("strong privacy recovered %d/%d, expected a small fraction",
			res.Levels[0].Recovered, res.Levels[0].Total)
	}
	if res.Levels[2].Recovered != res.Levels[2].Total {
		t.Errorf("weak privacy recovered %d/%d, expected all",
			res.Levels[2].Recovered, res.Levels[2].Total)
	}
	// The group count is a noisy version of the truth.
	if math.Abs(res.NoisyGroupCount-float64(res.TrueGroupCount)) > 30 {
		t.Errorf("group count %v vs true %d", res.NoisyGroupCount, res.TrueGroupCount)
	}
}

func TestFig3AccuracyAtStrongPrivacy(t *testing.T) {
	res := RunFig3(1)
	// Paper: RTT 2.8%, loss 0.2% at eps=0.1. Same order for us.
	if res.RTTCurves[0].RMSE > 0.10 {
		t.Errorf("RTT RMSE at eps=0.1: %v", res.RTTCurves[0].RMSE)
	}
	if res.LossCurves[0].RMSE > 0.10 {
		t.Errorf("loss RMSE at eps=0.1: %v", res.LossCurves[0].RMSE)
	}
	for i := 1; i < 3; i++ {
		if res.RTTCurves[i].RMSE > res.RTTCurves[i-1].RMSE {
			t.Errorf("RTT RMSE not decreasing with eps")
		}
	}
}

// TestTable5Shape: at paper-scale signal all levels detect cleanly;
// in the low-signal regime strong privacy fails while medium and weak
// succeed — the paper's crossover.
func TestTable5Shape(t *testing.T) {
	res := table5Seed1()
	for _, l := range res.Levels {
		if l.K == 0 {
			t.Errorf("paper-scale eps=%v: nothing detected", l.Epsilon)
			continue
		}
		if float64(l.FalsePositives) > 0.2*float64(l.K) {
			t.Errorf("paper-scale eps=%v: %d/%d false positives", l.Epsilon, l.FalsePositives, l.K)
		}
		if l.NoisyCorrMean < 0.5 {
			t.Errorf("paper-scale eps=%v: noisy corr %v, want high", l.Epsilon, l.NoisyCorrMean)
		}
	}
	sparse := res.SparseLevels
	if sparse[0].K > 5 && sparse[0].FalsePositives < sparse[0].K/2 {
		t.Errorf("low-signal eps=0.1 detected cleanly (%d pairs, %d FPs); expected failure",
			sparse[0].K, sparse[0].FalsePositives)
	}
	for _, l := range sparse[1:] {
		if l.K == 0 || float64(l.FalsePositives) > 0.2*float64(l.K) {
			t.Errorf("low-signal eps=%v should detect cleanly: K=%d FP=%d",
				l.Epsilon, l.K, l.FalsePositives)
		}
	}
}

// TestFig4AnomalyRobustToNoise: the flagged bins coincide with the
// injected anomaly at every privacy level, and the RMSE shrinks with
// ε.
func TestFig4AnomalyRobustToNoise(t *testing.T) {
	res := RunFig4(1)
	injected := map[int]bool{268: true, 269: true, 270: true, 271: true, 272: true}
	check := func(bins []int, label string) {
		hits := 0
		for _, b := range bins {
			if injected[b] {
				hits++
			}
		}
		if hits < 4 {
			t.Errorf("%s: top bins %v miss the injected anomaly", label, bins)
		}
	}
	check(res.TopBinsExact, "noise-free")
	for i, c := range res.Curves {
		check(res.TopBinsByEps[i], fmt.Sprintf("eps=%g", c.Epsilon))
	}
	for i := 1; i < len(res.Curves); i++ {
		if res.Curves[i].RMSE > res.Curves[i-1].RMSE {
			t.Errorf("fig4 RMSE not decreasing with eps")
		}
	}
	// Medium privacy should already be near-indistinguishable.
	if res.Curves[1].RMSE > 0.05 {
		t.Errorf("eps=1 RMSE %v, want < 5%%", res.Curves[1].RMSE)
	}
}

// TestFig5PrivacyOrdering: weak privacy tracks the noise-free curve;
// strong privacy is clearly worse.
func TestFig5PrivacyOrdering(t *testing.T) {
	res := RunFig5(1)
	final := func(c Fig5Curve) float64 { return c.Objective[len(c.Objective)-1] }
	exact := final(res.Curves[0])
	strong := final(res.Curves[1]) // eps=0.1
	weak := final(res.Curves[3])   // eps=10
	if weak > exact*1.10 {
		t.Errorf("eps=10 final %v should track noise-free %v", weak, exact)
	}
	if strong < exact*1.2 {
		t.Errorf("eps=0.1 final %v suspiciously close to noise-free %v", strong, exact)
	}
	// Shared initialization across all curves.
	init := res.Curves[0].Objective[0]
	for _, c := range res.Curves[1:] {
		if math.Abs(c.Objective[0]-init) > 1e-9 {
			t.Errorf("curve %s does not share the initialization", c.Label)
		}
	}
}

// TestTable2Assembles builds Table 2 from the shared Table 5 run, as
// cmd/experiments passes in the results it printed, and runs the other
// five itself.
func TestTable2Assembles(t *testing.T) {
	res := BuildTable2(1, Table2Inputs{Table5: table5Seed1()})
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.HighAccuracyAt == "not reached" {
			t.Errorf("%s: accuracy never reached", row.Analysis)
		}
	}
}
