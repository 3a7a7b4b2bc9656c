package experiments

import (
	"fmt"
	"strings"
)

// Table2Row summarizes one analysis, mirroring the paper's Table 2.
type Table2Row struct {
	Analysis       string
	Expressibility string
	// HighAccuracyAt is the weakest ε level at which the measured
	// error was low, mapped to the paper's strong/medium/weak wording.
	HighAccuracyAt string
	PaperSays      string
	Detail         string
}

// Table2Result assembles the qualitative summary from the measured
// experiments, the way the paper's Table 2 condenses §5.
type Table2Result struct {
	Rows []Table2Row
}

// accuracyLabel maps the strongest privacy level whose relative RMSE
// cleared the threshold onto the paper's vocabulary.
func accuracyLabel(rmseByEps map[float64]float64, threshold float64) string {
	switch {
	case rmseByEps[0.1] <= threshold:
		return "strong privacy"
	case rmseByEps[1.0] <= threshold:
		return "medium privacy"
	case rmseByEps[10.0] <= threshold:
		return "weak privacy"
	default:
		return "not reached"
	}
}

// Table2Inputs holds the six experiments Table 2 condenses. A caller
// that has already run some of them at the seed passes them in, so they
// are not run twice; BuildTable2 runs the ones left nil.
type Table2Inputs struct {
	Fig2   *Fig2Result
	Worm   *WormResult
	Fig3   *Fig3Result
	Table5 *Table5Result
	Fig4   *Fig4Result
	Fig5   *Fig5Result
}

// RunTable2 runs the per-analysis experiments and builds the summary.
func RunTable2(seed uint64) *Table2Result { return BuildTable2(seed, Table2Inputs{}) }

// BuildTable2 builds the summary from in, running at seed each
// experiment in leaves nil.
func BuildTable2(seed uint64, in Table2Inputs) *Table2Result {
	res := &Table2Result{}

	fig2 := orRun(in.Fig2, RunFig2, seed)
	lenRMSE := map[float64]float64{}
	for _, c := range fig2.LengthCurves {
		lenRMSE[c.Epsilon] = c.RMSE
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Packet size and port dist. (§5.1.1)",
		Expressibility: "faithful",
		HighAccuracyAt: accuracyLabel(lenRMSE, 0.05),
		PaperSays:      "faithful / strong privacy",
		Detail:         fmt.Sprintf("length RMSE at eps=0.1: %.3f%%", lenRMSE[0.1]*100),
	})

	worm := orRun(in.Worm, RunWorm, seed)
	wormLabel := "not reached"
	for _, l := range worm.Levels {
		if l.Total > 0 && float64(l.Recovered) >= 0.9*float64(l.Total) {
			switch l.Epsilon {
			case 0.1:
				wormLabel = "strong privacy"
			case 1.0:
				if wormLabel == "not reached" {
					wormLabel = "medium privacy"
				}
			case 10.0:
				if wormLabel == "not reached" {
					wormLabel = "weak privacy"
				}
			}
		}
	}
	recovered := make([]string, 0, len(worm.Levels))
	for _, l := range worm.Levels {
		recovered = append(recovered, fmt.Sprintf("%d/%d", l.Recovered, l.Total))
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Worm fingerprinting (§5.1.2)",
		Expressibility: "faithful",
		HighAccuracyAt: wormLabel,
		PaperSays:      "faithful / weak privacy",
		Detail:         "recovered " + strings.Join(recovered, ", "),
	})

	fig3 := orRun(in.Fig3, RunFig3, seed)
	rttRMSE := map[float64]float64{}
	for _, c := range fig3.RTTCurves {
		rttRMSE[c.Epsilon] = c.RMSE
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Common flow properties (§5.2.1)",
		Expressibility: "could not isolate connections in a flow",
		HighAccuracyAt: accuracyLabel(rttRMSE, 0.10),
		PaperSays:      "approximated / strong privacy",
		Detail:         fmt.Sprintf("RTT RMSE at eps=0.1: %.3f%%", rttRMSE[0.1]*100),
	})

	t5 := orRun(in.Table5, RunTable5, seed)
	// Label from the low-signal variant, the regime where privacy
	// level actually decides success (K == 0 means nothing surfaced).
	stoneLabel := "not reached"
	for _, l := range t5.SparseLevels {
		if l.K > 0 && float64(l.FalsePositives) <= 0.2*float64(l.K) {
			switch l.Epsilon {
			case 0.1:
				stoneLabel = "strong privacy"
			case 1.0:
				if stoneLabel == "not reached" {
					stoneLabel = "medium privacy"
				}
			case 10.0:
				if stoneLabel == "not reached" {
					stoneLabel = "weak privacy"
				}
			}
		}
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Stepping stone detection (§5.2.2)",
		Expressibility: "sliding windows approximated by binning",
		HighAccuracyAt: stoneLabel,
		PaperSays:      "approximated / medium privacy",
		Detail: fmt.Sprintf("false positives %d, %d, %d of top-%d",
			t5.Levels[0].FalsePositives, t5.Levels[1].FalsePositives,
			t5.Levels[2].FalsePositives, t5.Levels[0].K),
	})

	fig4 := orRun(in.Fig4, RunFig4, seed)
	anomRMSE := map[float64]float64{}
	for _, c := range fig4.Curves {
		anomRMSE[c.Epsilon] = c.RMSE
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Anomaly detection (§5.3.1)",
		Expressibility: "faithful",
		HighAccuracyAt: accuracyLabel(anomRMSE, 0.05),
		PaperSays:      "faithful / strong privacy",
		Detail:         fmt.Sprintf("residual RMSE at eps=0.1: %.3f%%", anomRMSE[0.1]*100),
	})

	fig5 := orRun(in.Fig5, RunFig5, seed)
	exactFinal := fig5.Curves[0].Objective[len(fig5.Curves[0].Objective)-1]
	topoRMSE := map[float64]float64{}
	for i, eps := range Epsilons {
		c := fig5.Curves[i+1]
		final := c.Objective[len(c.Objective)-1]
		topoRMSE[eps] = (final - exactFinal) / exactFinal
	}
	res.Rows = append(res.Rows, Table2Row{
		Analysis:       "Passive topology mapping (§5.3.2)",
		Expressibility: "k-means instead of Gaussian EM",
		HighAccuracyAt: accuracyLabel(topoRMSE, 0.10),
		PaperSays:      "simpler clustering / weak privacy",
		Detail: fmt.Sprintf("final objective overhead vs exact: %.0f%%/%.0f%%/%.0f%%",
			topoRMSE[0.1]*100, topoRMSE[1.0]*100, topoRMSE[10.0]*100),
	})
	return res
}

// orRun returns r, or run(seed) when r is nil.
func orRun[R any](r *R, run func(uint64) *R, seed uint64) *R {
	if r == nil {
		r = run(seed)
	}
	return r
}

// String renders the summary table.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — analyses summary (measured on synthetic substitutes)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-40s\n", row.Analysis)
		fmt.Fprintf(&b, "    expressibility: %s\n", row.Expressibility)
		fmt.Fprintf(&b, "    high accuracy:  %s (paper: %s)\n", row.HighAccuracyAt, row.PaperSays)
		fmt.Fprintf(&b, "    measured:       %s\n", row.Detail)
	}
	return b.String()
}
