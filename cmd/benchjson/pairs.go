package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// `benchjson -pairs base.jsonl head.jsonl` is the reading half of
// `make bench-pair`: each file holds the last-line JSON object of N
// runs of `go run ./bench -workload W ...`, run i of one file paired
// with run i of the other. Per end-to-end metric it prints each side's
// median and quartiles and how many pairs the head won, and marks a row
// "unresolved" when the base's own runs spread — the distance between
// their quartiles, over their median — by more than the metric's
// BENCHMARK.json bound: such a row cannot say the metric held (unless
// every head run beat every base run).

type benchRun struct {
	Correct bool                               `json:"correct"`
	Failed  int                                `json:"failed"`
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
}

func readRuns(path string) ([]benchRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []benchRun
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var run benchRun
		if err := json.Unmarshal(line, &run); err != nil || run.Metrics == nil {
			return nil, fmt.Errorf("%s: run %d did not end in the benchmark's JSON line: %v", path, len(runs)+1, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// quartiles returns the 25th, 50th and 75th percentile of vs.
func quartiles(vs []float64) (q [3]float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		x := p * float64(len(s)-1)
		lo := int(x)
		q[i] = s[lo]
		if lo+1 < len(s) {
			q[i] += (x - float64(lo)) * (s[lo+1] - s[lo])
		}
	}
	return q
}

// allBetter reports whether every head run reads better than every base
// run.
func allBetter(base, head []float64, higher bool) bool {
	if higher {
		return slices.Min(head) > slices.Max(base)
	}
	return slices.Max(head) < slices.Min(base)
}

func comparePairs(basePath, headPath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return err
	}
	if len(base) != len(head) {
		return fmt.Errorf("%d base runs, %d head runs: pairs need one of each", len(base), len(head))
	}
	// BENCHMARK.json says which way each metric is better (default lower)
	// and by how much it may worsen.
	var decl struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		_ = json.Unmarshal(raw, &decl) // undeclared metrics just read as lower-is-better, unbounded
	}
	higher, bound := map[string]bool{}, map[string]float64{}
	for _, m := range decl.EndToEnd {
		higher[m.Name], bound[m.Name] = m.Better == "higher", m.Bound
	}
	var names []string
	for name := range head[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("%d pairs: base median [q1, q3] → head median [q1, q3], pairs the head won/lost (ties count for neither)\n", len(base))
	for _, name := range names {
		var b, h []float64
		won, lost := 0, 0
		for i := range base {
			bv, hv := base[i].Metrics[name].Value, head[i].Metrics[name].Value
			b, h = append(b, bv), append(h, hv)
			if bv != hv && (hv > bv) == higher[name] {
				won++
			} else if bv != hv {
				lost++
			}
		}
		bq, hq := quartiles(b), quartiles(h)
		verdict := ""
		if spread := (bq[2] - bq[0]) / math.Abs(bq[1]); bound[name] > 0 && spread > bound[name] && !allBetter(b, h, higher[name]) {
			verdict = fmt.Sprintf("  unresolved: base spread %.0f%% > bound %.0f%%", 100*spread, 100*bound[name])
		}
		fmt.Printf("  %-22s %10.4g [%.4g, %.4g] → %10.4g [%.4g, %.4g] %+6.1f%%  won %d lost %d%s\n",
			name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], 100*frac(hq[1], bq[1]), won, lost, verdict)
	}
	for i, runs := range [][]benchRun{base, head} {
		failed, incorrect := 0, 0
		for _, run := range runs {
			failed += run.Failed
			if !run.Correct {
				incorrect++
			}
		}
		fmt.Printf("  %s: %d failed operations, %d runs with a failed output check\n", [...]string{"base", "head"}[i], failed, incorrect)
	}
	return nil
}
