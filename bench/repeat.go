package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runRepeat is the repeatability harness: two back-to-back sets of n
// runs of this same binary per workload, each run its own process and
// its own seed (seed, seed+1, …: the driver's protocol), then for every
// (metric, workload) pair both sets' medians and quartiles, the spread
// (quartile distance over median) and the relative difference of the
// medians. The exit code is non-zero when a difference or a spread
// exceeds the metric's bound; bench/REPEATABILITY.md is this output.
func runRepeat(n int, workload string, seed uint64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := workloads
	if workload != "" {
		names = []string{workload}
	}
	fmt.Printf("# Repeatability: two sets of %d runs per workload (seeds %d..%d, -seconds %g)\n\n", n, seed, seed+uint64(n)-1, seconds)
	fmt.Println("Spread = (Q3 − Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`.")
	fmt.Println("Diff = how much worse set B's median is than set A's. Both must stay within the bound.")
	bad := 0
	for _, w := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				m, err := childRun(exe, w, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s set %d run %d: %v\n", w, s, i, err)
					return 1
				}
				for k, v := range m {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w)
		fmt.Println("| metric | section | unit | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | diff | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for _, m := range endToEnd {
			a1, am, a3, as := quartileSpread(sets[0][m.Name])
			b1, bm, b3, bs := quartileSpread(sets[1][m.Name])
			diff := (bm - am) / math.Abs(am)
			if m.Higher {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound || (m.Name != "setup_s" && (as > m.Bound || bs > m.Bound)) {
				verdict = "**FAIL**"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4g [%.4g, %.4g] | %.1f%% | %.4g [%.4g, %.4g] | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				m.Name, m.sectionOn(w), m.Unit, am, a1, a3, 100*as, bm, b1, b3, 100*bs, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d (metric, workload) pairs outside their bound.\n", bad)
		return 1
	}
	fmt.Println("\nEvery (metric, workload) pair within its bound.")
	return 0
}

// childRun runs one workload in a child process under the driver's
// contract and returns its end-to-end metric values.
func childRun(exe, workload string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s%s", err, out.String(), errOut.String())
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %v", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported correct=false\n%s", out.String())
	}
	vals := map[string]float64{}
	for k, v := range line.Metrics {
		vals[k] = v.Value
	}
	return vals, nil
}
