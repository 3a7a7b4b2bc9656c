// Command experiments regenerates every table and figure of the
// paper's evaluation and prints them in the order they appear in the
// paper. Each experiment is independently selectable:
//
//	experiments                 # run everything
//	experiments -run fig4       # one experiment
//	experiments -seed 7         # change the noise seed
//	experiments -list           # list experiment names
//	experiments -metrics        # append the run's engine metrics
//
// Results go to stdout; EXPERIMENTS.md records a reference run side by
// side with the paper's numbers. With -metrics, every engine pipeline
// in the run reports to an obs registry (per-operator timings,
// records in/out, aggregation outcomes, ε spend) and the registry is
// printed after the tables in the Prometheus text format. Every
// pipeline splits inputs of core.DefaultParallelThreshold records or
// more across GOMAXPROCS workers; the tables are the same at any width
// (GOMAXPROCS=1 gives a one-worker run to diff against).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/experiments"
	"dptrace/internal/obs"
)

type experiment struct {
	name string
	desc string
	run  func(seed uint64) fmt.Stringer
}

// printed keeps the results this run has printed that Table 2
// condenses, so table2 builds from them instead of running them again
// (a lone -run table2 runs them itself).
var printed experiments.Table2Inputs

var all = []experiment{
	{"table1", "noise calibration and sensitivity bookkeeping",
		func(s uint64) fmt.Stringer { return experiments.RunTable1(s) }},
	{"quickstart", "§2.3 worked example",
		func(s uint64) fmt.Stringer { return experiments.RunQuickstart(s) }},
	{"fig1", "three CDF estimators vs noise-free",
		func(s uint64) fmt.Stringer { return experiments.RunFig1(s, 1.0) }},
	{"table4", "top-10 frequent payload strings",
		func(s uint64) fmt.Stringer { return experiments.RunTable4(s, 1.0) }},
	{"itemsets", "frequently co-used port pairs",
		func(s uint64) fmt.Stringer { return experiments.RunItemsets(s, 1.0) }},
	{"fig2", "packet length and port CDFs",
		func(s uint64) fmt.Stringer { printed.Fig2 = experiments.RunFig2(s); return printed.Fig2 }},
	{"worm", "worm fingerprinting recovery by privacy level",
		func(s uint64) fmt.Stringer { printed.Worm = experiments.RunWorm(s); return printed.Worm }},
	{"fig3", "flow RTT and loss-rate CDFs",
		func(s uint64) fmt.Stringer { printed.Fig3 = experiments.RunFig3(s); return printed.Fig3 }},
	{"table5", "stepping-stone detection",
		func(s uint64) fmt.Stringer { printed.Table5 = experiments.RunTable5(s); return printed.Table5 }},
	{"fig4", "PCA traffic anomaly norms",
		func(s uint64) fmt.Stringer { printed.Fig4 = experiments.RunFig4(s); return printed.Fig4 }},
	{"fig5", "topology clustering objective vs iteration",
		func(s uint64) fmt.Stringer { printed.Fig5 = experiments.RunFig5(s); return printed.Fig5 }},
	{"table2", "qualitative summary across analyses",
		func(s uint64) fmt.Stringer { return experiments.BuildTable2(s, printed) }},
	{"em-ablation", "k-means vs Gaussian EM at equal budget",
		func(s uint64) fmt.Stringer { return experiments.RunEMAblation(s, 1.0) }},
	{"cdf-scaling", "CDF error scaling laws vs bucket count",
		func(s uint64) fmt.Stringer { return experiments.RunCDFScaling(s, 1.0) }},
	{"principal", "packet vs host privacy principal",
		func(s uint64) fmt.Stringer { return experiments.RunPrincipal(s, 0.1) }},
	{"commrules", "communication-rule mining (Kandula et al.)",
		func(s uint64) fmt.Stringer { return experiments.RunCommRules(s, 1.0) }},
	{"connections", "connection-id preprocessing extension",
		func(s uint64) fmt.Stringer { return experiments.RunConnections(s, 0.1) }},
	{"thresholds", "frequent-string threshold sweep",
		func(s uint64) fmt.Stringer { return experiments.RunThresholdSweep(s, 0.5) }},
	{"degrees", "in/out degree distributions (§5.3)",
		func(s uint64) fmt.Stringer { return experiments.RunDegrees(s) }},
	{"flowcdf", "flow-size CDF from noisy order statistics",
		func(s uint64) fmt.Stringer { return experiments.RunFlowCDF(s) }},
}

func main() {
	runName := flag.String("run", "", "run only the named experiment (see -list)")
	seed := flag.Uint64("seed", 1, "noise seed for reproducible runs")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write plottable series to <dir>/<name>.csv")
	metrics := flag.Bool("metrics", false, "print the run's engine metrics (Prometheus text) after the tables")
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		core.SetDefaultRecorder(obs.NewMetricsRecorder(reg))
		defer core.SetDefaultRecorder(nil)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range all {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range all {
		if *runName != "" && e.name != *runName {
			continue
		}
		ran++
		start := time.Now()
		result := e.run(*seed)
		fmt.Println(strings.Repeat("=", 72))
		fmt.Print(result.String())
		if *csvDir != "" {
			if p, ok := result.(experiments.Plotter); ok {
				path := filepath.Join(*csvDir, e.name+".csv")
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
				if err := experiments.WriteCSV(f, p.Series()); err != nil {
					f.Close()
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				fmt.Printf("[series written to %s]\n", path)
			}
		}
		fmt.Printf("[%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runName)
		os.Exit(2)
	}
	if reg != nil {
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println("engine metrics")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}
