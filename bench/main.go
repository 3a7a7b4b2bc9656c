// Command bench is the repository's benchmark: three workloads, each a
// run of five sections over a self-hosted dpserver (and, for the
// paper-analyses section, over the paper's own evaluation), 16
// end-to-end metrics, a layer-replay trace, and the output checks —
// budget audit, result digest, durability replay, follower diff — wired
// into the one command. See README.md.
//
//	go run ./bench                         all three workloads, human-readable
//	go run ./bench -trace 1                the same, traced; writes bench/out/trace.json
//	go run ./bench -repeat 5               two sets of 5 runs, per-metric repeatability
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one run in the driver's contract: the last
//	                                       line of stdout is one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured time one
// run is sized for at scale 1. -seconds scales every op count by
// seconds/runSeconds — fixed work, not a fixed duration (design rule 1).
const runSeconds = 30

func main() {
	workload := flag.String("workload", "", "run one workload (default: all three): "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "seeds tracegen, the server's noise source and the query parameters")
	seconds := flag.Float64("seconds", runSeconds, "size of the run: op counts scale by seconds/30")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace.json")
	repeat := flag.Int("repeat", 0, "N > 0: run two back-to-back sets of N runs per workload and compare them")
	record := flag.Bool("record-digests", false, "rewrite bench/digests.json from this run's result digests")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]")
		os.Exit(64)
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, *workload, *seed, *seconds))
	}
	names := workloads
	if *workload != "" {
		if !known(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloads)
			os.Exit(64)
		}
		names = []string{*workload}
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, *seed, *seconds/runSeconds, *trace == 1, *record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		ok = ok && res.Correct
		if *workload != "" {
			// The driver's contract: one JSON object, last line of stdout.
			line, _ := json.Marshal(res.contractLine())
			fmt.Println(string(line))
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}
