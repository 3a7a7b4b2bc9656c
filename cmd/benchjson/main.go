// Command benchjson parses `go test -bench` text output from stdin
// into a JSON document on stdout, so benchmark runs can be checked in
// (BENCH_core.json) and diffed across PRs:
//
//	go test -bench=. -benchmem -count=5 ./internal/core/ | go run ./cmd/benchjson > BENCH_core.json
//
// Repeated runs of one benchmark (-count=N) are aggregated into
// min/mean/max ns/op; alloc stats and custom ReportMetric values
// (e.g. records/op) ride along. Environment lines (goos, goarch, cpu)
// are captured into the header so numbers are interpretable later.
//
// With -prev the run is additionally diffed against a checked-in
// document:
//
//	go test -bench=. -benchmem ./internal/core/ | go run ./cmd/benchjson -prev BENCH_core.json
//
// prints per-benchmark ns/op and bytes/op deltas to stderr and exits
// nonzero when any benchmark regressed beyond -threshold (a fraction;
// 0.20 tolerates +20%). The JSON document still goes to stdout, so the
// same invocation can both gate and refresh the baseline.
//
// With -pairs it reads no bench text at all: it compares two files of
// paired runs of the repository benchmark (see pairs.go; `make
// bench-pair` produces them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sample is one parsed benchmark line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	iterations  int64
	metrics     map[string]float64
}

// Result aggregates all samples of one benchmark name (including the
// -procs suffix, so seq and -cpu variants stay distinct).
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Runs        int                `json:"runs"`
	Iterations  int64              `json:"iterations"`
	NsPerOpMin  float64            `json:"nsPerOpMin"`
	NsPerOpMean float64            `json:"nsPerOpMean"`
	NsPerOpMax  float64            `json:"nsPerOpMax"`
	BytesPerOp  float64            `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64            `json:"allocsPerOp,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the output document.
type Doc struct {
	GoVersion  string            `json:"goVersion"`
	NumCPU     int               `json:"numCPU"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Env        map[string]string `json:"env,omitempty"`
	Note       string            `json:"note,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

func main() {
	prevPath := flag.String("prev", "", "previous benchjson document to diff against (stderr report; regressions beyond -threshold exit nonzero)")
	threshold := flag.Float64("threshold", 0.20, "fractional regression tolerated in ns/op or bytes/op before exiting nonzero (0.20 = +20%)")
	pairs := flag.Bool("pairs", false, "compare paired runs of ./bench: benchjson -pairs base.jsonl head.jsonl (one last-line JSON object per run)")
	flag.Parse()
	if *pairs {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -pairs base.jsonl head.jsonl")
			os.Exit(64)
		}
		if err := comparePairs(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	order := []string{}
	samples := map[string][]sample{}
	env := map[string]string{}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			name, s, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if _, seen := samples[name]; !seen {
				order = append(order, name)
			}
			samples[name] = append(samples[name], s)
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"), strings.HasPrefix(line, "pkg:"):
			k, v, _ := strings.Cut(line, ":")
			env[k] = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	doc := Doc{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Env:        env,
	}
	if runtime.NumCPU() < 2 {
		doc.Note = "single-CPU host: parallel variants cannot show wall-clock speedup here; they document overhead bounds and are expected to win at NumCPU >= 2"
	}
	for _, name := range order {
		doc.Benchmarks = append(doc.Benchmarks, aggregate(name, samples[name]))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *prevPath != "" {
		regressed, err := diffAgainst(doc, *prevPath, *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(2)
		}
	}
}

// benchKey identifies a benchmark across documents.
type benchKey struct {
	name  string
	procs int
}

// diffAgainst loads a previous document, prints a per-benchmark delta
// table to stderr, and reports whether any benchmark's mean ns/op or
// bytes/op regressed beyond the fractional threshold. New benchmarks
// (no baseline) and vanished ones are reported but never fail the
// gate; timing noise is the caller's to manage via -count.
func diffAgainst(cur Doc, prevPath string, threshold float64) (bool, error) {
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		return false, err
	}
	var prev Doc
	if err := json.Unmarshal(raw, &prev); err != nil {
		return false, fmt.Errorf("parsing %s: %w", prevPath, err)
	}
	base := make(map[benchKey]Result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		base[benchKey{r.Name, r.Procs}] = r
	}

	fmt.Fprintf(os.Stderr, "benchjson: diff vs %s (threshold %+.0f%%)\n", prevPath, threshold*100)
	regressed := false
	seen := make(map[benchKey]bool, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		k := benchKey{r.Name, r.Procs}
		seen[k] = true
		b, ok := base[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "  %-36s new: %s  %s\n", r.Name, fmtNs(r.NsPerOpMean), fmtBytes(r.BytesPerOp))
			continue
		}
		nsDelta := frac(r.NsPerOpMean, b.NsPerOpMean)
		byDelta := frac(r.BytesPerOp, b.BytesPerOp)
		bad := nsDelta > threshold || byDelta > threshold
		if bad {
			regressed = true
		}
		mark := ""
		if bad {
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(os.Stderr, "  %-36s ns/op %s → %s (%+.1f%%)  B/op %s → %s (%+.1f%%)%s\n",
			r.Name,
			fmtNs(b.NsPerOpMean), fmtNs(r.NsPerOpMean), nsDelta*100,
			fmtBytes(b.BytesPerOp), fmtBytes(r.BytesPerOp), byDelta*100,
			mark)
	}
	for _, b := range prev.Benchmarks {
		if k := (benchKey{b.Name, b.Procs}); !seen[k] {
			fmt.Fprintf(os.Stderr, "  %-36s gone (was %s)\n", b.Name, fmtNs(b.NsPerOpMean))
		}
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "benchjson: regression beyond %+.0f%% detected\n", threshold*100)
	}
	return regressed, nil
}

// frac is the fractional change from old to cur; a missing or zero
// baseline never counts as a regression.
func frac(cur, old float64) float64 {
	if old <= 0 {
		return 0
	}
	return (cur - old) / old
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkWhere1M-4  	 100	  11077197 ns/op	 8388614 B/op	 2 allocs/op	 1048576 records/op
func parseBenchLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", sample{}, false
	}
	name := fields[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", sample{}, false
	}
	s := sample{iterations: iters, metrics: map[string]float64{}}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", sample{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.nsPerOp = v
		case "B/op":
			s.bytesPerOp = v
		case "allocs/op":
			s.allocsPerOp = v
		default:
			s.metrics[unit] = v
		}
	}
	return name, s, true
}

// aggregate folds repeated runs (-count=N) of one benchmark.
func aggregate(name string, ss []sample) Result {
	base, procs := splitProcs(name)
	r := Result{Name: base, Procs: procs, Runs: len(ss), NsPerOpMin: ss[0].nsPerOp, NsPerOpMax: ss[0].nsPerOp}
	var sum float64
	metricSums := map[string]float64{}
	for _, s := range ss {
		sum += s.nsPerOp
		if s.nsPerOp < r.NsPerOpMin {
			r.NsPerOpMin = s.nsPerOp
		}
		if s.nsPerOp > r.NsPerOpMax {
			r.NsPerOpMax = s.nsPerOp
		}
		r.Iterations += s.iterations
		r.BytesPerOp += s.bytesPerOp
		r.AllocsPerOp += s.allocsPerOp
		for k, v := range s.metrics {
			metricSums[k] += v
		}
	}
	n := float64(len(ss))
	r.NsPerOpMean = sum / n
	r.BytesPerOp /= n
	r.AllocsPerOp /= n
	if len(metricSums) > 0 {
		r.Metrics = map[string]float64{}
		keys := make([]string, 0, len(metricSums))
		for k := range metricSums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.Metrics[k] = metricSums[k] / n
		}
	}
	return r
}

// splitProcs splits the -N GOMAXPROCS suffix the bench runner appends.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
