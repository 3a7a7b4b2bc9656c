// Command dpquery runs ad-hoc differentially-private queries over a
// packet trace written by cmd/tracegen, playing the role of the data
// owner's query endpoint in the paper's mediated-analysis setting:
//
//	dpquery -trace hotspot.dptr -budget 1.0 \
//	    -query count -eps 0.1 -dstport 80
//	dpquery -trace hotspot.dptr -query lencdf -eps 0.1
//	dpquery -trace hotspot.dptr -query portcdf -eps 0.1
//	dpquery -trace hotspot.dptr -query hosts -eps 0.1 -dstport 80 -minbytes 1024
//
// With -server the tool instead plays the analyst: queries go over the
// network to a running cmd/dpserver through the typed v1 client, with
// idempotent retries and a per-call deadline:
//
//	dpquery -server http://127.0.0.1:8080 -analyst alice \
//	    -dataset hotspot -query count -eps 0.1 -dstport 80 -timeout 30s
//
// -query names a kind from dpserver's kind table; -h lists them.
//
// Both modes build the same api.QueryRequest from the flags; local mode
// hands it to the server's own executor (dpserver.RunPacketQuery), so
// the two cannot disagree on what a kind means.
//
// The tool prints the remaining privacy budget after each query; a
// refused query reports the budget error instead of an answer.
//
// `dpquery standing` is the continual-monitoring subcommand: register
// a standing query against a dataset's ingest stream, follow its
// per-window results, list registrations, and cancel. See standing.go.
//
// -explain additionally prints the query's execution profile — the
// operator plan with per-step timings, execution strategies, and
// per-aggregation ε accounting — at no extra privacy cost. In remote
// mode this is the server's X-DP-Explain surface, so record counts are
// redacted; in local mode (you hold the raw trace) counts are shown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/trace"
)

func main() {
	// `dpquery standing ...` is the continual-monitoring subcommand
	// (register / results / cancel / list); everything else is the
	// classic one-shot flag surface.
	if len(os.Args) > 1 && os.Args[1] == "standing" {
		standingCmd(os.Args[2:])
		return
	}
	tracePath := flag.String("trace", "", "packet trace file (local mode)")
	server := flag.String("server", "", "dpserver base URL (remote mode)")
	analyst := flag.String("analyst", "analyst", "analyst identity for remote queries")
	dataset := flag.String("dataset", "", "dataset name on the server (remote mode)")
	timeout := flag.Duration("timeout", 30*time.Second, "remote query deadline")
	budget := flag.Float64("budget", 1.0, "total privacy budget for this session (local mode)")
	query := flag.String("query", "count", "query kind, one of:"+kindHelp())
	eps := flag.Float64("eps", 0.1, "privacy cost of this query")
	dstPort := flag.Int("dstport", -1, "filter: destination port")
	srcPort := flag.Int("srcport", -1, "filter: source port")
	minLen := flag.Int("minlen", -1, "filter: minimum packet length")
	minBytes := flag.Int("minbytes", 1024, "hosts query: per-host byte threshold")
	fraction := flag.Float64("fraction", 0.5, "lenquantile query: rank fraction (0.5 = median)")
	sketchEps := flag.Float64("sketcheps", 0, "lenquantile query: sketch rank-accuracy target (0 = default)")
	key := flag.String("key", "", "srcfreq query: target source IP, e.g. 10.0.0.1")
	seed := flag.Uint64("seed", 0, "noise seed; 0 uses crypto randomness (local mode)")
	explain := flag.Bool("explain", false, "print the query's execution profile (plan, timings, ε accounting); costs no extra ε")
	flag.Parse()

	req := api.QueryRequest{
		Dataset: *dataset, Query: *query, Epsilon: *eps,
		MinBytes: *minBytes, Fraction: *fraction, SketchEps: *sketchEps, Key: *key,
	}
	if *dstPort >= 0 || *srcPort >= 0 || *minLen >= 0 {
		req.Filter = &api.Filter{}
		if *dstPort >= 0 {
			req.Filter.DstPort = dstPort
		}
		if *srcPort >= 0 {
			req.Filter.SrcPort = srcPort
		}
		if *minLen >= 0 {
			req.Filter.MinLen = minLen
		}
	}

	if *server != "" {
		remote(*server, *analyst, *timeout, req, *explain)
		return
	}

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "dpquery: -trace (local) or -server (remote) is required")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	packets, err := trace.ReadPackets(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var src noise.Source
	if *seed == 0 {
		src = noise.NewCryptoSource()
	} else {
		src = noise.NewSeededSource(*seed, *seed+1)
	}
	q, root := core.NewQueryable(packets, *budget, src)
	prof := obs.NewProfileRecorder(func() float64 { return root.Spent() })
	if *explain {
		q = q.WithRecorder(prof)
	}
	resp, err := dpserver.RunPacketQuery(q, &req)
	report(err)
	printAnswer(&req, resp.Values, resp.Buckets, resp.NoiseStd)
	if *explain {
		fmt.Println("plan:")
		prof.Profile().WriteText(os.Stdout)
	}
	fmt.Printf("budget: spent %.3f of %.3f\n", root.Spent(), *budget)
}

// remote runs one query against a dpserver through the v1 client.
func remote(server, analyst string, timeout time.Duration, req api.QueryRequest, explain bool) {
	if req.Dataset == "" {
		fmt.Fprintln(os.Stderr, "dpquery: -dataset is required with -server")
		os.Exit(2)
	}
	c := dpclient.New(server, analyst, dpclient.WithTimeout(timeout))
	ctx := context.Background()
	run := c.Query
	if explain {
		run = c.Explain
	}
	r, err := run(ctx, req)
	report(err)
	printAnswer(&req, r.Values, r.Buckets, r.NoiseStd)
	if explain && r.Profile != nil {
		fmt.Println("plan:")
		r.Profile.WriteText(os.Stdout)
	}
	spent, remaining, err := c.Budget(ctx, req.Dataset)
	report(err)
	fmt.Printf("budget: spent %.3f, remaining %.3f\n", spent, remaining)
}

// printAnswer renders one answer: CDF kinds as "edge count" rows,
// scalar kinds as one labelled line.
func printAnswer(req *api.QueryRequest, values []float64, buckets []int64, noiseStd float64) {
	if len(buckets) > 0 {
		for i, edge := range buckets {
			fmt.Printf("%d %.1f\n", edge, values[i])
		}
		return
	}
	fmt.Printf("noisy %s: %.1f", req.Query, values[0])
	if noiseStd > 0 {
		fmt.Printf(" (noise std %.2f)", noiseStd)
	}
	fmt.Println()
}

// kindHelp lists the packet kinds with their descriptions, one a line.
func kindHelp() string {
	var b strings.Builder
	for _, k := range dpserver.PacketKinds() {
		fmt.Fprintf(&b, "\n  %-12s %s", k.Name, k.Description)
	}
	return b.String()
}

func report(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, dpclient.ErrBudgetExceeded) {
		fmt.Fprintf(os.Stderr, "dpquery: refused: %v\n", err)
		os.Exit(3)
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpquery: %v\n", err)
	os.Exit(1)
}
