// Mediated demonstrates the paper's end-to-end deployment story: a
// data owner hosts a raw trace behind the mediated-analysis HTTP API,
// and two analysts query it over the network through the typed client,
// each against their own privacy budget, until one is refused.
//
//	go run ./examples/mediated
//
// Everything runs in-process over a loopback listener; swap the
// httptest server for cmd/dpserver to run it across machines. The
// clients speak the v1 API: every budget-spending call carries an
// idempotency key, so the default retry policy can re-send through
// sheds and transport blips without double-spending ε.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/tracegen"
)

func main() {
	ctx := context.Background()

	// ---- The data owner's side ----
	cfg := tracegen.DefaultHotspotConfig()
	packets, _ := tracegen.Hotspot(cfg)
	owner := dpserver.New(noise.NewCryptoSource(),
		dpserver.WithLimits(dpserver.Limits{
			MaxConcurrent:  4,
			QueueWait:      100 * time.Millisecond,
			DefaultTimeout: 30 * time.Second,
		}))
	must(owner.AddPacketTrace("hotspot", packets, 2.0 /* total */, 0.5 /* per analyst */))
	ts := httptest.NewServer(owner.Handler())
	defer ts.Close()
	fmt.Printf("data owner hosting %d packets at %s\n", len(packets), ts.URL)

	// ---- Alice's side: the typed analyst client ----
	alice := dpclient.New(ts.URL, "alice", dpclient.WithTimeout(10*time.Second))
	port80 := 80
	webFilter := &api.Filter{DstPort: &port80}

	fmt.Println("alice studies web traffic:")
	count, err := alice.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "count", Epsilon: 0.1, Filter: webFilter})
	must(err)
	fmt.Printf("  port-80 packets ≈ %.0f\n", count.Values[0])

	hosts, err := alice.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "hosts", Epsilon: 0.1,
		Filter: webFilter, MinBytes: 1024})
	must(err)
	fmt.Printf("  heavy web hosts ≈ %.0f\n", hosts.Values[0])

	lens, err := alice.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "lencdf", Epsilon: 0.1, BucketStep: 16})
	must(err)
	fmt.Printf("  length CDF: %d points, noise std %.1f per bucket\n",
		len(lens.Values), lens.NoiseStd)

	spent, remaining, err := alice.Budget(ctx, "hotspot")
	must(err)
	fmt.Printf("  alice's budget: spent %.2f, %.2f left\n", spent, remaining)

	// The next query exceeds her per-analyst cap: a typed refusal.
	if _, err := alice.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "count", Epsilon: 0.2}); errors.Is(err, dpclient.ErrBudgetExceeded) {
		fmt.Printf("  refused: %v\n", err)
	}

	// ---- Bob has his own allowance within the shared total ----
	bob := dpclient.New(ts.URL, "bob")
	rtts, err := bob.Query(ctx, api.QueryRequest{Dataset: "hotspot", Query: "rttcdf", Epsilon: 0.1, BucketStep: 10})
	must(err)
	fmt.Printf("bob's RTT CDF: %d points (cost 0.2: the join charges twice)\n", len(rtts.Values))

	// ---- The owner's ledger view (an owner-side route) ----
	infos, err := dpclient.New(ts.URL, "owner").Datasets(ctx)
	must(err)
	for _, info := range infos {
		fmt.Printf("dataset %s: total spent %.2f, remaining %.2f\n",
			info.Name, info.TotalSpent, info.TotalRemaining)
		for _, u := range info.Analysts {
			fmt.Printf("  %-6s %d queries, requested ε %.2f, charged %.2f\n",
				u.Analyst, u.Queries, u.Requested, u.Charged)
		}
	}

	// ---- Orderly teardown: drain in-flight work, then stop ----
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	must(owner.Shutdown(shutdownCtx))
	fmt.Println("data owner drained and shut down")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
