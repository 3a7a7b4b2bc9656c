// Quickstart reproduces the paper's §2.3 worked example against a
// synthetic hotspot trace: count the distinct hosts that sent more
// than 1024 bytes to port 80, under ε-differential privacy.
//
//	go run ./examples/quickstart
//
// It demonstrates the three core moves of the public API: wrapping
// data in a protected Queryable with a budget, composing
// transformations (Where → GroupBy → Where), and extracting a noisy
// aggregate whose cost is tracked by the budget agent.
package main

import (
	"fmt"

	"dptrace"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func main() {
	// The data owner's side: a raw packet trace and a total privacy
	// budget for this analyst session.
	cfg := tracegen.DefaultHotspotConfig()
	packets, _ := tracegen.Hotspot(cfg)
	q, budget := dptrace.NewQueryable(packets, 1.0, dptrace.NewSeededSource(7, 8))

	// The analyst's side: a declarative pipeline. The closures can
	// inspect records arbitrarily — their outputs never leave the
	// privacy curtain; only the noisy count does.
	grouped := dptrace.GroupBy(
		q.Where(func(p trace.Packet) bool { return p.DstPort == 80 }),
		func(p trace.Packet) trace.IPv4 { return p.SrcIP })
	heavy := grouped.Where(func(g dptrace.Group[trace.IPv4, trace.Packet]) bool {
		total := 0
		for _, p := range g.Items {
			total += int(p.Len)
		}
		return total > 1024
	})

	const eps = 0.1
	count, err := heavy.NoisyCount(eps)
	if err != nil {
		panic(err)
	}

	// The noise distribution is public: the analyst can judge
	// significance without seeing the data. GroupBy doubled the
	// sensitivity, so the count's noise std is 2·√2/ε.
	fmt.Printf("distinct hosts sending >1024 B to port 80: %.0f\n", count)
	fmt.Printf("noise std (known to analyst): %.1f\n", 2*dptrace.LaplaceStd(eps))
	fmt.Printf("privacy budget: spent %.2f of %.2f, %.2f left\n",
		budget.Spent(), budget.Budget(), budget.Remaining())

	// A second query on the same data draws the same budget down.
	// A packet length is in [0, 65535]: the public domain the median is
	// drawn from.
	median, err := dptrace.NoisyMedian(q, 0.2, 0, 65535, func(p trace.Packet) int64 { return int64(p.Len) })
	if err != nil {
		panic(err)
	}
	fmt.Printf("noisy median packet length: %d bytes\n", median)
	fmt.Printf("privacy budget: spent %.2f, %.2f left\n", budget.Spent(), budget.Remaining())

	// Exhausting the budget is refused, not silently degraded.
	if _, err := q.NoisyCount(10); err != nil {
		fmt.Printf("over-budget query refused: %v\n", err)
	}
}
