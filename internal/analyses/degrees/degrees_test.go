package degrees

import (
	"math"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func degreeTrace(t *testing.T) []trace.Packet {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 800
	cfg.Hosts = 200
	cfg.Servers = 50
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	pkts, _ := tracegen.Hotspot(cfg)
	return pkts
}

func exactCDF(values []int64, buckets []int64) []float64 {
	freq := make([]float64, len(buckets))
	for _, v := range values {
		for i, edge := range buckets {
			if v < edge {
				freq[i]++
				break
			}
		}
	}
	out := make([]float64, len(buckets))
	run := 0.0
	for i, f := range freq {
		run += f
		out[i] = run
	}
	return out
}

func TestExactDegreesHandCrafted(t *testing.T) {
	pkts := []trace.Packet{
		{Header: trace.Header{SrcIP: 1, DstIP: 10}}, {Header: trace.Header{SrcIP: 1, DstIP: 11}}, {Header: trace.Header{SrcIP: 1, DstIP: 10}}, // out-degree 2
		{Header: trace.Header{SrcIP: 2, DstIP: 10}}, // out-degree 1
	}
	out := ExactOutDegrees(pkts)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("out-degrees %v, want [1 2]", out)
	}
	in := ExactInDegrees(pkts)
	// Node 10 has in-degree 2 (from 1 and 2), node 11 has 1.
	if len(in) != 2 || in[0] != 1 || in[1] != 2 {
		t.Fatalf("in-degrees %v, want [1 2]", in)
	}
}

func TestPrivateOutDegreeCDFMatchesExact(t *testing.T) {
	pkts := degreeTrace(t)
	buckets := toolkit.LinearBuckets(0, 2, 32)
	exact := exactCDF(ExactOutDegrees(pkts), buckets)
	q, root := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(81, 82))
	private, err := PrivateOutDegreeCDF(q, 0.1, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.5 {
		t.Errorf("out-degree CDF RMSE %v too high", rmse)
	}
	if spent := root.Spent(); math.Abs(spent-0.2) > 1e-9 {
		t.Errorf("spent %v, want 0.2 (GroupBy doubles)", spent)
	}
}

func TestPrivateInDegreeCDFMatchesExact(t *testing.T) {
	pkts := degreeTrace(t)
	buckets := toolkit.LinearBuckets(0, 8, 32)
	exact := exactCDF(ExactInDegrees(pkts), buckets)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(83, 84))
	private, err := PrivateInDegreeCDF(q, 1.0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.3 {
		t.Errorf("in-degree CDF RMSE %v too high", rmse)
	}
}

// TestPortRestrictedDegrees: the §5.3 phrasing "restricted to various
// ports" is a Where before the degree derivation.
func TestPortRestrictedDegrees(t *testing.T) {
	pkts := degreeTrace(t)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(85, 86))
	web := q.Where(func(p trace.Packet) bool { return p.DstPort == 80 })
	degs := OutDegrees(web)
	c, err := degs.NoisyCount(100)
	if err != nil {
		t.Fatal(err)
	}
	// Only hosts that touched port 80 appear.
	webHosts := make(map[trace.IPv4]bool)
	for i := range pkts {
		if pkts[i].DstPort == 80 {
			webHosts[pkts[i].SrcIP] = true
		}
	}
	if math.Abs(c-float64(len(webHosts))) > 3 {
		t.Errorf("restricted degree count ~%v, want ~%d", c, len(webHosts))
	}
}

// TestMaxDegreeIsFragile demonstrates the §5.3 negative claim: the
// maximum degree depends on a handful of records, so its noisy
// estimate at strong privacy is unreliable — while the CDF body is
// fine. We measure the max via a high quantile of the noisy degrees.
func TestMaxDegreeIsFragile(t *testing.T) {
	pkts := degreeTrace(t)
	exact := ExactOutDegrees(pkts)
	trueMax := float64(exact[len(exact)-1])
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(87, 88))
	degs := OutDegrees(q)
	// The exponential-mechanism "max" (order statistic at 1.0) at
	// strong privacy lands on whatever value has enough mass near the
	// top — typically NOT the true maximum.
	var devSum float64
	const runs = 20
	for i := 0; i < runs; i++ {
		v, err := core.NoisyOrderStatistic(degs, 0.1, 1.0, 0, 1<<16, func(d int64) int64 { return d })
		if err != nil {
			t.Fatal(err)
		}
		devSum += math.Abs(float64(v) - trueMax)
	}
	medianDeg := float64(exact[len(exact)/2])
	if devSum/runs < 0.01*trueMax && trueMax > medianDeg*1.5 {
		t.Logf("note: noisy max unexpectedly accurate (deviation %v)", devSum/runs)
	}
	// No hard assertion on inaccuracy (data-dependent); the test
	// documents the behaviour and guards that the call path works.
}
