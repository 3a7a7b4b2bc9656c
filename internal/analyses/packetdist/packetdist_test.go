package packetdist

import (
	"math"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func testTrace(t *testing.T) []trace.Header {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 500
	cfg.Hosts = 100
	cfg.Servers = 30
	cfg.Worms = 4
	cfg.WormDispersion = 10
	cfg.BackgroundStrings = 30
	cfg.BackgroundTotal = 3000
	cfg.StonePairs = 2
	cfg.DecoyFlows = 2
	cfg.StoneActivations = 100
	cfg.Duration = 300
	pkts, _ := tracegen.Hotspot(cfg)
	return trace.Headers(pkts)
}

func TestLengthCDFCloseToExact(t *testing.T) {
	pkts := testTrace(t)
	buckets := LengthBuckets(8)
	exact := ExactLengthCDF(pkts, buckets)
	q, root := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(1, 2))
	private, err := LengthCDF(q, 0.1, buckets)
	if err != nil {
		t.Fatal(err)
	}
	if len(private) != len(exact) {
		t.Fatalf("length mismatch %d vs %d", len(private), len(exact))
	}
	rmse, err := RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 0.01% on 7M packets; our trace is ~4 orders
	// smaller, so scale expectations accordingly but stay tight.
	if rmse > 0.25 {
		t.Errorf("length CDF RMSE %v too high", rmse)
	}
	// CDF2's cost is one epsilon regardless of bucket count.
	if spent := root.Spent(); math.Abs(spent-0.1) > 1e-9 {
		t.Errorf("spent %v, want 0.1", spent)
	}
}

func TestPortCDFCloseToExact(t *testing.T) {
	pkts := testTrace(t)
	buckets := PortBuckets(512)
	exact := ExactPortCDF(pkts, buckets)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(3, 4))
	private, err := PortCDF(q, 1.0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.25 {
		t.Errorf("port CDF RMSE %v too high", rmse)
	}
}

func TestExactLengthCDFCapturesSpikes(t *testing.T) {
	pkts := testTrace(t)
	buckets := LengthBuckets(1) // 1-byte resolution
	exact := ExactLengthCDF(pkts, buckets)
	// Spike at 40: jump between cdf(40) and cdf(41) indices.
	jumpAt := func(length int64) float64 {
		// buckets[i] = i+1, cdf value at index i counts < i+1.
		return exact[length] - exact[length-1]
	}
	if jumpAt(40) < float64(len(pkts))*0.10 {
		t.Errorf("40-byte spike %v too small", jumpAt(40))
	}
	if jumpAt(1492) < float64(len(pkts))*0.03 {
		t.Errorf("1492-byte spike %v too small", jumpAt(1492))
	}
}

func TestCDFMonotoneExact(t *testing.T) {
	pkts := testTrace(t)
	exact := ExactLengthCDF(pkts, LengthBuckets(16))
	for i := 1; i < len(exact); i++ {
		if exact[i] < exact[i-1] {
			t.Fatalf("exact CDF decreases at %d", i)
		}
	}
}

func TestAccuracyImprovesWithEpsilon(t *testing.T) {
	pkts := testTrace(t)
	buckets := LengthBuckets(8)
	exact := ExactLengthCDF(pkts, buckets)
	rmseAt := func(eps float64) float64 {
		// Average over a few runs to reduce flakiness.
		var total float64
		const runs = 5
		for r := 0; r < runs; r++ {
			q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(uint64(r), 77))
			private, err := LengthCDF(q, eps, buckets)
			if err != nil {
				t.Fatal(err)
			}
			rmse, _ := RMSE(private, exact)
			total += rmse
		}
		return total / runs
	}
	weak, strong := rmseAt(10), rmseAt(0.01)
	if weak >= strong {
		t.Errorf("RMSE at eps=10 (%v) should beat eps=0.01 (%v)", weak, strong)
	}
}

func TestBudgetEnforced(t *testing.T) {
	pkts := testTrace(t)
	q, _ := core.NewQueryable(pkts, 0.05, noise.NewSeededSource(1, 1))
	if _, err := LengthCDF(q, 0.1, LengthBuckets(8)); err == nil {
		t.Fatal("over-budget CDF accepted")
	}
}

// TestScaleMillionPackets exercises the full Fig 2 pipeline at ~1M
// packets — closer to the paper's 7M-packet Hotspot — verifying that
// accuracy improves with scale and that the pipeline stays fast enough
// for interactive use. Skipped under -short.
func TestScaleMillionPackets(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 35000
	cfg.Hosts = 2000
	cfg.Servers = 400
	cfg.BackgroundTotal = 100000
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	gen, _ := tracegen.Hotspot(cfg)
	pkts := trace.Headers(gen)
	if len(pkts) < 900_000 {
		t.Fatalf("only %d packets generated", len(pkts))
	}
	buckets := LengthBuckets(8)
	exact := ExactLengthCDF(pkts, buckets)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(91, 92))
	private, err := LengthCDF(q, 0.1, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	// At ~1M packets the relative error approaches the paper's 0.01%.
	if rmse > 0.001 {
		t.Errorf("RMSE %v at 1M packets, want < 0.1%%", rmse)
	}
}
