package flowstats

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

func flowTrace(t *testing.T) []trace.Header {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 800
	cfg.Hosts = 150
	cfg.Servers = 40
	cfg.LossRate = 0.05
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	cfg.Duration = 600
	pkts, _ := tracegen.Hotspot(cfg)
	return trace.Headers(pkts)
}

func TestExactRTTsPlausible(t *testing.T) {
	pkts := flowTrace(t)
	rtts := ExactRTTs(pkts)
	if len(rtts) < 600 {
		t.Fatalf("only %d RTT samples from 800 sessions", len(rtts))
	}
	for _, us := range rtts {
		if us <= 0 || us > 2_000_000 {
			t.Fatalf("implausible RTT %d us", us)
		}
	}
}

func TestPrivateRTTCDFMatchesExact(t *testing.T) {
	pkts := flowTrace(t)
	buckets := toolkit.LinearBuckets(0, 10, 60) // 10ms buckets to 600ms
	exactVals := ExactRTTs(pkts)
	ms := make([]int64, len(exactVals))
	for i, us := range exactVals {
		ms[i] = us / 1000
	}
	exact := ExactCDFFromValues(ms, buckets)
	q, root := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(11, 12))
	private, err := PrivateRTTCDF(q, 0.1, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.6 {
		t.Errorf("RTT CDF RMSE %v too high", rmse)
	}
	// Self-join: CDF at 0.1 costs 0.2.
	if spent := root.Spent(); math.Abs(spent-0.2) > 1e-9 {
		t.Errorf("spent %v, want 0.2", spent)
	}
}

func TestExactLossRatesReflectLossInjection(t *testing.T) {
	pkts := flowTrace(t)
	loss := ExactLossPermille(pkts, 10)
	if len(loss) < 50 {
		t.Fatalf("only %d flows above 10 packets", len(loss))
	}
	var nonZero int
	for _, l := range loss {
		if l < 0 || l > 1000 {
			t.Fatalf("loss out of range: %d", l)
		}
		if l > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no flow shows loss despite 5% injection")
	}
}

func TestPrivateLossCDFMatchesExact(t *testing.T) {
	pkts := flowTrace(t)
	buckets := toolkit.LinearBuckets(0, 25, 40) // permille buckets to 1000
	exact := ExactCDFFromValues(ExactLossPermille(pkts, 10), buckets)
	q, root := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(13, 14))
	private, err := PrivateLossCDF(q, 0.1, 10, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.6 {
		t.Errorf("loss CDF RMSE %v too high", rmse)
	}
	// GroupBy: CDF at 0.1 costs 0.2.
	if spent := root.Spent(); math.Abs(spent-0.2) > 1e-9 {
		t.Errorf("spent %v, want 0.2", spent)
	}
}

func TestExactRetransmitDelaysInRange(t *testing.T) {
	pkts := flowTrace(t)
	delays := ExactRetransmitDelaysMs(pkts)
	if len(delays) < 30 {
		t.Fatalf("only %d retransmit delays", len(delays))
	}
	for _, d := range delays {
		if d < 0 || d > 300 {
			t.Fatalf("delay %d ms outside generator's RTO range", d)
		}
	}
}

func TestPrivateRetransmitCDF(t *testing.T) {
	pkts := flowTrace(t)
	buckets := toolkit.LinearBuckets(0, 1, 256) // 1ms buckets, as Fig 1
	exact := ExactCDFFromValues(ExactRetransmitDelaysMs(pkts), buckets)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(15, 16))
	private, err := PrivateRetransmitCDF(q, 1.0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := stats.MaxAbsDiff(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	// CDF2 over 256 buckets at eps=1: accumulated error stays modest.
	if diff > 120 {
		t.Errorf("retransmit CDF max error %v too high", diff)
	}
}

// TestRTTJoinIsBounded: duplicate SYNs cannot multiply matches beyond
// the bounded join's zip.
func TestRTTJoinIsBounded(t *testing.T) {
	mkSyn := func(tm int64) trace.Header {
		return trace.Header{Time: tm, SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80,
			Proto: trace.ProtoTCP, Flags: trace.FlagSYN, Seq: 100, Len: 40}
	}
	mkAck := func(tm int64) trace.Header {
		return trace.Header{Time: tm, SrcIP: 2, DstIP: 1, SrcPort: 80, DstPort: 10,
			Proto: trace.ProtoTCP, Flags: trace.FlagSYN | trace.FlagACK, Seq: 500, Ack: 101, Len: 40}
	}
	// 3 identical SYNs (retries) and 1 SYN-ACK: one pair, not three.
	pkts := []trace.Header{mkSyn(0), mkSyn(1000), mkSyn(2000), mkAck(5000)}
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(17, 18))
	rtts := RTTMicros(q)
	c, err := rtts.NoisyCount(100) // tiny noise
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1 {
		t.Errorf("bounded join produced ~%v pairs, want 1", c)
	}
}

func TestExactCDFFromValuesDropsOutOfRange(t *testing.T) {
	got := ExactCDFFromValues([]int64{1, 5, 99}, []int64{2, 4, 6})
	want := []float64{1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
