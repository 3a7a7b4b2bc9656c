package flowstats

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

// mkPkt builds a minimal TCP packet on flow (1->2, 10->80).
func mkPkt(tm int64, flags trace.TCPFlags, seq uint32) trace.Header {
	return trace.Header{Time: tm, SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80,
		Proto: trace.ProtoTCP, Flags: flags, Seq: seq, Len: 100}
}

func TestWithConnectionIDsSplitsOnSYN(t *testing.T) {
	pkts := []trace.Header{
		mkPkt(0, trace.FlagSYN, 100),  // conn 0 handshake
		mkPkt(10, trace.FlagACK, 101), // conn 0 data
		mkPkt(20, trace.FlagACK, 102), // conn 0 data
		mkPkt(30, trace.FlagSYN, 500), // conn 1: fresh SYN
		mkPkt(40, trace.FlagACK, 501), // conn 1 data
		mkPkt(50, trace.FlagSYN, 900), // conn 2
	}
	tagged := WithConnectionIDs(pkts)
	want := []uint32{0, 0, 0, 1, 1, 2}
	for i, cp := range tagged {
		if cp.Conn != want[i] {
			t.Fatalf("packet %d: conn %d, want %d", i, cp.Conn, want[i])
		}
	}
}

func TestWithConnectionIDsMidstreamCapture(t *testing.T) {
	// Data before any SYN: connection 0 already in progress; the
	// first SYN starts a NEW connection only if one was already seen.
	pkts := []trace.Header{
		mkPkt(0, trace.FlagACK, 50),   // pre-capture connection
		mkPkt(10, trace.FlagSYN, 100), // first observed handshake
		mkPkt(20, trace.FlagACK, 101),
	}
	tagged := WithConnectionIDs(pkts)
	// The first SYN doesn't increment (no prior SYN seen); midstream
	// data and the new handshake share ordinal 0 — a documented
	// limitation of SYN-boundary splitting at capture start.
	if tagged[0].Conn != 0 || tagged[1].Conn != 0 || tagged[2].Conn != 0 {
		t.Fatalf("unexpected conns: %v %v %v", tagged[0].Conn, tagged[1].Conn, tagged[2].Conn)
	}
}

func TestWithConnectionIDsUnsortedInput(t *testing.T) {
	// Assignment must follow time order even if the slice is shuffled.
	pkts := []trace.Header{
		mkPkt(30, trace.FlagSYN, 500), // conn 1 (later in time)
		mkPkt(0, trace.FlagSYN, 100),  // conn 0
		mkPkt(40, trace.FlagACK, 501), // conn 1 data
		mkPkt(10, trace.FlagACK, 101), // conn 0 data
	}
	tagged := WithConnectionIDs(pkts)
	want := []uint32{1, 0, 1, 0}
	for i, cp := range tagged {
		if cp.Conn != want[i] {
			t.Fatalf("packet %d: conn %d, want %d", i, cp.Conn, want[i])
		}
	}
}

// connIDsByStableSort is WithConnectionIDs over the ordering it used
// before trace.TimeOrder: a stable reflective sort of an index slice.
func connIDsByStableSort(packets []trace.Header) []ConnPacket {
	order := make([]int, len(packets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return packets[order[a]].Time < packets[order[b]].Time })
	sorted := make([]trace.Header, len(packets))
	for i, idx := range order {
		sorted[i] = packets[idx]
	}
	tagged := WithConnectionIDs(sorted) // already in order: tagged in place
	out := make([]ConnPacket, len(packets))
	for i, idx := range order {
		out[idx] = tagged[i]
	}
	return out
}

func TestWithConnectionIDsTiesKeepInputOrder(t *testing.T) {
	// Three SYNs on one flow at the same instant: the one earlier in
	// the slice opens the earlier connection.
	pkts := []trace.Header{
		mkPkt(10, trace.FlagSYN, 300),
		mkPkt(5, trace.FlagACK, 50),
		mkPkt(10, trace.FlagSYN, 100),
		mkPkt(0, trace.FlagSYN, 10),
		mkPkt(10, trace.FlagSYN, 200),
	}
	tagged := WithConnectionIDs(pkts)
	want := []uint32{1, 0, 2, 0, 3}
	for i, cp := range tagged {
		if cp.Conn != want[i] {
			t.Fatalf("packet %d: conn %d, want %d", i, cp.Conn, want[i])
		}
	}

	// A shuffled generated trace with timestamps cut to 10 ms, so most
	// packets tie with others, tags as the stable sort ordered it.
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions, cfg.FlowReuse = 400, 0.4
	cfg.Worms, cfg.LowDispersionPayloads, cfg.BackgroundTotal = 0, 0, 0
	cfg.StonePairs, cfg.DecoyFlows = 0, 0
	gen, _ := tracegen.Hotspot(cfg)
	rng := rand.New(rand.NewPCG(3, 4))
	shuffled := make([]trace.Header, len(gen))
	for i, j := range rng.Perm(len(gen)) {
		shuffled[i] = gen[j].Header
		shuffled[i].Time -= shuffled[i].Time % 10_000
	}
	if got, want := WithConnectionIDs(shuffled), connIDsByStableSort(shuffled); !reflect.DeepEqual(got, want) {
		t.Fatal("connection ids differ from the stable-sort ordering")
	}
}

func TestWithConnectionIDsSeparateFlows(t *testing.T) {
	other := trace.Header{Time: 5, SrcIP: 9, DstIP: 2, SrcPort: 10, DstPort: 80,
		Proto: trace.ProtoTCP, Flags: trace.FlagSYN, Seq: 1, Len: 40}
	pkts := []trace.Header{
		mkPkt(0, trace.FlagSYN, 100),
		other,
		mkPkt(10, trace.FlagSYN, 200), // second conn on flow 1
	}
	tagged := WithConnectionIDs(pkts)
	if tagged[1].Conn != 0 {
		t.Fatalf("other flow's conn = %d, want 0", tagged[1].Conn)
	}
	if tagged[2].Conn != 1 {
		t.Fatalf("reused flow's conn = %d, want 1", tagged[2].Conn)
	}
}

func TestConnectionCountMatchesGeneratorTruth(t *testing.T) {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 500
	cfg.FlowReuse = 0.4
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	gen, truth := tracegen.Hotspot(cfg)
	pkts := trace.Headers(gen)
	if truth.Connections <= cfg.Sessions {
		t.Fatalf("FlowReuse produced no extra connections: %d", truth.Connections)
	}
	// Restrict to handshake-bearing flows: the generator's DNS
	// lookups are SYN-less UDP exchanges that would each count as a
	// degenerate in-progress connection.
	hasSYN := make(map[trace.FlowKey]bool)
	for i := range pkts {
		if pkts[i].IsSYN() {
			hasSYN[pkts[i].Flow()] = true
			hasSYN[pkts[i].Flow().Reverse()] = true
		}
	}
	tcp := make([]trace.Header, 0, len(pkts))
	for i := range pkts {
		if hasSYN[pkts[i].Flow()] {
			tcp = append(tcp, pkts[i])
		}
	}
	tagged := WithConnectionIDs(tcp)
	counts := ExactPacketsPerConnection(tagged)
	// Every generated connection emits at least a SYN, so the split
	// should recover nearly all of them (sessions whose follow-up SYN
	// fell past the trace end are the slack).
	if len(counts) < truth.Connections*95/100 || len(counts) > truth.Connections {
		t.Fatalf("split found %d connections, generator opened %d", len(counts), truth.Connections)
	}
}

func TestPrivatePacketsPerConnectionCDF(t *testing.T) {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 600
	cfg.FlowReuse = 0.3
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	pkts, _ := tracegen.Hotspot(cfg)
	tagged := WithConnectionIDs(trace.Headers(pkts))

	buckets := toolkit.LinearBuckets(0, 4, 32)
	exact := ExactCDFFromValues(ExactPacketsPerConnection(tagged), buckets)
	q, root := core.NewQueryable(tagged, math.Inf(1), noise.NewSeededSource(61, 62))
	private, err := PrivatePacketsPerConnectionCDF(q, 0.1, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.5 {
		t.Errorf("per-connection CDF RMSE %v too high", rmse)
	}
	// GroupBy doubles the charge.
	if spent := root.Spent(); math.Abs(spent-0.2) > 1e-9 {
		t.Errorf("spent %v, want 0.2", spent)
	}
}
