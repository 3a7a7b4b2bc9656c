package steppingstone

import (
	"math"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func stoneTrace(t *testing.T) ([]trace.Packet, *tracegen.HotspotTruth, tracegen.HotspotConfig) {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 200
	cfg.Hosts = 60
	cfg.Servers = 20
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 5
	cfg.DecoyFlows = 10
	cfg.StoneActivations = 250
	cfg.Duration = 600
	pkts, truth := tracegen.Hotspot(cfg)
	return pkts, truth, cfg
}

func interactiveFlows(truth *tracegen.HotspotTruth) []trace.FlowKey {
	var flows []trace.FlowKey
	for _, p := range truth.StonePairs {
		flows = append(flows, p[0], p[1])
	}
	flows = append(flows, truth.DecoyFlows...)
	return flows
}

func TestExactActivationsRespectIdleGap(t *testing.T) {
	pkts := []trace.Packet{
		{Header: trace.Header{Time: 0, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: trace.ProtoTCP}},
		{Header: trace.Header{Time: 100_000, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: trace.ProtoTCP}},   // active: no
		{Header: trace.Header{Time: 800_000, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: trace.ProtoTCP}},   // gap 700ms: yes
		{Header: trace.Header{Time: 900_000, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: trace.ProtoTCP}},   // no
		{Header: trace.Header{Time: 2_000_000, SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: trace.ProtoTCP}}, // yes
	}
	acts := ExactActivations(pkts, DefaultTIdleUs)
	if len(acts) != 3 {
		t.Fatalf("got %d activations, want 3 (first packet + two gaps): %+v", len(acts), acts)
	}
	wantTimes := []int64{0, 800_000, 2_000_000}
	for i, a := range acts {
		if a.TimeUs != wantTimes[i] {
			t.Fatalf("activation %d at %d, want %d", i, a.TimeUs, wantTimes[i])
		}
	}
}

// TestPrivateActivationsMatchExact: the bucketed two-pass derivation
// should find nearly the same activations as the exact scan.
func TestPrivateActivationsMatchExact(t *testing.T) {
	pkts, truth, _ := stoneTrace(t)
	exact := ExactActivations(pkts, DefaultTIdleUs)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(21, 22))
	acts := Activations(q, DefaultTIdleUs)
	flows := interactiveFlows(truth)
	// Compare per-flow counts with huge epsilon (negligible noise).
	parts := core.Partition(acts, flows, func(a Activation) trace.FlowKey { return a.Flow })
	exactCount := make(map[trace.FlowKey]int)
	for _, a := range exact {
		exactCount[a.Flow]++
	}
	for _, f := range flows {
		c, err := parts[f].NoisyCount(1000)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(exactCount[f])
		// The bucket trick misses activations whose predecessor falls
		// just outside its bucket; allow a small relative gap.
		if math.Abs(c-want) > 0.15*want+3 {
			t.Errorf("flow %v: bucketed activations %v, exact %v", f, c, want)
		}
	}
}

func TestActivationsPrivacyCost(t *testing.T) {
	pkts, _, _ := stoneTrace(t)
	q, root := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(23, 24))
	acts := Activations(q, DefaultTIdleUs)
	if _, err := acts.NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	// Two Concat'ed GroupBys over the same trace: 2x2x0.5 = 2.0.
	if spent := root.Spent(); math.Abs(spent-2.0) > 1e-9 {
		t.Errorf("spent %v, want 2.0", spent)
	}
}

func TestCandidateFlowsSelectsByActivationCount(t *testing.T) {
	pkts, truth, cfg := stoneTrace(t)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(25, 26))
	acts := Activations(q, DefaultTIdleUs)
	flows := interactiveFlows(truth)
	// All interactive flows have ~StoneActivations activations; session
	// flows (not listed) have few. A generous band catches them all.
	lo, hi := float64(cfg.StoneActivations)*0.3, float64(cfg.StoneActivations)*2
	got, err := CandidateFlows(acts, flows, 10, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Errorf("selected %d/%d interactive flows", len(got), len(flows))
	}
	// A disjoint band selects none.
	none, err := CandidateFlows(acts, flows, 10, 1e6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("absurd band selected %d flows", len(none))
	}
}

func TestEvaluatePairsRanksStonesFirst(t *testing.T) {
	pkts, truth, _ := stoneTrace(t)
	q, _ := core.NewQueryable(pkts, math.Inf(1), noise.NewSeededSource(27, 28))
	acts := Activations(q, DefaultTIdleUs)
	flows := interactiveFlows(truth)
	scores, err := EvaluatePairs(acts, flows, DefaultDeltaUs, 10)
	if err != nil {
		t.Fatal(err)
	}
	isStone := func(a, b trace.FlowKey) bool {
		for _, p := range truth.StonePairs {
			if (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a) {
				return true
			}
		}
		return false
	}
	// The top len(StonePairs) scores should all be true stone pairs.
	for i := 0; i < len(truth.StonePairs); i++ {
		if !isStone(scores[i].A, scores[i].B) {
			t.Errorf("rank %d pair %v-%v is not a true stone (corr %v)",
				i, scores[i].A, scores[i].B, scores[i].Corr)
		}
		if scores[i].Corr < 0.3 {
			t.Errorf("true stone pair correlation %v below the paper's 0.3 threshold", scores[i].Corr)
		}
	}
	// Non-stone pairs should score low.
	var worstNonStone float64
	for _, s := range scores {
		if !isStone(s.A, s.B) && s.Corr > worstNonStone {
			worstNonStone = s.Corr
		}
	}
	if worstNonStone > 0.3 {
		t.Errorf("a non-stone pair scored %v (> 0.3)", worstNonStone)
	}
}

func TestExactPairCorrelation(t *testing.T) {
	a := trace.FlowKey{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 2, Proto: 6}
	b := trace.FlowKey{SrcIP: 3, SrcPort: 3, DstIP: 4, DstPort: 4, Proto: 6}
	acts := []Activation{
		{Flow: a, TimeUs: 0}, {Flow: b, TimeUs: 10_000}, // correlated
		{Flow: a, TimeUs: 1_000_000}, {Flow: b, TimeUs: 1_030_000}, // correlated
		{Flow: a, TimeUs: 5_000_000}, // not followed
		{Flow: b, TimeUs: 9_000_000}, // not preceded
	}
	got := ExactPairCorrelation(acts, a, b, DefaultDeltaUs)
	want := 2.0 * 2 / 6
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("correlation %v, want %v", got, want)
	}
	if c := ExactPairCorrelation(nil, a, b, DefaultDeltaUs); c != 0 {
		t.Fatalf("empty correlation %v, want 0", c)
	}
}

func TestExactTopPairsFindStones(t *testing.T) {
	pkts, truth, _ := stoneTrace(t)
	acts := ExactActivations(pkts, DefaultTIdleUs)
	flows := interactiveFlows(truth)
	top := ExactTopPairs(acts, flows, DefaultDeltaUs)
	for i := 0; i < len(truth.StonePairs); i++ {
		found := false
		for _, p := range truth.StonePairs {
			if (p[0] == top[i].A && p[1] == top[i].B) || (p[0] == top[i].B && p[1] == top[i].A) {
				found = true
			}
		}
		if !found {
			t.Errorf("exact rank %d is not a true stone pair (corr %v)", i, top[i].Corr)
		}
	}
}

func TestActivationsPanicsOnBadTIdle(t *testing.T) {
	q, _ := core.NewQueryable([]trace.Packet{}, 1, noise.NewSeededSource(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("tIdle=0 did not panic")
		}
	}()
	Activations(q, 0)
}
