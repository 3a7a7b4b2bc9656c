package flowcdf

import (
	"errors"
	"math"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/noise"
	"dptrace/internal/stats"
	"dptrace/internal/trace"
)

// synthFlows builds nFlows flows where flow i carries i+1 packets, so
// the flow-size distribution is exactly 1..nFlows.
func synthFlows(nFlows int) []trace.Packet {
	var out []trace.Packet
	for i := 0; i < nFlows; i++ {
		p := trace.Packet{
			Header: trace.Header{
				SrcIP:   trace.IPv4(0x0a000000 + uint32(i)),
				DstIP:   0x0a000001,
				SrcPort: uint16(1024 + i%60000),
				DstPort: 80,
				Proto:   trace.ProtoTCP,
				Len:     512,
			},
		}
		for j := 0; j <= i; j++ {
			out = append(out, p)
		}
	}
	return out
}

func TestExactFlowSizeCDF(t *testing.T) {
	packets := synthFlows(100) // sizes 1..100
	got := ExactFlowSizeCDF(packets, []float64{0.25, 0.5, 0.99})
	// Sorted sizes are 1..100; rank int(f*100) indexes size f*100+1.
	want := []float64{26, 51, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("exact[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPrivateFlowSizeCDFAccuracyAndCharge(t *testing.T) {
	packets := synthFlows(400)
	fractions := Fractions(9)
	root := core.NewRootAgent(math.Inf(1))
	q := core.NewQueryableFor(packets, root, noise.NewSeededSource(5, 7))

	const perProbe = 10.0
	private, err := PrivateFlowSizeCDF(q, perProbe, fractions)
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactFlowSizeCDF(packets, fractions)
	rmse, err := stats.RMSE(private, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.05 {
		t.Errorf("relative RMSE %v at eps=%v, want < 0.05 (private %v, exact %v)",
			rmse, perProbe, private, exact)
	}

	// GroupBy doubles sensitivity: K probes at ε each charge 2·K·ε.
	wantSpent := 2 * perProbe * float64(len(fractions))
	if got := root.Spent(); math.Abs(got-wantSpent) > 1e-9 {
		t.Errorf("spent %v, want %v", got, wantSpent)
	}
}

func TestPrivateFlowSizeCDFRefusal(t *testing.T) {
	packets := synthFlows(10)
	root := core.NewRootAgent(1.0)
	q := core.NewQueryableFor(packets, root, noise.NewSeededSource(5, 7))
	// One probe at ε=1 charges 2.0 > budget 1.0: refused, nothing spent.
	if _, err := PrivateFlowSizeCDF(q, 1.0, Fractions(1)); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if got := root.Spent(); got != 0 {
		t.Errorf("refused probe spent %v, want 0", got)
	}
}
