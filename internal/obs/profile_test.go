package obs

import (
	"strings"
	"testing"
	"time"
)

func TestProfileRecorderAssemblesProfile(t *testing.T) {
	spent := 0.0
	r := NewProfileRecorder(func() float64 { return spent })

	r.OpDone("where", 2*time.Millisecond, 1000, 400, 0)
	r.OpDone("groupby", time.Millisecond, 400, 40, 8)
	spent = 0.25 // dual-agent charged more than requested (scaling)
	r.AggDone("count", OutcomeOK, 0.1, 500*time.Microsecond)
	spent = 0.25 // refusal: meter unchanged
	r.AggDone("count", OutcomeRefused, 5, 10*time.Microsecond)

	p := r.Profile()
	if len(p.Ops) != 2 || len(p.Aggs) != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Ops[0].Strategy != StrategySequential || p.Ops[0].Workers != 0 {
		t.Errorf("op 0 strategy = %+v", p.Ops[0])
	}
	if p.Ops[1].Strategy != StrategyParallel || p.Ops[1].Workers != 8 {
		t.Errorf("op 1 strategy = %+v", p.Ops[1])
	}
	if p.Ops[1].RecordsIn != 400 || p.Ops[1].RecordsOut != 40 {
		t.Errorf("op 1 rows = %+v", p.Ops[1])
	}
	if p.Aggs[0].EpsilonRequested != 0.1 || p.Aggs[0].EpsilonCharged != 0.25 {
		t.Errorf("agg 0 = %+v", p.Aggs[0])
	}
	if p.Aggs[1].EpsilonCharged != 0 || p.Aggs[1].Outcome != OutcomeRefused {
		t.Errorf("agg 1 = %+v", p.Aggs[1])
	}
	if got := p.TotalCharged(); got != 0.25 {
		t.Errorf("TotalCharged = %v", got)
	}
	if got := p.ParallelOps(); got != 1 {
		t.Errorf("ParallelOps = %v", got)
	}
}

func TestProfileRecorderNilMeter(t *testing.T) {
	r := NewProfileRecorder(nil)
	r.AggDone("count", OutcomeOK, 0.1, time.Microsecond)
	if got := r.Profile().Aggs[0].EpsilonCharged; got != 0 {
		t.Errorf("charged without meter = %v", got)
	}
}

// TestProfileRedact pins the §S31 invariant: an analyst-facing profile
// must not carry exact record counts (they are pre-noise aggregate
// values) nor the size-chosen strategy, while plan shape, fusion,
// timings, and ε accounting survive.
func TestProfileRedact(t *testing.T) {
	r := NewProfileRecorder(nil)
	r.OpDone("where", time.Millisecond, 12345, 678, 4)
	r.OpDone("select", 0, 678, 678, FusedWorkers)
	r.OpDone("groupby", time.Millisecond, 678, 9, 0)
	r.AggDone("count", OutcomeOK, 0.1, time.Microsecond)
	p := r.Profile()

	red := p.Redact()
	if !red.Redacted || !red.Ops[0].Redacted {
		t.Fatal("redacted copy not marked")
	}
	if red.Ops[0].RecordsIn != 0 || red.Ops[0].RecordsOut != 0 {
		t.Fatalf("record counts leaked: %+v", red.Ops[0])
	}
	// A parallel and a sequential row read alike; a fused row says so.
	for i, want := range []string{"", StrategyFused, ""} {
		if op := red.Ops[i]; op.Strategy != want || op.Workers != 0 {
			t.Errorf("redacted row %d = %+v, want strategy %q and no workers", i, op, want)
		}
	}
	if red.Ops[0].Op != "where" || red.Ops[0].DurationNs == 0 {
		t.Fatalf("plan shape lost: %+v", red.Ops[0])
	}
	if len(red.Aggs) != 1 || red.Aggs[0].EpsilonRequested != 0.1 {
		t.Fatalf("agg rows lost: %+v", red.Aggs)
	}
	// The original is untouched (owner-side surfaces keep counts and
	// strategies).
	if p.Ops[0].RecordsIn != 12345 || p.Ops[0].Workers != 4 || p.Ops[0].Strategy != StrategyParallel || p.Redacted {
		t.Fatalf("original mutated: %+v", p.Ops[0])
	}
	if (*Profile)(nil).Redact() != nil {
		t.Error("nil profile should redact to nil")
	}
}

func TestProfileWriteText(t *testing.T) {
	r := NewProfileRecorder(nil)
	r.OpDone("where", time.Millisecond, 100, 40, 0)
	r.OpDone("groupby", time.Millisecond, 40, 8, 4)
	r.AggDone("count", OutcomeOK, 0.1, time.Microsecond)
	p := r.Profile()

	var b strings.Builder
	p.WriteText(&b)
	text := b.String()
	for _, want := range []string{"where", "groupby", "parallel ×4", "100 → 40", "ε 0.1 requested"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan text missing %q:\n%s", want, text)
		}
	}

	b.Reset()
	p.Redact().WriteText(&b)
	if strings.Contains(b.String(), "100") {
		t.Errorf("redacted plan leaked counts:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "[redacted]") {
		t.Errorf("redacted plan not labeled:\n%s", b.String())
	}
}
