package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dptrace/internal/noise"
	"dptrace/internal/obs"
)

// captureRecorder records every callback for assertions.
type captureRecorder struct {
	ops  []capturedOp
	aggs []capturedAgg
}

type capturedOp struct {
	op      string
	d       time.Duration
	in, out int
	workers int
}

type capturedAgg struct {
	agg, outcome string
	epsilon      float64
}

func (c *captureRecorder) OpDone(op string, d time.Duration, in, out, workers int) {
	c.ops = append(c.ops, capturedOp{op, d, in, out, workers})
}

func (c *captureRecorder) AggDone(agg, outcome string, epsilon float64, d time.Duration) {
	c.aggs = append(c.aggs, capturedAgg{agg, outcome, epsilon})
}

func TestRecorderSeesPipeline(t *testing.T) {
	records := make([]int, 100)
	for i := range records {
		records[i] = i
	}
	q, _ := NewQueryable(records, 10.0, noise.NewSeededSource(1, 2))
	rec := &captureRecorder{}
	q = q.WithRecorder(rec)

	filtered := q.Where(func(x int) bool { return x%2 == 0 })
	mapped := Select(filtered, func(x int) int { return x })
	grouped := GroupBy(mapped, func(x int) int { return x % 5 })
	if _, err := grouped.NoisyCount(0.1); err != nil {
		t.Fatal(err)
	}

	wantOps := []capturedOp{
		{op: "where", in: 100, out: 50},
		{op: "select", in: 50, out: 50},
		{op: "groupby", in: 50, out: 5},
	}
	if len(rec.ops) != len(wantOps) {
		t.Fatalf("ops = %+v, want %d entries", rec.ops, len(wantOps))
	}
	for i, w := range wantOps {
		got := rec.ops[i]
		if got.op != w.op || got.in != w.in || got.out != w.out {
			t.Fatalf("op %d = %+v, want %+v", i, got, w)
		}
	}
	if len(rec.aggs) != 1 || rec.aggs[0] != (capturedAgg{"count", obs.OutcomeOK, 0.1}) {
		t.Fatalf("aggs = %+v", rec.aggs)
	}
}

func TestRecorderBinaryOpsAndPartition(t *testing.T) {
	a, _ := NewQueryable([]int{1, 2, 3, 4}, math.Inf(1), noise.NewSeededSource(1, 2))
	rec := &captureRecorder{}
	a = a.WithRecorder(rec)
	b, _ := NewQueryable([]int{3, 4, 5}, math.Inf(1), noise.NewSeededSource(3, 4))

	// The recorder must survive binary combination with an
	// uninstrumented input.
	j := Join(a, b, func(x int) int { return x }, func(x int) int { return x },
		func(x, y int) int { return x + y })
	if len(rec.ops) != 1 || rec.ops[0].op != "join" || rec.ops[0].in != 7 || rec.ops[0].out != 2 {
		t.Fatalf("join op = %+v", rec.ops)
	}
	if _, err := j.NoisyCount(0.1); err != nil {
		t.Fatal(err)
	}
	if len(rec.aggs) != 1 {
		t.Fatalf("join result lost the recorder: %+v", rec.aggs)
	}

	rec.ops = nil
	parts := Partition(a, []int{0, 1}, func(x int) int { return x % 2 })
	if len(rec.ops) != 1 || rec.ops[0].op != "partition" || rec.ops[0].in != 4 || rec.ops[0].out != 4 {
		t.Fatalf("partition op = %+v", rec.ops)
	}
	rec.aggs = nil
	if _, err := parts[0].NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	if len(rec.aggs) != 1 {
		t.Fatal("partition member lost the recorder")
	}
}

func TestRecorderOutcomes(t *testing.T) {
	q, _ := NewQueryable([]int{1, 2, 3}, 0.5, noise.NewSeededSource(1, 2))
	rec := &captureRecorder{}
	q = q.WithRecorder(rec)

	if _, err := q.NoisyCount(0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NoisyCount(0.4); err == nil {
		t.Fatal("expected refusal")
	}
	if _, err := q.NoisyCount(-1); err == nil {
		t.Fatal("expected epsilon error")
	}
	want := []capturedAgg{
		{"count", obs.OutcomeOK, 0.4},
		{"count", obs.OutcomeRefused, 0.4},
		{"count", obs.OutcomeError, -1},
	}
	if len(rec.aggs) != len(want) {
		t.Fatalf("aggs = %+v", rec.aggs)
	}
	for i, w := range want {
		if rec.aggs[i] != w {
			t.Fatalf("agg %d = %+v, want %+v", i, rec.aggs[i], w)
		}
	}
}

func TestDefaultRecorder(t *testing.T) {
	if DefaultRecorder() != nil {
		t.Fatal("default recorder should start nil")
	}
	reg := obs.NewRegistry()
	SetDefaultRecorder(obs.NewMetricsRecorder(reg))
	defer SetDefaultRecorder(nil)

	q, _ := NewQueryable([]int{1, 2, 3}, math.Inf(1), noise.NewSeededSource(1, 2))
	q.Where(func(int) bool { return true })
	if _, err := q.NoisyCount(0.1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dp_op_records_in_total", "op", "where").Value(); got != 3 {
		t.Fatalf("default recorder missed where: %v", got)
	}
	if got := reg.Counter("dp_agg_total", "agg", "count", "outcome", "ok").Value(); got != 1 {
		t.Fatalf("default recorder missed count: %v", got)
	}

	SetDefaultRecorder(nil)
	q2, _ := NewQueryable([]int{1}, math.Inf(1), noise.NewSeededSource(1, 2))
	q2.Where(func(int) bool { return true })
	if got := reg.Counter("dp_op_records_in_total", "op", "where").Value(); got != 3 {
		t.Fatalf("recorder not detached: %v", got)
	}
}

func TestRootAgentRegisterGauges(t *testing.T) {
	reg := obs.NewRegistry()
	q, root := NewQueryable([]int{1, 2, 3}, 2.0, noise.NewSeededSource(1, 2))
	root.RegisterGauges(reg, "dataset", "t")
	if _, err := q.NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dp_budget_total{dataset="t"} 2` + "\n",
		`dp_budget_spent{dataset="t"} 0.5` + "\n",
		`dp_budget_remaining{dataset="t"} 1.5` + "\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("budget gauges missing %q:\n%s", want, b.String())
		}
	}
}

func TestPerAnalystSpent(t *testing.T) {
	p := NewAnalystPolicy(10, 2)
	src := noise.NewSeededSource(1, 2)
	qa := NewQueryableFor([]int{1, 2}, p.AgentFor("alice"), src)
	qb := NewQueryableFor([]int{1, 2}, p.AgentFor("bob"), src)
	if _, err := qa.NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := qb.NoisyCount(0.25); err != nil {
		t.Fatal(err)
	}
	got := p.PerAnalystSpent()
	if got["alice"] != 0.5 || got["bob"] != 0.25 || len(got) != 2 {
		t.Fatalf("per-analyst spent = %v", got)
	}
}
