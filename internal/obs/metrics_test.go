package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// scrape renders reg in the Prometheus text format.
func scrape(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "endpoint", "/query")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := reg.Counter("requests_total", "endpoint", "/query"); again != c {
		t.Fatal("same name+labels should return the same counter")
	}
	if other := reg.Counter("requests_total", "endpoint", "/audit"); other == c {
		t.Fatal("different labels should return a different counter")
	}

	depth := 7.0
	reg.GaugeFunc("depth", func() float64 { return depth })
	depth -= 2 // read at scrape time, not at registration
	reg.GaugeFunc("live", func() float64 { return 41 })
	reg.GaugeFunc("live", func() float64 { return 42 }) // replaces the first
	out := scrape(t, reg)
	for _, want := range []string{"# TYPE depth gauge\ndepth 5\n", "# TYPE live gauge\nlive 42\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	if strings.Contains(out, "live 41") {
		t.Errorf("re-registered gauge func kept its old value:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", h.Sum())
	}
	// Cumulative: ≤0.1 holds 2 (0.05 and the boundary 0.1), ≤1 holds
	// 3, ≤10 holds 4, +Inf holds all 5.
	want := `latency_bucket{le="0.1"} 2
latency_bucket{le="1"} 3
latency_bucket{le="10"} 4
latency_bucket{le="+Inf"} 5
latency_sum 55.65
latency_count 5
`
	if out := scrape(t, reg); !strings.Contains(out, want) {
		t.Fatalf("exposition missing\n%s\ngot:\n%s", want, out)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dp_agg_total", "agg", "count", "outcome", "ok").Add(4)
	reg.Counter("dp_agg_total", "agg", "count", "outcome", "refused").Inc()
	reg.GaugeFunc("dp_budget_spent", func() float64 { return 1.5 }, "dataset", "hotspot")
	reg.GaugeFunc("dp_budget_remaining", func() float64 { return math.Inf(1) }, "dataset", "hotspot")
	reg.Histogram("req_seconds", []float64{0.5}, "endpoint", "/query").Observe(0.25)

	out := scrape(t, reg)
	for _, want := range []string{
		"# TYPE dp_agg_total counter",
		`dp_agg_total{agg="count",outcome="ok"} 4`,
		`dp_agg_total{agg="count",outcome="refused"} 1`,
		"# TYPE dp_budget_spent gauge",
		`dp_budget_spent{dataset="hotspot"} 1.5`,
		`dp_budget_remaining{dataset="hotspot"} +Inf`,
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{endpoint="/query",le="0.5"} 1`,
		`req_seconds_bucket{endpoint="/query",le="+Inf"} 1`,
		`req_seconds_sum{endpoint="/query"} 0.25`,
		`req_seconds_count{endpoint="/query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	// A family's TYPE line must appear exactly once.
	if strings.Count(out, "# TYPE dp_agg_total counter") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c_total", "g", itoa(g%2)).Inc()
				reg.GaugeFunc("g", func() float64 { return float64(g) }, "g", itoa(g))
				reg.Histogram("h", []float64{1, 2}).Observe(float64(i % 3))
				if i%100 == 0 {
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if total := reg.Counter("c_total", "g", "0").Value() + reg.Counter("c_total", "g", "1").Value(); total != 8000 {
		t.Fatalf("counter total = %v, want 8000", total)
	}
	if n := reg.Histogram("h", nil).Count(); n != 8000 {
		t.Fatalf("histogram count = %d, want 8000", n)
	}
	if n := strings.Count(scrape(t, reg), "\ng{g="); n != 8 {
		t.Fatalf("%d gauge series, want 8", n)
	}
}

func TestMetricsRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	rec.OpDone("where", 1e6, 100, 40, 0)
	rec.OpDone("where", 2e6, 40, 40, 0)
	rec.AggDone("count", OutcomeOK, 0.1, 5e5)
	rec.AggDone("count", OutcomeRefused, 0.1, 0)

	if got := reg.Counter("dp_op_records_in_total", "op", "where").Value(); got != 140 {
		t.Fatalf("records in = %v, want 140", got)
	}
	if got := reg.Counter("dp_agg_total", "agg", "count", "outcome", "ok").Value(); got != 1 {
		t.Fatalf("ok aggs = %v, want 1", got)
	}
	if got := reg.Counter("dp_agg_total", "agg", "count", "outcome", "refused").Value(); got != 1 {
		t.Fatalf("refused aggs = %v, want 1", got)
	}
	// Refusals must not count as spend.
	if got := reg.Counter("dp_budget_spend_total").Value(); got != 0.1 {
		t.Fatalf("spend = %v, want 0.1", got)
	}
	h := reg.Histogram("dp_op_duration_seconds", DurationBuckets(), "op", "where")
	if h.Count() != 2 {
		t.Fatalf("op duration observations = %d, want 2", h.Count())
	}
}

func TestMultiRecorder(t *testing.T) {
	reg1, reg2 := NewRegistry(), NewRegistry()
	rec := Multi(nil, NewMetricsRecorder(reg1), NewMetricsRecorder(reg2))
	rec.OpDone("select", 1000, 5, 5, 8)
	for _, reg := range []*Registry{reg1, reg2} {
		if got := reg.Counter("dp_op_records_in_total", "op", "select").Value(); got != 5 {
			t.Fatalf("fan-out lost a recorder: got %v", got)
		}
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should collapse to nil")
	}
	single := NewMetricsRecorder(reg1)
	if Multi(single) != Recorder(single) {
		t.Fatal("Multi of one should return it unchanged")
	}
}

// TestLabelEscapingRoundTrip pins the Prometheus text exposition
// escaping rules — backslash, double-quote, and line feed escaped
// exactly once — and that reading the escapes back out of the
// exposition recovers the original value.
func TestLabelEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`back\slash`,
		`quo"te`,
		"new\nline",
		`a\nb`,         // escaped backslash then literal "nb" — not a newline
		`\\`,           // two backslashes
		`\"`,           // backslash then quote
		"mix\\\"\nend", // all three specials
		`trailing\`,    // ends on a backslash
	}
	for _, v := range values {
		reg := NewRegistry()
		reg.Counter("m_total", "k", v).Inc()

		out := scrape(t, reg)
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "m_total{") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("no sample line for %q:\n%s", v, out)
		}
		// The exposition value must contain no raw quote, backslash, or
		// newline inside the quoted label (only escape sequences), and
		// undoing those escapes in one pass must give back the value.
		inner := strings.TrimSuffix(strings.TrimPrefix(line, `m_total{k="`), `"} 1`)
		var got strings.Builder
		for i := 0; i < len(inner); i++ {
			switch inner[i] {
			case '\n':
				t.Errorf("raw newline in exposition of %q: %q", v, inner)
			case '"':
				t.Errorf("unescaped quote in exposition of %q: %q", v, inner)
			case '\\':
				i++ // escape sequence: consumes the next byte
				if i >= len(inner) {
					t.Errorf("trailing backslash in exposition of %q: %q", v, inner)
					continue
				}
				switch inner[i] {
				case '\\', '"':
					got.WriteByte(inner[i])
				case 'n':
					got.WriteByte('\n')
				default:
					t.Errorf("bad escape in exposition of %q: %q", v, inner)
				}
				continue
			}
			got.WriteByte(inner[i])
		}
		if got.String() != v {
			t.Errorf("round trip: got %q, want %q (line %q)", got.String(), v, line)
		}
	}
}

func TestEscapeLabelDistinctValues(t *testing.T) {
	// `a\nb` (backslash-n-b) and "a\nb" (newline) must not collide into
	// one metric instance after escaping.
	reg := NewRegistry()
	reg.Counter("m_total", "k", `a\nb`).Inc()
	reg.Counter("m_total", "k", "a\nb").Inc()
	if got := strings.Count(scrape(t, reg), "\nm_total{"); got != 2 {
		t.Fatalf("distinct values collided: %d instances", got)
	}
}
