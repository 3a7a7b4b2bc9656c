package obs

import (
	"testing"
	"time"
)

// TestAllocRegistryHit pins the hit path: once a series exists, finding
// it again — a Counter or Histogram lookup with zero, one or two label
// pairs, or a MetricsRecorder report on a known operator or
// aggregation — allocates nothing. The served lencdf makes one
// aggregation per bucket, so a string built per lookup is paid about a
// hundred times a query.
func TestAllocRegistryHit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	reg := NewRegistry()
	rec := NewMetricsRecorder(reg)
	outcome := OutcomeOK
	for name, hit := range map[string]func(){
		"Counter/0 pairs":   func() { reg.Counter("dp_idem_hits_total").Inc() },
		"Counter/1 pair":    func() { reg.Counter("dp_shed_total", "endpoint", "/v1/query").Inc() },
		"Counter/2 pairs":   func() { reg.Counter("dp_agg_total", "agg", "count", "outcome", outcome).Inc() },
		"Histogram/0 pairs": func() { reg.Histogram("dp_ledger_fsync_seconds", DurationBuckets()).Observe(0.001) },
		"Histogram/1 pair": func() {
			reg.Histogram("dp_op_duration_seconds", DurationBuckets(), "op", "where").Observe(0.001)
		},
		"Histogram/2 pairs": func() {
			reg.Histogram("dpserver_request_seconds", DurationBuckets(), "endpoint", "/v1/query", "code", "200").Observe(0.001)
		},
		"AggDone/ok":      func() { rec.AggDone("count", OutcomeOK, 0.1, time.Millisecond) },
		"AggDone/refused": func() { rec.AggDone("count", OutcomeRefused, 0.1, 0) },
		"OpDone":          func() { rec.OpDone("where", time.Millisecond, 100, 40, 0) },
		"OpDone/parallel": func() { rec.OpDone("groupby", time.Millisecond, 100, 40, 2) },
	} {
		hit() // the first use creates the series
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", name, n)
		}
	}
}

// BenchmarkRegistryCounterHit is one lookup of an existing two-pair
// counter plus its increment: the cost every label-carrying call site
// pays per event.
func BenchmarkRegistryCounterHit(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("dp_agg_total", "agg", "count", "outcome", OutcomeOK)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("dp_agg_total", "agg", "count", "outcome", OutcomeOK).Inc()
	}
}

// BenchmarkMetricsRecorderAggDone is one successful aggregation's
// report on a known series: the telemetry a served lencdf pays once
// per bucket.
func BenchmarkMetricsRecorderAggDone(b *testing.B) {
	rec := NewMetricsRecorder(NewRegistry())
	rec.AggDone("count", OutcomeOK, 0.1, time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.AggDone("count", OutcomeOK, 0.1, time.Millisecond)
	}
}
