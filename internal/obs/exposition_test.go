package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// updateScript drives reg through every kind of lookup the exposition
// renders: counters, live gauges and histograms with zero, one, two
// and three label pairs, pairs spelled in both orders, values that
// need escaping, and a MetricsRecorder's operator and aggregation
// series (refusals and the parallel engine included).
func updateScript(reg *Registry) {
	reg.Counter("dp_idem_hits_total").Inc()
	reg.Counter("dp_idem_hits_total").Add(2)
	reg.Counter("dp_shed_total", "endpoint", "/v1/query").Inc()
	reg.Counter("dp_shed_total", "endpoint", "/v1/ingest").Add(3)
	reg.Counter("dp_ingest_batches_total", "dataset", "hotspot", "outcome", "ok").Add(4)
	reg.Counter("dp_ingest_batches_total", "outcome", "ok", "dataset", "hotspot").Inc()
	reg.Counter("dp_ingest_batches_total", "outcome", "error", "dataset", "hotspot").Inc()
	reg.Counter("dp_three_total", "c", "3", "a", "1", "b", "2").Add(0.5)
	reg.Counter("dp_three_total", "a", "1", "b", "2", "c", "3").Add(0.25)
	reg.Counter("dp_escaped_total", "k", "quo\"te\\back\nline").Inc()
	reg.Counter("dp_keys_total", "a1", "x", "a", "y").Inc()
	reg.Counter("dp_keys_total", "a", "y", "a1", "x").Inc()
	reg.GaugeFunc("dp_inflight", func() float64 { return 2 })
	reg.GaugeFunc("dp_budget_remaining", func() float64 { return 1.75 }, "dataset", "hotspot")
	reg.Histogram("dpserver_request_seconds", DurationBuckets(), "endpoint", "/v1/query", "code", "200").Observe(0.003)
	reg.Histogram("dpserver_request_seconds", DurationBuckets(), "code", "200", "endpoint", "/v1/query").Observe(0.02)
	reg.Histogram("dp_ledger_commit_records", []float64{1, 2, 4}).Observe(3)
	reg.Histogram("dp_ledger_commit_records", nil).Observe(9)

	rec := NewMetricsRecorder(reg)
	rec.OpDone("where", 1500000, 1000, 400, 0)
	rec.OpDone("where", 500000, 400, 100, FusedWorkers)
	rec.OpDone("groupby", 2000000, 100, 7, 2)
	rec.AggDone("count", OutcomeOK, 0.5, 250000)
	rec.AggDone("count", OutcomeOK, 0.25, 750000)
	rec.AggDone("count", OutcomeRefused, 0.5, 0)
	rec.AggDone("median", OutcomeError, 0.1, 0)
}

// TestRegistrySeriesIdentity pins what finding a series by its raw
// label tuple must keep from rendering its sorted, escaped key on every
// lookup: one instance per series whatever the pairs' order, the panic
// on an odd label count, and WritePrometheus's bytes. The golden file
// was written by that earlier registry for updateScript.
func TestRegistrySeriesIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("c_total", "a", "1", "b", "2") != reg.Counter("c_total", "b", "2", "a", "1") {
		t.Error("the same pairs in another order returned another counter")
	}
	if reg.Counter("c_total", "b", "2", "a", "1") != reg.Counter("c_total", "a", "1", "b", "2") {
		t.Error("a repeated lookup in the second order returned another counter")
	}
	if reg.Histogram("h", []float64{1}, "a", "1", "b", "2") != reg.Histogram("h", nil, "b", "2", "a", "1") {
		t.Error("the same pairs in another order returned another histogram")
	}
	if reg.Counter("c_total", "k", "") == reg.Counter("c_total", "k", "", "", "") {
		t.Error("an empty trailing pair was dropped from the series")
	}

	for name, lookup := range map[string]func(){
		"counter":        func() { reg.Counter("c_total", "a") },
		"counter 3":      func() { reg.Counter("c_total", "a", "1", "b") },
		"counter 5":      func() { reg.Counter("c_total", "a", "1", "b", "2", "c") },
		"histogram":      func() { reg.Histogram("h", nil, "a") },
		"histogram 3":    func() { reg.Histogram("h", nil, "a", "1", "b") },
		"gauge function": func() { reg.GaugeFunc("g", func() float64 { return 0 }, "a") },
	} {
		for try := 0; try < 2; try++ { // a failed first lookup must not cache anything
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s lookup with an odd label count did not panic (try %d)", name, try)
					}
				}()
				lookup()
			}()
		}
	}

	reg = NewRegistry()
	updateScript(reg)
	golden := filepath.Join("testdata", "exposition.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, reg); got != string(want) {
		t.Fatalf("exposition differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
