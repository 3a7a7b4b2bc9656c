package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The benchmark's paths (bench/out, bench/digests.json) are relative to
// the repository root, where the driver and `go run ./bench` start it;
// `go test` starts in the package directory.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// testScale runs every op count at 1/100 (floored at the minimums in
// sizesFor): a smoke test of the harness, not a measurement.
const testScale = 0.01

func TestEveryWorkloadAtTestScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel() // timings mean nothing at this scale
			checkWorkloadRun(t, w)
		})
	}
}

func checkWorkloadRun(t *testing.T, w string) {
	{
		res, err := runWorkload(w, 7, testScale, false, false)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s: checks failed: %v", w, res.Failures)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w, m.Name, v, ok)
			}
		}
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line %s: %v", w, line, err)
		}
	}
}

func TestTracedRunWritesSpansAndEveryLayerMetric(t *testing.T) {
	t.Parallel()
	// mixed-live: the one workload whose run has all five sections.
	res, err := runWorkload(wMixed, 7, 2*testScale, true, false) // a traced run halves its scale
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("checks failed: %v", res.Failures)
	}
	for _, l := range perLayer {
		v, ok := res.PerLayer[l.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != l.Unit {
			t.Errorf("per-layer %s = %+v (present %v)", l.Name, v, ok)
		}
	}
	if len(res.PerLayer) != len(perLayer) {
		t.Errorf("traced run reported %d per-layer metrics, the table lists %d", len(res.PerLayer), len(perLayer))
	}

	b, err := os.ReadFile(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int]span{}
	children := 0
	for _, sp := range doc.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range doc.Spans {
		if sp.Request == "" || sp.Name == "" || sp.End < sp.Start {
			t.Fatalf("malformed span %+v", sp)
		}
		if sp.Parent == 0 {
			continue
		}
		children++
		parent, ok := byID[sp.Parent]
		if !ok || parent.Request != sp.Request || sp.Start < parent.Start || sp.End > parent.End {
			t.Fatalf("span %+v does not nest in its parent %+v", sp, parent)
		}
	}
	if children == 0 {
		t.Error("no span has a parent: the replay recorded no layers")
	}
}

// BENCHMARK.json is outside the benchmark's directory, so the two can
// drift; this is the guard.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Bound != want.Bound || m.Better != better(want.Higher) {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != better(want.Higher) {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, want)
		}
	}
}

// The spread statistic must be the driver's: Python's
// statistics.quantiles(values, n=4) on the same ten values gives
// [2.75, 5.5, 8.25].
func TestQuartileSpreadIsPythonsExclusiveMethod(t *testing.T) {
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("got %v %v %v spread %v", q1, med, q3, spread)
	}
}
