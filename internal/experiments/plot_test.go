package experiments

import (
	"strings"
	"testing"
)

func TestWriteCSVFormat(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{3}, Y: []float64{30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\na,1,10\na,2,20\nb,3,30\n"
	if b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
}

// TestPlottersProduceConsistentSeries runs the cheapest plottable
// experiments and checks every series is well-formed (equal X/Y
// lengths, non-empty, named).
func TestPlottersProduceConsistentSeries(t *testing.T) {
	plotters := map[string]Plotter{
		"fig5":       RunFig5(1),
		"thresholds": thresholdsSeed1(),
	}
	for name, p := range plotters {
		for _, s := range p.Series() {
			if s.Name == "" {
				t.Errorf("%s: unnamed series", name)
			}
			if len(s.X) == 0 || len(s.X) != len(s.Y) {
				t.Errorf("%s/%s: %d x values, %d y values", name, s.Name, len(s.X), len(s.Y))
			}
		}
	}
}
