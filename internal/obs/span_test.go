package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTraceRecorder("query")
	tr.OpDone("where", 2*time.Millisecond, 10, 4, 0)
	tr.AggDone("count", OutcomeOK, 0.1, time.Millisecond)
	root := tr.Finish()
	if root.Duration <= 0 {
		t.Fatalf("root duration = %v, want > 0", root.Duration)
	}

	// Durations serialize as nanoseconds.
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name       string `json:"name"`
			DurationNs int64  `json:"durationNs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "query" || len(decoded.Children) != 2 {
		t.Fatalf("bad JSON tree: %s", b)
	}
	if decoded.Children[0].DurationNs != int64(2*time.Millisecond) {
		t.Fatalf("child duration not serialized in ns: %s", b)
	}
}

func TestTraceRecorderBuildsChildren(t *testing.T) {
	tr := NewTraceRecorder("query:hosts")
	tr.OpDone("where", 2*time.Millisecond, 100, 60, 0)
	tr.OpDone("groupby", time.Millisecond, 60, 12, 4)
	tr.AggDone("count", OutcomeOK, 0.1, 500*time.Microsecond)
	root := tr.Finish()

	if root.Name != "query:hosts" {
		t.Fatalf("root = %+v", root)
	}
	names := []string{"where", "groupby", "aggregate:count"}
	if len(root.Children) != len(names) {
		t.Fatalf("children = %d, want %d", len(root.Children), len(names))
	}
	for i, want := range names {
		c := root.Children[i]
		if c.Name != want {
			t.Fatalf("child %d = %q, want %q", i, c.Name, want)
		}
		if c.Duration <= 0 {
			t.Fatalf("child %q duration = %v, want > 0", c.Name, c.Duration)
		}
	}
	// Record counts stay off the spans.
	if l := root.Children[1].Labels; l["strategy"] == "" || l["workers"] != "4" || len(l) != 2 {
		t.Fatalf("op labels = %v, want strategy and workers only", l)
	}
	if root.Children[2].Labels["outcome"] != OutcomeOK {
		t.Fatalf("agg labels = %v", root.Children[2].Labels)
	}
	// Zero-duration callbacks are still visible spans.
	tr2 := NewTraceRecorder("q")
	tr2.OpDone("select", 0, 1, 1, 0)
	if got := tr2.Finish().Children[0].Duration; got <= 0 {
		t.Fatalf("zero-duration op span = %v, want > 0", got)
	}
	// Post-Finish callbacks are dropped, not appended.
	tr.OpDone("late", time.Millisecond, 1, 1, 0)
	if len(tr.Finish().Children) != len(names) {
		t.Fatal("callback after Finish should be dropped")
	}
}
