package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	c1 := root.StartChild("where")
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.StartChild("groupby")
	c2.SetLabel("records_in", "10")
	c2.End()
	root.End()

	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if c1.Parent() != root || c2.Parent() != root {
		t.Fatal("parent links broken")
	}
	if c1.Duration < time.Millisecond {
		t.Fatalf("c1 duration = %v, want >= 1ms", c1.Duration)
	}
	for _, s := range []*Span{root, c1, c2} {
		if s.Duration <= 0 {
			t.Fatalf("span %q has non-positive duration %v", s.Name, s.Duration)
		}
	}
	if c2.Labels["records_in"] != "10" {
		t.Fatalf("labels = %v", c2.Labels)
	}

	// The tree must serialize without choking on the private parent
	// pointer, and durations must come out as nanoseconds.
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
	if decoded.Children[0].DurationNs <= 0 {
		t.Fatalf("child duration not serialized: %s", b)
	}
}

func TestTraceRecorderBuildsChildren(t *testing.T) {
	tr := NewTraceRecorder("query:hosts")
	tr.SetLabel("analyst", "alice")
	tr.OpDone("where", 2*time.Millisecond, 100, 60, 0)
	tr.OpDone("groupby", time.Millisecond, 60, 12, 4)
	tr.AggDone("count", OutcomeOK, 0.1, 500*time.Microsecond)
	root := tr.Finish()

	if root.Name != "query:hosts" || root.Labels["analyst"] != "alice" {
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
	// A trace goes back to the analyst: record counts stay off it.
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

func TestTraceBufferRing(t *testing.T) {
	b := NewTraceBuffer(3)
	for i := 0; i < 5; i++ {
		s := NewSpan("q" + itoa(i))
		s.End()
		b.Add(s)
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	got := b.Snapshot()
	want := []string{"q4", "q3", "q2"} // newest first
	for i, w := range want {
		if got[i].Name != w {
			t.Fatalf("snapshot[%d] = %q, want %q", i, got[i].Name, w)
		}
	}
	b.Add(nil) // ignored
	if b.Len() != 3 {
		t.Fatal("nil add should be ignored")
	}
}

func TestTraceBufferConcurrent(t *testing.T) {
	b := NewTraceBuffer(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := NewSpan("s")
				s.End()
				b.Add(s)
				if i%50 == 0 {
					b.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if b.Len() != 8 {
		t.Fatalf("len = %d, want 8", b.Len())
	}
	for _, s := range b.Snapshot() {
		if s == nil {
			t.Fatal("ring leaked a nil slot")
		}
	}
}
