package ledger

import (
	"errors"
	"fmt"
	"testing"

	"dptrace/internal/standing"
)

// These tests pin the standing-query fold: the standing_window event
// is atomic charge-plus-cursor (both move, or neither), replay
// reproduces spends in event order, the result ring is bounded exactly
// like the live one, and references the history never established are
// corruption.

// standingHistory builds dataset "d" plus one registration "sq-1"
// (width 20, ε 0.1 per window, reservation 1, base 64).
func standingHistory() []Event {
	return []Event{
		{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 5},
		{Type: EventStandingRegistered, Dataset: "d", Analyst: "mon", Standing: "sq-1",
			Query: "count", Epsilon: 0.1, Reservation: 1, Width: 20, Base: 64,
			Body: []byte(`{"query":"count"}`)},
	}
}

func standingWindow(i uint64, charged float64, outcome string) Event {
	return Event{
		Type: EventStandingWindow, Dataset: "d", Analyst: "mon", Standing: "sq-1",
		Window: i, WindowStart: 64 + i*20, Watermark: 84 + i*20,
		Charged: charged, Outcome: outcome,
		Body: []byte(fmt.Sprintf(`{"window":%d}`, i)),
	}
}

func TestStandingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, standingHistory())
	appendAll(t, l, []Event{
		standingWindow(0, 0.1, "ok"),
		standingWindow(1, 0.1, "ok"),
		{Type: EventStandingCanceled, Dataset: "d", Analyst: "mon", Standing: "sq-1"},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Err != nil {
		t.Fatalf("recovery: %v", rec.Err)
	}
	st := l2.State().Standing[StandingKeyString("d", "sq-1")]
	if st == nil {
		t.Fatal("standing state not recovered")
	}
	if st.Kind != "count" || st.Epsilon != 0.1 || st.Reservation != 1 ||
		st.Width != 20 || st.Base != 64 || string(st.Request) != `{"query":"count"}` {
		t.Fatalf("registration fields lost: %+v", st)
	}
	if st.NextWindow != 2 || st.LastMark != 104 {
		t.Fatalf("cursor (%d, %d), want (2, 104)", st.NextWindow, st.LastMark)
	}
	if st.Spent != 0.2 || st.Status != StandingCanceled {
		t.Fatalf("spend/status (%v, %s), want (0.2, canceled)", st.Spent, st.Status)
	}
	if len(st.Windows) != 2 || string(st.Windows[1].Body) != `{"window":1}` {
		t.Fatalf("ring not recovered: %+v", st.Windows)
	}
	// The atomic half: window charges folded into the dataset's spends
	// exactly like live silent charges.
	ds := l2.State().Datasets["d"]
	if ds.Spent["mon"] != 0.2 || ds.TotalSpent != 0.2 {
		t.Fatalf("dataset spends (%v, %v), want (0.2, 0.2)", ds.Spent["mon"], ds.TotalSpent)
	}
}

func TestStandingExhaustedWindowStopsQuery(t *testing.T) {
	st := NewState()
	seq := uint64(0)
	apply := func(ev Event) error {
		seq++
		ev.Seq = seq
		return st.Apply(&ev)
	}
	for _, ev := range standingHistory() {
		if err := apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	// A refused window: zero charge, cursor still advances, status
	// flips — replay lands on the same refusal boundary as the live run.
	refusal := standingWindow(0, 0, StandingExhausted)
	if err := apply(refusal); err != nil {
		t.Fatal(err)
	}
	got := st.Standing[StandingKeyString("d", "sq-1")]
	if got.Status != StandingExhausted || got.Spent != 0 || got.NextWindow != 1 {
		t.Fatalf("exhausted fold: %+v", got)
	}
	if ds := st.Datasets["d"]; ds.TotalSpent != 0 {
		t.Fatalf("refused window charged the dataset: %v", ds.TotalSpent)
	}
}

func TestStandingRingCapBoundsState(t *testing.T) {
	st := NewState()
	seq := uint64(0)
	apply := func(ev Event) {
		seq++
		ev.Seq = seq
		if err := st.Apply(&ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range standingHistory() {
		apply(ev)
	}
	n := standing.RingCap + 6
	for i := 0; i < n; i++ {
		apply(standingWindow(uint64(i), 0.001, "ok"))
	}
	got := st.Standing[StandingKeyString("d", "sq-1")]
	if len(got.Windows) != standing.RingCap {
		t.Fatalf("ring holds %d records, want the %d cap", len(got.Windows), standing.RingCap)
	}
	if got.Windows[0].Window != uint64(n-standing.RingCap) || got.Windows[standing.RingCap-1].Window != uint64(n-1) {
		t.Fatalf("ring spans [%d,%d], want the most recent %d windows",
			got.Windows[0].Window, got.Windows[standing.RingCap-1].Window, standing.RingCap)
	}
	if got.NextWindow != uint64(n) {
		t.Fatalf("cursor %d, want %d — eviction must not move the cursor", got.NextWindow, n)
	}
}

func TestStandingCorruptReferences(t *testing.T) {
	base := standingHistory()
	cases := []struct {
		name string
		ev   Event
	}{
		{"window for unknown query", standingWindowFor("ghost")},
		{"window for unknown dataset", Event{Type: EventStandingWindow, Dataset: "nope",
			Analyst: "mon", Standing: "sq-1", Charged: 0.1, Outcome: "ok"}},
		{"cancel of unknown query", Event{Type: EventStandingCanceled, Dataset: "d",
			Analyst: "mon", Standing: "ghost"}},
		{"duplicate registration", base[1]},
		{"registration without id", Event{Type: EventStandingRegistered, Dataset: "d",
			Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 1, Width: 20}},
		{"registration on unknown dataset", Event{Type: EventStandingRegistered, Dataset: "nope",
			Analyst: "mon", Standing: "sq-2", Query: "count", Epsilon: 0.1, Reservation: 1, Width: 20}},
	}
	for _, tc := range cases {
		st := NewState()
		seq := uint64(0)
		for _, ev := range base {
			seq++
			ev.Seq = seq
			if err := st.Apply(&ev); err != nil {
				t.Fatal(err)
			}
		}
		bad := tc.ev
		bad.Seq = seq + 1
		if err := st.Apply(&bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func standingWindowFor(id string) Event {
	ev := standingWindow(0, 0.1, "ok")
	ev.Standing = id
	return ev
}

// TestStandingSurvivesSnapshotCompaction: the Standing map must ride
// the snapshot, not just the WAL tail — compaction happens mid-stream.
func TestStandingSurvivesSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, standingHistory())
	for i := 0; i < 30; i++ {
		if err := l.Append(standingWindow(uint64(i), 0.01, "ok")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Err != nil {
		t.Fatalf("recovery: %v", rec.Err)
	}
	st := l2.State().Standing[StandingKeyString("d", "sq-1")]
	if st == nil || st.NextWindow != 30 || len(st.Windows) != 30 {
		t.Fatalf("snapshot round trip lost standing state: %+v", st)
	}
	want := 0.0
	for i := 0; i < 30; i++ {
		want += 0.01
	}
	if st.Spent != want || l2.State().Datasets["d"].TotalSpent != want {
		t.Fatalf("spend %v (dataset %v), want the in-order sum %v",
			st.Spent, l2.State().Datasets["d"].TotalSpent, want)
	}
}
