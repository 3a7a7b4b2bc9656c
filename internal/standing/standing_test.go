package standing

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// harness wires a registry to a recording Fire callback with a
// controllable clock.
type harness struct {
	reg   *Registry
	now   time.Time
	fired []Window
	// fail makes the next fires return ok=false (the journal-refused
	// path) without recording.
	fail bool
	// exhaustAt refuses windows once this many have fired (simulating
	// the executor's reservation check).
	exhaustAt int
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{now: time.Unix(1000, 0)}
	cfg.Now = func() time.Time { return h.now }
	if cfg.Fire == nil {
		cfg.Fire = func(q *Query, w Window) (Result, bool) {
			if h.fail {
				return Result{}, false
			}
			if h.exhaustAt > 0 && len(h.fired) >= h.exhaustAt {
				return Result{Outcome: OutcomeExhausted, Exhausts: true,
					Body: []byte(`{"refused":true}`)}, true
			}
			h.fired = append(h.fired, w)
			return Result{Outcome: OutcomeOK, Charged: q.Spec.Epsilon,
				Body: []byte(fmt.Sprintf(`{"window":%d}`, w.Index))}, true
		}
	}
	h.reg = NewRegistry(cfg)
	return h
}

func spec(id string, width, stride uint64) Spec {
	return Spec{Dataset: "ds", Analyst: "alice", ID: id, Kind: "count",
		Epsilon: 0.1, Reservation: 100, Width: width, Stride: stride}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},              // everything missing
		spec("q", 0, 0), // no window at all
		spec("q", 0, 5), // stride without width
		{Dataset: "ds", Analyst: "a", Kind: "count", Epsilon: 0.1, Reservation: 1, Width: 10, EveryMs: 100}, // both modes
		{Dataset: "ds", Analyst: "a", Kind: "count", Epsilon: 0, Reservation: 1, Width: 10},                 // ε == 0
		{Dataset: "ds", Analyst: "a", Kind: "count", Epsilon: -1, Reservation: 1, Width: 10},                // ε < 0
		{Dataset: "ds", Analyst: "a", Kind: "count", Epsilon: 0.5, Reservation: 0.4, Width: 10},             // reservation < ε
		{Dataset: "ds", Analyst: "a", Kind: "count", Epsilon: 0.1, Reservation: 1e13, Width: 10},            // absurd reservation
	}
	for i, s := range bad {
		if err := Validate(&s); err == nil {
			t.Errorf("case %d: Validate(%+v) accepted an invalid spec", i, s)
		}
	}
	good := spec("q", 10, 5)
	if err := Validate(&good); err != nil {
		t.Errorf("valid spec refused: %v", err)
	}
	clock := Spec{Dataset: "ds", Analyst: "a", Kind: "count",
		Epsilon: 0.1, Reservation: 1, EveryMs: 100}
	if err := Validate(&clock); err != nil {
		t.Errorf("valid wall-clock spec refused: %v", err)
	}
}

func TestValidID(t *testing.T) {
	for _, id := range []string{"a", "sq-1", "A.b_c-9", "x"} {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false", id)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"", "a b", "q/1", "ü", string(long)} {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
	}
}

// TestTumblingWindows pins the core schedule: width-10 tumbling windows
// fire exactly when the watermark crosses each close boundary, in index
// order, with cumulative charging.
func TestTumblingWindows(t *testing.T) {
	h := newHarness(t, Config{})
	q, err := h.reg.Register(spec("", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.ID != "sq-1" {
		t.Fatalf("minted ID %q, want sq-1", q.Spec.ID)
	}

	h.reg.Advance("ds", 9) // one short of the first close
	if len(h.fired) != 0 {
		t.Fatalf("fired %v before the watermark reached 10", h.fired)
	}
	h.reg.Advance("ds", 10)
	if len(h.fired) != 1 || h.fired[0] != (Window{Index: 0, Start: 0, End: 10}) {
		t.Fatalf("fired %v, want [0,10) only", h.fired)
	}
	// A big batch closes several windows at once, in index order.
	h.reg.Advance("ds", 35)
	want := []Window{
		{Index: 0, Start: 0, End: 10},
		{Index: 1, Start: 10, End: 20},
		{Index: 2, Start: 20, End: 30},
	}
	if len(h.fired) != 3 {
		t.Fatalf("fired %v, want 3 windows", h.fired)
	}
	for i, w := range want {
		if h.fired[i] != w {
			t.Fatalf("window %d = %v, want %v", i, h.fired[i], w)
		}
	}
	// Re-advancing to the same mark is idempotent.
	h.reg.Advance("ds", 35)
	if len(h.fired) != 3 {
		t.Fatalf("re-advance refired: %v", h.fired)
	}
	snap := q.Snapshot()
	if snap.NextWindow != 3 || snap.LastMark != 30 {
		t.Fatalf("cursor (%d, %d), want (3, 30)", snap.NextWindow, snap.LastMark)
	}
	if got := q.Spent(); got < 0.3-1e-12 || got > 0.3+1e-12 {
		t.Fatalf("spent %v, want 0.3", got)
	}
}

// TestSlidingWindows: width 10, stride 5 — overlapping windows each
// fire (and each charge) as the watermark crosses their own close.
func TestSlidingWindows(t *testing.T) {
	h := newHarness(t, Config{})
	if _, err := h.reg.Register(spec("slide", 10, 5), nil); err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 21)
	want := []Window{
		{Index: 0, Start: 0, End: 10},
		{Index: 1, Start: 5, End: 15},
		{Index: 2, Start: 10, End: 20},
	}
	if len(h.fired) != len(want) {
		t.Fatalf("fired %v, want %v", h.fired, want)
	}
	for i, w := range want {
		if h.fired[i] != w {
			t.Fatalf("window %d = %v, want %v", i, h.fired[i], w)
		}
	}
}

// TestBaseOffset: records present before registration are never
// windowed — window 0 starts at Base.
func TestBaseOffset(t *testing.T) {
	h := newHarness(t, Config{})
	s := spec("based", 10, 0)
	s.Base = 100
	if _, err := h.reg.Register(s, nil); err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 105)
	if len(h.fired) != 0 {
		t.Fatalf("fired %v before Base+Width", h.fired)
	}
	h.reg.Advance("ds", 110)
	if len(h.fired) != 1 || h.fired[0] != (Window{Index: 0, Start: 100, End: 110}) {
		t.Fatalf("fired %v, want [100,110)", h.fired)
	}
}

// TestWallClockWindows: EveryMs windows are evaluated at batch apply
// and cover the records since the previous close.
func TestWallClockWindows(t *testing.T) {
	h := newHarness(t, Config{})
	s := Spec{Dataset: "ds", Analyst: "alice", ID: "clock", Kind: "count",
		Epsilon: 0.1, Reservation: 100, EveryMs: 100}
	if _, err := h.reg.Register(s, nil); err != nil {
		t.Fatal(err)
	}
	h.now = h.now.Add(50 * time.Millisecond)
	h.reg.Advance("ds", 40)
	if len(h.fired) != 0 {
		t.Fatalf("fired %v before the period elapsed", h.fired)
	}
	h.now = h.now.Add(60 * time.Millisecond) // 110ms since registration
	h.reg.Advance("ds", 70)
	if len(h.fired) != 1 || h.fired[0] != (Window{Index: 0, Start: 0, End: 70}) {
		t.Fatalf("fired %v, want [0,70)", h.fired)
	}
	// The next window starts where the last one closed.
	h.now = h.now.Add(150 * time.Millisecond)
	h.reg.Advance("ds", 90)
	if len(h.fired) != 2 || h.fired[1] != (Window{Index: 1, Start: 70, End: 90}) {
		t.Fatalf("fired %v, want second window [70,90)", h.fired)
	}
}

// TestRegistrationOrderFiring: windows across queries fire in
// registration order — the deterministic noise-draw order.
func TestRegistrationOrderFiring(t *testing.T) {
	var order []string
	h := newHarness(t, Config{Fire: nil})
	h.reg = NewRegistry(Config{
		Now: func() time.Time { return h.now },
		Fire: func(q *Query, w Window) (Result, bool) {
			order = append(order, fmt.Sprintf("%s/%d", q.Spec.ID, w.Index))
			return Result{Outcome: OutcomeOK, Charged: q.Spec.Epsilon}, true
		},
	})
	if _, err := h.reg.Register(spec("first", 10, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(spec("second", 5, 0), nil); err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 20)
	want := []string{"first/0", "first/1", "second/0", "second/1", "second/2", "second/3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

// TestFireAbortKeepsWindowDue: ok=false (journal refused) must not
// move any cursor — the same window fires again on the next advance,
// and nothing registered later fires before it.
func TestFireAbortKeepsWindowDue(t *testing.T) {
	h := newHarness(t, Config{})
	q1, err := h.reg.Register(spec("q1", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(spec("q2", 10, 0), nil); err != nil {
		t.Fatal(err)
	}
	h.fail = true
	h.reg.Advance("ds", 10)
	if len(h.fired) != 0 || q1.Snapshot().NextWindow != 0 {
		t.Fatalf("aborted fire moved state: fired=%v next=%d", h.fired, q1.Snapshot().NextWindow)
	}
	h.fail = false
	h.reg.Advance("ds", 10)
	if len(h.fired) != 2 {
		t.Fatalf("retry after abort fired %v, want both queries' window 0", h.fired)
	}
	if h.fired[0] != (Window{Index: 0, Start: 0, End: 10}) {
		t.Fatalf("retried window %v, want [0,10)", h.fired[0])
	}
}

// TestExhaustionStopsFiring: a window committed with Exhausts flips the
// query to StatusExhausted and no further windows fire.
func TestExhaustionStopsFiring(t *testing.T) {
	h := newHarness(t, Config{})
	h.exhaustAt = 2
	q, err := h.reg.Register(spec("drip", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 50)
	if len(h.fired) != 2 {
		t.Fatalf("fired %v, want 2 before exhaustion", h.fired)
	}
	if q.Status() != StatusExhausted {
		t.Fatalf("status %q, want exhausted", q.Status())
	}
	if got := q.Spent(); got != 0.2 {
		t.Fatalf("spent %v, want 0.2 (refused window charges nothing)", got)
	}
	h.reg.Advance("ds", 100)
	if len(h.fired) != 2 {
		t.Fatalf("exhausted query kept firing: %v", h.fired)
	}
	// The refusal itself landed in the ring, visible to pollers.
	results, status, _, _ := q.ResultsAfter(0)
	if status != StatusExhausted || len(results) != 3 {
		t.Fatalf("ring has %d results (status %s), want 2 ok + 1 exhausted", len(results), status)
	}
	last := results[len(results)-1]
	if last.Outcome != OutcomeExhausted || last.Charged != 0 {
		t.Fatalf("final result %+v, want exhausted at zero charge", last)
	}
}

// TestRingEviction: the ring keeps the most recent RingCap results and
// ResultsAfter pages by window index.
func TestRingEviction(t *testing.T) {
	h := newHarness(t, Config{})
	q, err := h.reg.Register(spec("ring", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	const windows = RingCap + 3
	h.reg.Advance("ds", 10*windows)
	results, _, next, _ := q.ResultsAfter(0)
	if next != windows || len(results) != RingCap {
		t.Fatalf("ring holds %d results (next %d), want %d (next %d)", len(results), next, RingCap, windows)
	}
	if first, last := results[0].Window.Index, results[RingCap-1].Window.Index; first != 3 || last != windows-1 {
		t.Fatalf("ring spans [%d,%d], want [3,%d]", first, last, windows-1)
	}
	tail, _, _, _ := q.ResultsAfter(windows - 1)
	if len(tail) != 1 || tail[0].Window.Index != windows-1 {
		t.Fatalf("ResultsAfter(%d) = %v, want window %d only", windows-1, tail, windows-1)
	}
}

// TestLongPollWake: the updated channel closes on commit and on cancel.
func TestLongPollWake(t *testing.T) {
	h := newHarness(t, Config{})
	q, err := h.reg.Register(spec("poll", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, ch := q.ResultsAfter(0)
	select {
	case <-ch:
		t.Fatal("updated channel closed with no state change")
	default:
	}
	h.reg.Advance("ds", 10)
	select {
	case <-ch:
	default:
		t.Fatal("window commit did not wake pollers")
	}
	_, _, _, ch = q.ResultsAfter(1)
	if _, did, err := h.reg.Cancel("ds", "poll", nil); err != nil || !did {
		t.Fatalf("cancel: did=%v err=%v", did, err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("cancel did not wake pollers")
	}
}

func TestCancelSemantics(t *testing.T) {
	h := newHarness(t, Config{})
	q, err := h.reg.Register(spec("c", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 10)

	// A failing journal leaves the query running.
	boom := errors.New("wal refused")
	if _, _, err := h.reg.Cancel("ds", "c", func(Spec) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("journal error not surfaced: %v", err)
	}
	if q.Status() != StatusActive {
		t.Fatal("failed cancel still stopped the query")
	}

	journaled := 0
	if _, did, err := h.reg.Cancel("ds", "c", func(Spec) error { journaled++; return nil }); err != nil || !did {
		t.Fatalf("cancel: did=%v err=%v", did, err)
	}
	// Repeat cancel: journal-free no-op.
	if _, did, err := h.reg.Cancel("ds", "c", func(Spec) error { journaled++; return nil }); err != nil || did {
		t.Fatalf("repeat cancel: did=%v err=%v", did, err)
	}
	if journaled != 1 {
		t.Fatalf("cancel journaled %d times, want 1", journaled)
	}
	if q.Status() != StatusCanceled {
		t.Fatalf("status %q, want canceled", q.Status())
	}
	h.reg.Advance("ds", 50)
	if len(h.fired) != 1 {
		t.Fatalf("canceled query fired: %v", h.fired)
	}
	if _, _, err := h.reg.Cancel("ds", "ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id: %v, want ErrNotFound", err)
	}
}

func TestRegisterLimitsAndDuplicates(t *testing.T) {
	h := newHarness(t, Config{})
	if _, err := h.reg.Register(spec("a", 10, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(spec("a", 10, 0), nil); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id: %v, want ErrDuplicateID", err)
	}
	for i := 1; i < maxPerDataset; i++ {
		if _, err := h.reg.Register(spec(fmt.Sprintf("b%d", i), 10, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.reg.Register(spec("c", 10, 0), nil); !errors.Is(err, ErrTooMany) {
		t.Fatalf("over cap: %v, want ErrTooMany", err)
	}
	// A journal refusal registers nothing (the slot stays free).
	h2 := newHarness(t, Config{})
	boom := errors.New("wal refused")
	if _, err := h2.reg.Register(spec("j", 10, 0), func(Spec) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("journal error not surfaced: %v", err)
	}
	if _, ok := h2.reg.Get("ds", "j"); ok {
		t.Fatal("refused registration still committed")
	}
}

// TestRestore: recovered state resumes exactly where it left off — the
// cursor continues, spend carries, restored results stay readable.
func TestRestore(t *testing.T) {
	h := newHarness(t, Config{})
	s := spec("back", 10, 0)
	restored := []Result{
		{Window: Window{Index: 4, Start: 40, End: 50}, Outcome: OutcomeOK, Charged: 0.1, Body: []byte(`{"w":4}`)},
		{Window: Window{Index: 5, Start: 50, End: 60}, Outcome: OutcomeOK, Charged: 0.1, Body: []byte(`{"w":5}`)},
	}
	q, err := h.reg.Restore(s, Restored{
		NextWindow: 6, LastMark: 60, Spent: 0.6, Status: StatusActive, Results: restored,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Spent(); got != 0.6 {
		t.Fatalf("restored spend %v, want 0.6", got)
	}
	results, _, next, _ := q.ResultsAfter(0)
	if next != 6 || len(results) != 2 || string(results[0].Body) != `{"w":4}` {
		t.Fatalf("restored ring: next=%d results=%v", next, results)
	}
	// The schedule resumes at window 6, not window 0.
	h.reg.Advance("ds", 75)
	if len(h.fired) != 1 || h.fired[0] != (Window{Index: 6, Start: 60, End: 70}) {
		t.Fatalf("resumed firing %v, want [60,70) only", h.fired)
	}
	// A restored terminal status never fires.
	done := spec("done", 10, 0)
	if _, err := h.reg.Restore(done, Restored{NextWindow: 2, LastMark: 20, Spent: 0.2, Status: StatusCanceled}); err != nil {
		t.Fatal(err)
	}
	h.fired = nil
	h.reg.Advance("ds", 75)
	if len(h.fired) != 0 {
		t.Fatalf("canceled restore fired: %v", h.fired)
	}
}

func TestStats(t *testing.T) {
	h := newHarness(t, Config{})
	if _, err := h.reg.Register(spec("s1", 10, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.reg.Register(spec("s2", 20, 0), nil); err != nil {
		t.Fatal(err)
	}
	h.reg.Advance("ds", 40)
	st := h.reg.Stats()
	if st.Queries != 2 || st.Active != 2 {
		t.Fatalf("stats queries=%d active=%d, want 2/2", st.Queries, st.Active)
	}
	if st.Windows != 6 { // 4 width-10 + 2 width-20
		t.Fatalf("stats windows=%d, want 6", st.Windows)
	}
	if diff := st.Epsilon - 0.6; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("stats epsilon=%v, want 0.6", st.Epsilon)
	}
	if _, did, err := h.reg.Cancel("ds", "s1", nil); err != nil || !did {
		t.Fatal("cancel failed")
	}
	if got := h.reg.Active(); got != 1 {
		t.Fatalf("Active()=%d after cancel, want 1", got)
	}
}

// TestStageHoldsResultsUntilPublish pins the two-step release: Stage
// fires windows and moves the schedule (the next window is computed
// from the staged cursor and spend), but the ring, the poll cursor and
// the long-poll wake signal move only at Publish — in firing order,
// only up to the mark the caller read before its commit, each result
// exactly once.
func TestStageHoldsResultsUntilPublish(t *testing.T) {
	h := newHarness(t, Config{})
	q, err := h.reg.Register(spec("q", 10, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, updated := q.ResultsAfter(0)

	h.reg.Stage("ds", 25) // windows 0 and 1
	if len(h.fired) != 2 {
		t.Fatalf("fired %v, want 2 windows", h.fired)
	}
	snap := q.Snapshot()
	if snap.NextWindow != 2 || snap.Spent != 0.2 {
		t.Fatalf("staged schedule: next %d spent %v, want 2 and 0.2", snap.NextWindow, snap.Spent)
	}
	results, _, cursor, _ := q.ResultsAfter(0)
	if len(results) != 0 || cursor != 0 || snap.Windows != 0 {
		t.Fatalf("unpublished windows are visible: %d results, cursor %d", len(results), cursor)
	}
	select {
	case <-updated:
		t.Fatal("long-pollers woke before the results were published")
	default:
	}

	mark := h.reg.Staged() // read before "the commit"
	h.reg.Stage("ds", 30)  // window 2 arrives while it runs
	var got []uint64
	h.reg.Publish(mark, func(res Result) { got = append(got, res.Window.Index) })
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("published windows %v, want [0 1] (window 2 was staged after the mark)", got)
	}
	select {
	case <-updated:
	default:
		t.Fatal("publication did not wake long-pollers")
	}
	results, _, cursor, _ = q.ResultsAfter(0)
	if len(results) != 2 || cursor != 2 {
		t.Fatalf("after publish: %d results, cursor %d, want 2 and 2", len(results), cursor)
	}

	// Publishing the same mark again releases nothing twice; the next
	// mark releases the rest.
	h.reg.Publish(mark, func(res Result) { t.Errorf("window %d published twice", res.Window.Index) })
	h.reg.Publish(h.reg.Staged(), func(res Result) { got = append(got, res.Window.Index) })
	results, _, cursor, _ = q.ResultsAfter(0)
	if len(got) != 3 || got[2] != 2 || len(results) != 3 || cursor != 3 {
		t.Fatalf("second publish: callbacks %v, %d results, cursor %d", got, len(results), cursor)
	}
}
