package obs

import (
	"sync"
	"time"
)

// Span is one timed region of work: a root covering a whole pipeline,
// with one child per operator and aggregation. Spans carry only
// operational metadata (names, durations, strategies, ε) — never
// record contents, and never record counts, which are pre-noise values
// (DESIGN.md §S31).
//
// The server builds no spans: a query's records are its execution
// Profile and its wide event. TraceRecorder is kept as a Recorder with
// a realistic per-callback cost for the benchmark's recorder-overhead
// measurement.
type Span struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"durationNs"` // JSON in nanoseconds
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

// NewSpan starts a root span now.
func NewSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// End closes the span. Duration is clamped to ≥1ns so a recorded span
// is always distinguishable from one that never ended, even when the
// clock's tick is coarser than the work.
func (s *Span) End() {
	d := time.Since(s.Start)
	if d <= 0 {
		d = 1
	}
	s.Duration = d
}

// TraceRecorder materializes Recorder callbacks as a span tree under
// one root: each OpDone/AggDone becomes a completed child span whose
// start is back-dated by the reported duration. It is safe for
// concurrent use, though a single query pipeline reports sequentially.
type TraceRecorder struct {
	mu   sync.Mutex
	root *Span
	done bool
}

// NewTraceRecorder opens a root span with the given name.
func NewTraceRecorder(name string) *TraceRecorder {
	return &TraceRecorder{root: NewSpan(name)}
}

// OpDone implements Recorder. Record counts stay off the span: an
// operator's record count is the exact answer its noise exists to hide.
func (t *TraceRecorder) OpDone(op string, d time.Duration, _, _ int, workers int) {
	labels := map[string]string{"strategy": StrategyName(workers)}
	if workers >= 2 {
		labels["workers"] = itoa(workers)
	}
	t.addChild(op, d, labels)
}

// AggDone implements Recorder.
func (t *TraceRecorder) AggDone(agg, outcome string, epsilon float64, d time.Duration) {
	t.addChild("aggregate:"+agg, d, map[string]string{
		"outcome": outcome,
		"epsilon": formatValue(epsilon),
	})
}

func (t *TraceRecorder) addChild(name string, d time.Duration, labels map[string]string) {
	if d <= 0 {
		d = 1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.root.Children = append(t.root.Children, &Span{
		Name:     name,
		Start:    now.Add(-d),
		Duration: d,
		Labels:   labels,
	})
}

// Finish closes the root span and returns the completed tree. Further
// recorder callbacks are dropped.
func (t *TraceRecorder) Finish() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.root.End()
		t.done = true
	}
	return t.root
}
