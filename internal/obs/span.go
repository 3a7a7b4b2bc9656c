package obs

import (
	"sync"
	"time"
)

// Span is one timed region of work. A query's execution produces a
// tree of spans: the root covers the whole request, children cover
// each pipeline operator and the final aggregation. Spans carry only
// operational metadata (names, durations, strategies, ε) — never
// record contents, and never record counts, which are pre-noise values
// (DESIGN.md §S31).
type Span struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"durationNs"` // JSON in nanoseconds
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*Span           `json:"children,omitempty"`

	parent *Span
}

// NewSpan starts a root span now.
func NewSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// StartChild starts a child span now. Spans themselves are not
// concurrency-safe; a pipeline builds its tree sequentially and
// TraceRecorder adds locking where needed.
func (s *Span) StartChild(name string) *Span {
	c := &Span{Name: name, Start: time.Now(), parent: s}
	s.Children = append(s.Children, c)
	return c
}

// Parent returns the span this one was started under (nil for roots).
func (s *Span) Parent() *Span { return s.parent }

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

// SetLabel attaches a key/value to the span.
func (s *Span) SetLabel(k, v string) {
	if s.Labels == nil {
		s.Labels = make(map[string]string)
	}
	s.Labels[k] = v
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

// SetLabel labels the root span.
func (t *TraceRecorder) SetLabel(k, v string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.SetLabel(k, v)
}

// OpDone implements Recorder. The span drops in and out: a trace is
// returned to the analyst, and an operator's record count is the exact
// answer its noise exists to hide.
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
	c := &Span{
		Name:     name,
		Start:    now.Add(-d),
		Duration: d,
		Labels:   labels,
		parent:   t.root,
	}
	t.root.Children = append(t.root.Children, c)
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

// TraceBuffer is a fixed-capacity ring of recent traces: the data
// owner's flight recorder behind GET /debug/traces.
type TraceBuffer struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	count int
}

// DefaultTraceCap bounds the ring when NewTraceBuffer is given a
// non-positive capacity.
const DefaultTraceCap = 64

// NewTraceBuffer creates a ring holding the most recent max traces.
func NewTraceBuffer(max int) *TraceBuffer {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &TraceBuffer{ring: make([]*Span, max)}
}

// Add records one completed trace, evicting the oldest when full.
func (b *TraceBuffer) Add(s *Span) {
	if s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ring[b.next] = s
	b.next = (b.next + 1) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	}
}

// Len reports how many traces are held.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Snapshot returns the held traces, newest first.
func (b *TraceBuffer) Snapshot() []*Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Span, 0, b.count)
	for i := 1; i <= b.count; i++ {
		out = append(out, b.ring[(b.next-i+len(b.ring))%len(b.ring)])
	}
	return out
}
