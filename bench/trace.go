package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share
// Request; Parent is the ID of the span that caused this one (0 = the
// request's root). Times are microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
	Name    string  `json:"name"` // layer.operation, layer = module name
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
	// Count is the work done inside the span at this boundary (records
	// scanned, bytes encoded, events appended), when there is one.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps every span in memory until the run ends (writing during
// the run would perturb it); safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID; close it with end.
func (t *tracer) open(request, name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		Start: float64(now) / float64(time.Microsecond)})
	return id
}

func (t *tracer) end(id int, count int64) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = float64(now) / float64(time.Microsecond)
	t.spans[id-1].Count = count
}

// in runs f inside a span.
func (t *tracer) in(request, name string, parent int, f func() int64) {
	id := t.open(request, name, parent)
	t.end(id, f())
}

// selfTimes folds the spans into per-layer-operation self time: a
// span's duration minus the part of it its children cover. Returned
// per span name as the samples of one value per request.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]float64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string][]float64{}
	for _, sp := range t.spans {
		self := sp.End - sp.Start - covered[sp.ID]
		if self < 0 {
			self = 0
		}
		out[sp.Name] = append(out[sp.Name], self)
	}
	return out
}

// traceFile is the layout of bench/out/trace.json.
type traceFile struct {
	Env      envStamp               `json:"env"`
	Workload string                 `json:"workload"`
	PerLayer map[string]measurement `json:"per_layer"`
	Spans    []span                 `json:"spans"`
}

func (t *tracer) write(env envStamp, workload string, perLayer map[string]measurement) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := traceFile{Env: env, Workload: workload, PerLayer: perLayer, Spans: t.spans}
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace.json")
	return path, os.WriteFile(path, b, 0o644)
}
