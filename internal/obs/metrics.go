// Package obs is the system's self-instrumentation layer: a
// dependency-free metrics registry (counters, live gauges, fixed-bucket
// histograms) with Prometheus-text exposition, a lightweight
// span abstraction for per-query traces, and the Recorder interface
// the DP engine reports through.
//
// The paper's deployment model (§7) has a data owner mediating analyst
// queries against a shared privacy budget; operating that service
// requires watching who is spending ε, which operators dominate query
// latency, and whether the process is healthy. Everything here is
// stdlib-only and safe for concurrent use; the engine's default
// recorder is nil/no-op, so library users who never ask for telemetry
// pay nothing on the hot paths.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a lock-free float64 cell (CAS on the bit pattern).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by v; negative deltas are ignored so the
// counter stays monotone.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.Add(v)
}

// Value reports the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Histogram counts observations into fixed buckets (cumulative "le"
// semantics on export, like Prometheus). Bounds are upper edges in
// ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomicFloat
	total  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DurationBuckets are the default latency bounds in seconds, spanning
// 100µs..10s: wide enough for both sub-millisecond counts and
// full-matrix extractions.
func DurationBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
		2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// EpsilonBuckets are the default bucket bounds for per-query ε
// histograms, spanning the 0.01..10 range the paper's analyses use.
func EpsilonBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// metricKey identifies one metric instance: a base name plus a
// canonical (sorted) label rendering.
type metricKey struct {
	name   string
	labels string // `k="v",k2="v2"` sorted by key, "" if none
}

func makeKey(name string, labels []string) metricKey {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	if len(labels) == 0 {
		return metricKey{name: name}
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+escapeLabel(labels[i+1])+`"`)
	}
	sort.Strings(pairs)
	return metricKey{name: name, labels: strings.Join(pairs, ",")}
}

// maxHitPairs is the most label pairs a lookup may carry and still
// find its series by the raw tuple; every call site in the repository
// passes at most two.
const maxHitPairs = 2

// rawKey is a lookup's (name, label…) tuple exactly as the caller
// spelled it. It is comparable, so finding an existing series hashes
// the caller's strings and builds none; the sorted, escaped metricKey
// is rendered only when a tuple is first seen. Two spellings of one
// series (the same pairs in another order) are two rawKeys aliasing
// one instance.
type rawKey struct {
	name   string
	n      int // label strings used, so ("k","") and ("k","","","") differ
	labels [2 * maxHitPairs]string
}

// makeRawKey returns the tuple's rawKey. A tuple of more than
// maxHitPairs pairs does not fit: its key holds the canonical
// rendering instead (n is -1, which no raw tuple has), so such a
// lookup runs makeKey every time.
func makeRawKey(name string, labels []string) rawKey {
	k := rawKey{name: name, n: len(labels)}
	if len(labels) > len(k.labels) {
		k.n, k.labels[0] = -1, makeKey(name, labels).labels
		return k
	}
	copy(k.labels[:], labels)
	return k
}

// series is one kind of metric's instances: the canonical map the
// exposition walks, and the raw-tuple aliases lookups hit. Both maps
// are made on the first insert.
type series[V any] struct {
	byKey map[metricKey]V
	byRaw map[rawKey]V
}

// lookup returns the instance for name+labels in s, calling create
// (under r's write lock) when the series does not exist yet. A hit
// costs a read lock and one hash of the raw tuple; only a tuple's
// first lookup renders its canonical key (beyond maxHitPairs pairs,
// makeRawKey renders it every time), and makeKey's panic on an odd
// label count guards every insert, so no odd tuple is ever a hit.
func lookup[V any](r *Registry, s *series[V], name string, labels []string, create func() V) V {
	rk := makeRawKey(name, labels)
	r.mu.RLock()
	v, ok := s.byRaw[rk]
	r.mu.RUnlock()
	if ok {
		return v
	}
	k := makeKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = s.byKey[k]; !ok {
		v = create()
		if s.byKey == nil {
			s.byKey, s.byRaw = make(map[metricKey]V), make(map[rawKey]V)
		}
		s.byKey[k] = v
	}
	s.byRaw[rk] = v
	return v
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format (version 0.0.4): backslash, double-quote, and line feed are
// the only characters escaped, each exactly once.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func (k metricKey) String() string {
	if k.labels == "" {
		return k.name
	}
	return k.name + "{" + k.labels + "}"
}

// Registry holds a process- or server-scoped set of metrics. Lookups
// create on first use, so call sites just name what they record:
//
//	reg.Counter("dpserver_requests_total", "endpoint", "/query").Inc()
//
// Labels are alternating key/value strings; the same name+labels, in
// any order, always returns the same instance. Looking up an existing
// series with up to two label pairs allocates nothing.
type Registry struct {
	mu         sync.RWMutex
	counters   series[*Counter]
	gaugeFuncs map[metricKey]func() float64
	hists      series[*Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gaugeFuncs: make(map[metricKey]func() float64)}
}

// Counter returns the counter for name+labels, creating it if needed.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return lookup(r, &r.counters, name, labels, func() *Counter { return &Counter{} })
}

// GaugeFunc registers a live gauge whose value is read at scrape
// time — the natural shape for budget totals that already live behind
// a policy's mutex. Re-registering the same name+labels replaces f.
func (r *Registry) GaugeFunc(name string, f func() float64, labels ...string) {
	k := makeKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[k] = f
}

// Histogram returns the histogram for name+labels, creating it with
// the given bucket bounds if needed (bounds are ignored on later
// lookups of an existing histogram).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return lookup(r, &r.hists, name, labels, func() *Histogram {
		if !sort.Float64sAreSorted(bounds) {
			panic("obs: histogram bounds must be ascending")
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	})
}

func sortedKeys[V any](m map[metricKey]V) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	return keys
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per metric
// family, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counterKeys := sortedKeys(r.counters.byKey)
	funcKeys := sortedKeys(r.gaugeFuncs)
	histKeys := sortedKeys(r.hists.byKey)
	counters := make([]float64, len(counterKeys))
	for i, k := range counterKeys {
		counters[i] = r.counters.byKey[k].Value()
	}
	funcs := make([]func() float64, len(funcKeys))
	for i, k := range funcKeys {
		funcs[i] = r.gaugeFuncs[k]
	}
	type histCopy struct {
		bounds  []float64
		buckets []uint64 // cumulative
		count   uint64
		sum     float64
	}
	hists := make([]histCopy, len(histKeys))
	for i, k := range histKeys {
		h := r.hists.byKey[k]
		hc := histCopy{bounds: h.bounds, count: h.Count(), sum: h.Sum()}
		cum := uint64(0)
		for j := range h.counts {
			cum += h.counts[j].Load()
			hc.buckets = append(hc.buckets, cum)
		}
		hists[i] = hc
	}
	r.mu.RUnlock()

	var b strings.Builder
	writeFamily := func(keys []metricKey, typ string, value func(int) float64) {
		lastName := ""
		for i, k := range keys {
			if k.name != lastName {
				fmt.Fprintf(&b, "# TYPE %s %s\n", k.name, typ)
				lastName = k.name
			}
			fmt.Fprintf(&b, "%s %s\n", k.String(), formatValue(value(i)))
		}
	}
	writeFamily(counterKeys, "counter", func(i int) float64 { return counters[i] })
	// Live gauges are read outside the registry lock: their closures
	// may take other locks (budget policies) and must not deadlock
	// against concurrent registrations.
	writeFamily(funcKeys, "gauge", func(i int) float64 { return funcs[i]() })
	lastName := ""
	for i, k := range histKeys {
		if k.name != lastName {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", k.name)
			lastName = k.name
		}
		hc := hists[i]
		for j, bound := range hc.bounds {
			fmt.Fprintf(&b, "%s %d\n", bucketKey(k, formatValue(bound)), hc.buckets[j])
		}
		fmt.Fprintf(&b, "%s %d\n", bucketKey(k, "+Inf"), hc.buckets[len(hc.buckets)-1])
		fmt.Fprintf(&b, "%s_sum%s %s\n", k.name, labelSuffix(k), formatValue(hc.sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", k.name, labelSuffix(k), hc.count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func bucketKey(k metricKey, le string) string {
	if k.labels == "" {
		return fmt.Sprintf(`%s_bucket{le=%q}`, k.name, le)
	}
	return fmt.Sprintf(`%s_bucket{%s,le=%q}`, k.name, k.labels, le)
}

func labelSuffix(k metricKey) string {
	if k.labels == "" {
		return ""
	}
	return "{" + k.labels + "}"
}

// formatValue renders a float the way Prometheus expects (+Inf/-Inf
// spelled out, no exponent for integral values).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
