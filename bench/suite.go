package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/trace"
)

// runCtx is what every part of one run shares.
type runCtx struct {
	seed  uint64
	scale float64 // op-count scale factor; 1 = BENCHMARK.json's run_seconds
	root  string  // parent of this run's ledger directories
	tr    *tracer // nil on untraced runs
	host  *hostMeter
	log   io.Writer
}

// n scales an op count, keeping at least min so that a tiny test scale
// still exercises every code path.
func (rc *runCtx) n(count, min int) int {
	v := int(math.Round(float64(count) * rc.scale))
	if v < min {
		return min
	}
	return v
}

// smoke reports whether the run is a smoke test of the harness (its own
// tests) rather than a measurement.
func (rc *runCtx) smoke() bool { return rc.scale < smokeScale }

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// slices is how many pieces every part's measured work is cut into.
// The parts of a run take turns, one slice each, so that every metric
// is sampled across the whole run instead of in one window of a second
// or two: the host this benchmark runs on changes speed by a fifth in
// regimes lasting from a second to a minute, and a metric taken in one
// short window reads whichever regime it fell into.
const slices = 12

// sliceCounts cuts a total op count into at most slices nearly equal
// pieces of at least one op each; the pieces sum to total.
func sliceCounts(total int) []int {
	k := min(slices, total)
	out := make([]int, k)
	for i := range out {
		out[i] = total / k
		if i < total%k {
			out[i]++
		}
	}
	return out
}

// overSlices is how a run's slices become one number: the mean of the
// per-slice values. The slices of one run differ by a tenth to a third
// (a collection of the shared heap beside one, a neighbour's burst
// beside another), and over ten runs of three workloads the mean
// repeated better than the median, any quartile, the minimum or a
// trimmed mean of the same slice values (README.md): the slices
// are not a clean mode with outliers, every one of them carries signal.
func overSlices(perSlice []float64) float64 {
	var sum float64
	for _, v := range perSlice {
		sum += v
	}
	return sum / float64(len(perSlice))
}

// part is one server lifetime of a run (or the analyses): its set-up,
// its measured work in slices — measure calls yield between two slices
// and other parts run meanwhile — and its output checks. Only one part
// runs at any time; the slices interleave, they never overlap.
type part interface {
	setup() error
	measure(yield func()) error
	finish() error
}

// runParts runs every part's set-up in order, then their measured
// slices in turns, then their checks in order. After every set-up and
// between every two slices it takes one reading of the host's speed.
func runParts(rc *runCtx, parts []part) error {
	for _, p := range parts {
		if err := p.setup(); err != nil {
			return err
		}
		rc.host.rep()
	}
	r := &relay{done: make([]bool, len(parts))}
	r.cond = sync.NewCond(&r.mu)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p part) {
			defer wg.Done()
			r.wait(i)
			errs[i] = p.measure(func() { rc.host.rep(); r.pass(i); r.wait(i) })
			r.exit(i)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, p := range parts {
		if err := p.finish(); err != nil {
			return err
		}
	}
	return nil
}

// relay hands the right to run from part to part, round-robin over the
// parts that still have slices left.
type relay struct {
	mu   sync.Mutex
	cond *sync.Cond
	turn int
	done []bool
}

func (r *relay) wait(id int) {
	r.mu.Lock()
	for r.turn != id {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

func (r *relay) pass(id int) {
	r.mu.Lock()
	for i := 1; i <= len(r.done); i++ {
		if next := (id + i) % len(r.done); !r.done[next] {
			r.turn = next
			break
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

func (r *relay) exit(id int) {
	r.mu.Lock()
	r.done[id] = true
	r.mu.Unlock()
	r.pass(id)
}

// section is what one of the five sections of a run measured.
type section struct {
	name      string
	metrics   map[string]measurement // end-to-end metrics by name
	diag      map[string]measurement // p90/p99 and other diagnostics
	attempted int
	failed    int
	setup     time.Duration // start → first measured op, summed over parts
	measured  time.Duration // measured slices, summed over parts
	digest    *digest       // nil for sections whose outputs depend on timing
	failures  []string      // failed output checks (audit, durability, diff)

	// Traced runs only: the traced and the untraced requests' median per
	// latency metric, and per query kind the share of each traced request's latency that
	// its X-DP-Explain profile attributes to engine operators.
	tracedP50    map[string]float64
	plainP50     map[string]float64
	explainShare map[string][]float64
	// packets is the dataset the section's server started with, kept
	// for the traced run's replay.
	packets []trace.Packet
	// walShapes is one journal event of each type the section's server
	// appended, read back from its WAL for the traced run's replay.
	walShapes map[string]ledger.Event
}

func newSection(name string, deterministic bool) *section {
	s := &section{name: name, metrics: map[string]measurement{}, diag: map[string]measurement{},
		tracedP50: map[string]float64{}, plainP50: map[string]float64{}, explainShare: map[string][]float64{}}
	if deterministic {
		s.digest = newDigest()
	}
	return s
}

// sliceMedians returns the median of each slice of xs, the slices
// starting at cuts (nil = one slice).
func sliceMedians(xs []float64, cuts []int) []float64 {
	if len(cuts) == 0 {
		cuts = []int{0}
	}
	var meds []float64
	for i, from := range cuts {
		to := len(xs)
		if i+1 < len(cuts) {
			to = cuts[i+1]
		}
		if to > from {
			meds = append(meds, median(xs[from:to]))
		}
	}
	return meds
}

// latency records a latency metric from samples whose slices start at
// cuts. The end-to-end value is the mean over the slices of each
// slice's median: a median, so that a minority of slow requests does
// not move a slice; averaged over the slices, so that a run which
// straddles two speed regimes of the host reads their blend rather than
// whichever holds the 50th percentile. The pooled median and p90/p99
// over all samples are diagnostics (design rule 4).
func (s *section) latency(name string, samples []time.Duration, cuts []int) {
	xs := ms(samples)
	meds := sliceMedians(xs, cuts)
	s.metrics[name] = measurement{Value: overSlices(meds), Unit: "ms", Samples: len(xs)}
	base := name[:len(name)-len("_p50_ms")]
	s.diag["all."+base+"_p50_ms"] = measurement{Value: median(xs), Unit: "ms", Samples: len(xs)}
	s.diag["tail."+base+"_p90_ms"] = measurement{Value: quantile(xs, 0.90), Unit: "ms", Samples: len(xs)}
	s.diag["tail."+base+"_p99_ms"] = measurement{Value: quantile(xs, 0.99), Unit: "ms", Samples: len(xs)}
}

func (s *section) check(ok bool, format string, args ...any) {
	if !ok {
		s.failures = append(s.failures, s.name+": "+fmt.Sprintf(format, args...))
	}
}

// timed adds f's duration to *total.
func timed(total *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*total += time.Since(t0)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
