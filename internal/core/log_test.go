package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dptrace/internal/noise"
	"dptrace/internal/sketch"
)

// A Log view reads its records in place, out of fixed-capacity
// segments, and its feed must hand every sink exactly the chunks one
// contiguous slice of the same records would. These tests hold it to
// that over small test-only segment capacities, so a few thousand
// records cross many boundaries: every operator, at 1, 2 and 4
// workers, on views that are aligned to a segment, straddle
// boundaries, lie inside one segment, or are empty, must release,
// draw, charge and report what it does over a slice.

// fillLog appends recs to a log of segment capacity seg in batches of
// the given size.
func fillLog[T any](seg int, recs []T, batch int) *Log[T] {
	l := newLog[T](seg, nil)
	for lo := 0; lo < len(recs); lo += batch {
		l.Append(recs[lo:min(lo+batch, len(recs))])
	}
	return l
}

// logOutcome is everything logBattery's operators release, charge,
// draw and report over one handle.
type logOutcome struct {
	vals     []uint64 // Float64bits of each released value
	errs     []string
	spent    []float64 // cumulative, after each release
	draws    int
	ops      []capturedOp
	aggs     []capturedAgg
	tuples   [][]sketch.Tuple
	released []any // the records of each derived Queryable
}

// logBattery runs every aggregation, every pipeline shape, the keyed
// operators, Partition, and the two-input operators (Join, GroupJoin,
// Concat through settled, Intersect and Except) over q.
func logBattery(q *Queryable[flowRec], root *RootAgent, src *countingSource, rec *captureRecorder) logOutcome {
	var out logOutcome
	note := func(v float64, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		out.vals = append(out.vals, math.Float64bits(v))
		out.errs = append(out.errs, msg)
		out.spent = append(out.spent, root.Spent())
	}
	keep := func(recs any) { out.released = append(out.released, recs) }

	for _, ac := range aggCases {
		note(ac.run(q, ac.eps))
	}
	for _, pc := range pipeCases {
		s := pc.lazy(q.Stream())
		note(s.NoisyCount(0.1))
		note(NoisySum(s, 0.1, unitLen))
		note(NoisyQuantile(s, 0.1, 0.5, 0.02, rawLen))
		if summary, ok := quantileSummary(s, 0.02, rawLen); ok {
			out.tuples = append(out.tuples, slices.Clone(summary.Tuples()))
		}
		keep(pc.eager(q).settled().records)
	}

	port := func(f flowRec) int { return int(f.Port) }
	src32 := func(f flowRec) uint32 { return f.Src }
	d := Distinct(q, port)
	note(d.NoisyCount(0.1))
	keep(d.records)
	g := GroupBy(q, port)
	note(g.NoisyCount(0.1))
	keep(g.records)
	gf := GroupFold(q, port, func(a int, f flowRec) int { return a + f.Len }, func(a, b int) int { return a + b })
	note(gf.NoisyCount(0.1))
	keep(gf.records)

	ports := make([]int, 17)
	for i := range ports {
		ports[i] = i
	}
	for _, h := range []Streamer[flowRec]{q, q.Stream().Where(lenDiv3)} {
		parts := Partition(h, ports, port)
		for _, k := range ports {
			note(parts[k].NoisyCount(0.1))
			note(NoisyQuantile(parts[k], 0.1, 0.5, 0.02, rawLen))
			keep(parts[k].settled().records)
		}
	}

	even := q.Where(evenPort)
	j := Join(q, even, src32, src32, func(a, b flowRec) flowRec { a.Len += b.Len; return a })
	note(j.NoisyCount(0.1))
	keep(j.records)
	gj := GroupJoin(q, even, src32, src32, func(k uint32, a, b []flowRec) int { return int(k) + len(a) - len(b) })
	note(gj.NoisyCount(0.1))
	keep(gj.records)
	c := q.Concat(even)
	note(NoisySum(c, 0.1, unitLen))
	keep(c.records)
	in := Intersect(q, q.Where(lenDiv3), src32, src32)
	note(in.NoisyCount(0.1))
	keep(in.records)
	ex := Except(q, q.Where(lenDiv3), src32, src32)
	note(ex.NoisyCount(0.1))
	keep(ex.records)

	out.draws = src.draws
	for _, op := range rec.ops {
		op.d = 0
		out.ops = append(out.ops, op)
	}
	out.aggs = rec.aggs
	return out
}

// logCase is one log layout: n records in segments of seg.
type logCase struct{ n, seg int }

var logCases = []logCase{
	{0, 1}, {1, 1}, {37, 1},
	{3*chunkSize + 7, 7},
	{3*chunkSize + 7, chunkSize},
	{5*chunkSize + 3, chunkSize + 1},
	{sketchBlock + chunkSize + 3, 3*chunkSize - 5},
	{2*sketchBlock + 1, sketchBlock},
}

// logViews returns the named views of case c's log worth testing:
// the whole log from position 0, one straddling segment boundaries
// from inside the first segment, one inside the second segment, and an
// empty one. Views a layout cannot hold are left out.
func logViews(c logCase) map[string][2]int {
	views := map[string][2]int{"aligned": {0, c.n}, "empty": {c.n / 2, c.n / 2}}
	if lo, hi := c.seg/2+1, c.n-c.seg/3-1; lo < hi && lo/c.seg != (hi-1)/c.seg {
		views["straddle"] = [2]int{lo, hi}
	}
	if lo, hi := c.seg+c.seg/4, min(2*c.seg-c.seg/4, c.n); lo < hi {
		views["inside"] = [2]int{lo, hi}
	}
	return views
}

func TestLogViewMatchesSlice(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	rng := rand.New(rand.NewSource(32))
	for _, c := range logCases {
		flows := randomFlows(rng, c.n)
		l := fillLog(c.seg, flows, 1+rng.Intn(3*chunkSize))
		for name, b := range logViews(c) {
			view := l.View().Slice(b[0], b[1])
			_, inPlace := view.contiguous()
			if want := name != "straddle" && (name != "aligned" || c.n <= c.seg); inPlace != want {
				t.Fatalf("n=%d seg=%d %s [%d,%d): one slice = %v, want %v", c.n, c.seg, name, b[0], b[1], inPlace, want)
			}
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("n=%d seg=%d %s [%d,%d) workers=%d", c.n, c.seg, name, b[0], b[1], workers)
				exec := ExecOptions{Workers: workers, Threshold: 1}
				outcome := func(mk func(Agent, noise.Source) *Queryable[flowRec]) logOutcome {
					root := NewRootAgent(math.Inf(1))
					src := &countingSource{src: noise.NewSeededSource(32, 33)}
					rec := &captureRecorder{}
					q := mk(root, src).WithRecorder(rec).WithExecOptions(exec)
					return logBattery(q, root, src, rec)
				}
				want := outcome(func(a Agent, src noise.Source) *Queryable[flowRec] {
					return NewQueryableFor(slices.Clone(flows[b[0]:b[1]]), a, src)
				})
				got := outcome(func(a Agent, src noise.Source) *Queryable[flowRec] {
					return NewQueryableForView(view, a, src)
				})
				compareLogOutcomes(t, label, got, want)
			}
		}
	}
}

// compareLogOutcomes fails on the first field where a view's outcome
// differs from the slice's.
func compareLogOutcomes(t *testing.T, label string, got, want logOutcome) {
	t.Helper()
	if len(got.vals) != len(want.vals) {
		t.Fatalf("%s: %d releases; slice %d", label, len(got.vals), len(want.vals))
	}
	for i := range want.vals {
		if got.vals[i] != want.vals[i] || got.errs[i] != want.errs[i] {
			t.Fatalf("%s: release %d = %v (%q); slice %v (%q)", label, i,
				math.Float64frombits(got.vals[i]), got.errs[i], math.Float64frombits(want.vals[i]), want.errs[i])
		}
	}
	switch {
	case !reflect.DeepEqual(got.spent, want.spent):
		t.Fatalf("%s: spent %v; slice %v", label, got.spent, want.spent)
	case got.draws != want.draws:
		t.Fatalf("%s: %d noise draws; slice %d", label, got.draws, want.draws)
	case !reflect.DeepEqual(got.ops, want.ops) || !reflect.DeepEqual(got.aggs, want.aggs):
		t.Fatalf("%s: profile rows\n%+v %+v\nslice\n%+v %+v", label, got.ops, got.aggs, want.ops, want.aggs)
	case !reflect.DeepEqual(got.tuples, want.tuples):
		t.Fatalf("%s: quantile summaries differ from the slice's", label)
	}
	for i := range want.released {
		if !reflect.DeepEqual(got.released[i], want.released[i]) {
			t.Fatalf("%s: derived Queryable %d holds other records than the slice's", label, i)
		}
	}
}

// TestLogAppendKeepsViews: an Append never moves or rewrites a record
// the log holds, so a view taken before it reads the same records, at
// the same addresses, after it; and the log holds copies, never the
// caller's slice.
func TestLogAppendKeepsViews(t *testing.T) {
	recs := []int{1, 2, 3, 4, 5}
	l := newLog(4, recs[:3])
	recs[0] = 99
	before := l.View()
	first, _ := before.Slice(0, 2).contiguous()
	l.Append(recs[3:])
	l.Append(make([]int, 3*4))
	if got := collectView(before); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("view taken before the appends reads %v, want [1 2 3]", got)
	}
	if again, _ := l.View().Slice(0, 2).contiguous(); &again[0] != &first[0] {
		t.Fatal("an append moved records the log already held")
	}
	if got := collectView(l.View().Slice(2, 5)); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("records 2..5 are %v, want [3 4 5]", got)
	}
	if l.Len() != 17 || len(l.segs) != 5 {
		t.Fatalf("log of %d records in %d segments, want 17 in 5", l.Len(), len(l.segs))
	}
}

// collectView returns a view's records as one slice.
func collectView[T any](v LogView[T]) []T {
	recs, _ := v.records(nil)
	return recs
}

// chunkLog is a sink that keeps a copy of every chunk it receives.
type chunkLog[T any] struct{ chunks [][]T }

func (k *chunkLog[T]) acceptChunk(c []T) { k.chunks = append(k.chunks, slices.Clone(c)) }

// FuzzLogView builds a log of random segment capacity from random
// batch sizes, takes a random view, and compares the chunks its feed
// hands a sink — for the whole view and for a random range of it, and
// per worker range of a scan at a random width — with the chunks one
// contiguous slice of the same records hands down: the same count, the
// same lengths, the same records.
func FuzzLogView(f *testing.F) {
	f.Add(uint16(7), uint16(3*chunkSize+7), uint16(100), uint16(9), uint16(1500), uint16(3), uint16(600), uint8(2))
	f.Add(uint16(chunkSize), uint16(4*chunkSize), uint16(chunkSize), uint16(0), uint16(4*chunkSize), uint16(0), uint16(4*chunkSize), uint8(4))
	f.Add(uint16(1), uint16(40), uint16(1), uint16(5), uint16(5), uint16(0), uint16(0), uint8(1))
	f.Add(uint16(chunkSize+1), uint16(5000), uint16(999), uint16(chunkSize), uint16(4999), uint16(chunkSize-1), uint16(3000), uint8(3))
	f.Fuzz(func(t *testing.T, seg, n, batch, lo, hi, a, b uint16, workers uint8) {
		recs := make([]int, int(n)%(8*chunkSize))
		for i := range recs {
			recs[i] = i*7919 + 1
		}
		l := fillLog(1+int(seg)%(3*chunkSize), recs, 1+int(batch)%(2*chunkSize))
		lo, hi = lo%(uint16(len(recs))+1), hi%(uint16(len(recs))+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		view, slice := l.View().Slice(int(lo), int(hi)), recs[lo:hi]
		a, b = a%(uint16(len(slice))+1), b%(uint16(len(slice))+1)
		if a > b {
			a, b = b, a
		}
		ranges := [][2]int{{0, len(slice)}, {int(a), int(b)}}
		for _, r := range ranges {
			got, want := &chunkLog[int]{}, &chunkLog[int]{}
			view.feed(&scanRun{}, r[0], r[1], got)
			Stream[int]{recs: slice}.push(&scanRun{}, r[0], r[1], want)
			if !reflect.DeepEqual(got.chunks, want.chunks) {
				t.Fatalf("seg=%d view [%d,%d) range %v: chunks %v, slice's %v", l.seg, lo, hi, r, lens(got.chunks), lens(want.chunks))
			}
		}
		exec := ExecOptions{Workers: 1 + int(workers)%4, Threshold: 1}
		q := NewQueryableForView(view, NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2)).WithExecOptions(exec)
		ref := NewQueryableFor(slice, NewRootAgent(math.Inf(1)), noise.NewSeededSource(1, 2)).WithExecOptions(exec)
		for _, split := range []int{1, 3, sketchBlock} {
			mk := func(_, _ int) *chunkLog[int] { return &chunkLog[int]{} }
			got, _, _ := run(q.Stream(), split, mk)
			want, _, _ := run(ref.Stream(), split, mk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seg=%d view [%d,%d) split %d workers %d: per-range chunks differ from the slice's", l.seg, lo, hi, split, exec.Workers)
			}
		}
	})
}

// lens returns the lengths of chunks.
func lens[T any](chunks [][]T) []int {
	out := make([]int, len(chunks))
	for i, c := range chunks {
		out[i] = len(c)
	}
	return out
}
