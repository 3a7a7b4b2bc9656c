package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/sketch"
)

// The engine has one record-wise executor (stream.go), so comparing
// the eager spelling with the lazy one, or one worker count with
// another, compares the loop with itself. This file compares it with
// something else: a deliberately naive reference — one record at a
// time, one freshly grown slice per stage, no chunks, no workers, no
// shared code with the engine beyond the noise and sketch packages —
// and asserts, over every pipeline shape × handle × worker count ×
// recorder × size straddling each structural constant, that the engine
// releases the same records in the same order, the same noisy values
// bit for bit from the same number of noise draws, the same ε-charges,
// the same refusal boundary and the same per-stage record counts.

// refStage is one record-wise operator for the reference: emit returns
// the records one input record turns into.
type refStage struct {
	op     string
	fanout int // > 0 for selectmany: truncation bound and ε amplification
	emit   func(flowRec) []flowRec
}

// refRun pushes records through the stages one record at a time and
// returns the output, the source position each output record came
// from, and each stage's records in/out.
func refRun(records []flowRec, stages []refStage) (out []flowRec, pos []int, counts [][2]int) {
	cur := records
	pos = identity(len(records))
	for _, st := range stages {
		var next []flowRec
		var nextPos []int
		for i, r := range cur {
			emitted := st.emit(r)
			if st.fanout > 0 && len(emitted) > st.fanout {
				emitted = emitted[:st.fanout]
			}
			next = append(next, emitted...)
			for range emitted {
				nextPos = append(nextPos, pos[i])
			}
		}
		counts = append(counts, [2]int{len(cur), len(next)})
		cur, pos = next, nextPos
	}
	return cur, pos, counts
}

// identity is 0, 1, …, n−1: the source positions of a bare source.
func identity(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// The operators every spelling shares.
var (
	anyLen   = func(f flowRec) bool { return f.Len >= 0 }
	lenDiv3  = func(f flowRec) bool { return f.Len%3 == 0 }
	evenPort = func(f flowRec) bool { return f.Port%2 == 0 }
	longer   = func(f flowRec) bool { return f.Len > 100 }
	double   = func(f flowRec) flowRec { f.Len *= 2; return f }
	burst    = func(f flowRec) []flowRec {
		if f.Port%2 == 0 {
			return []flowRec{f, f, f} // truncated to fanout 2
		}
		return []flowRec{f}
	}
)

func refWhere(pred func(flowRec) bool) refStage {
	return refStage{op: "where", emit: func(f flowRec) []flowRec {
		if pred(f) {
			return []flowRec{f}
		}
		return nil
	}}
}

// pipeCase is one pipeline shape, spelled for the reference, eagerly
// on a Queryable, and lazily on a Stream.
type pipeCase struct {
	name   string
	stages []refStage
	eager  func(q *Queryable[flowRec]) *Queryable[flowRec]
	lazy   func(s Stream[flowRec]) Stream[flowRec]
}

var pipeCases = []pipeCase{
	{
		name:  "bare",
		eager: func(q *Queryable[flowRec]) *Queryable[flowRec] { return q },
		lazy:  func(s Stream[flowRec]) Stream[flowRec] { return s },
	},
	{
		name:   "where",
		stages: []refStage{refWhere(lenDiv3)},
		eager:  func(q *Queryable[flowRec]) *Queryable[flowRec] { return q.Where(lenDiv3) },
		lazy:   func(s Stream[flowRec]) Stream[flowRec] { return s.Where(lenDiv3) },
	},
	{
		// A filter that rejects nothing hands its input chunks down as
		// they came; the stage behind it must treat them as read-only.
		name:   "where-all/where",
		stages: []refStage{refWhere(anyLen), refWhere(lenDiv3)},
		eager:  func(q *Queryable[flowRec]) *Queryable[flowRec] { return q.Where(anyLen).Where(lenDiv3) },
		lazy:   func(s Stream[flowRec]) Stream[flowRec] { return s.Where(anyLen).Where(lenDiv3) },
	},
	{
		name: "where/select",
		stages: []refStage{refWhere(evenPort),
			{op: "select", emit: func(f flowRec) []flowRec { return []flowRec{double(f)} }}},
		eager: func(q *Queryable[flowRec]) *Queryable[flowRec] { return Select(q.Where(evenPort), double) },
		lazy:  func(s Stream[flowRec]) Stream[flowRec] { return StreamSelect(s.Where(evenPort), double) },
	},
	{
		name: "where/selectmany/where",
		stages: []refStage{refWhere(lenDiv3),
			{op: "selectmany", fanout: 2, emit: burst}, refWhere(longer)},
		eager: func(q *Queryable[flowRec]) *Queryable[flowRec] {
			return SelectMany(q.Where(lenDiv3), 2, burst).Where(longer)
		},
		lazy: func(s Stream[flowRec]) Stream[flowRec] {
			return StreamSelectMany(s.Where(lenDiv3), 2, burst).Where(longer)
		},
	},
}

// The selectors every aggregation shares.
var (
	unitLen = func(f flowRec) float64 { return float64(f.Len)/750 - 1 }
	rawLen  = func(f flowRec) float64 { return float64(f.Len) }
	rankLen = func(f flowRec) int64 { return int64(f.Len) }
	portKey = func(f flowRec) string { return string(rune('a' + f.Port%16)) }
	srcKey  = func(f flowRec) string { return fmt.Sprint(f.Src % 512) }
)

// The public domain the rank cases draw from: narrower than the
// lengths randomFlows makes ([0, 1500)), so values clamp at both ends.
const rankLo, rankHi = 100, 1200

// refRank is the exponential mechanism over every integer of [rankLo,
// rankHi], built one integer at a time: an integer's below and through
// counts come from binary searches over the sorted clamped lengths,
// neighbours with the same counts form one run (a distinct value, or a
// gap between two), and a run is drawn with weight width·exp(ε·score/2),
// then an integer uniformly inside it.
func refRank(src noise.Source, out []flowRec, eps float64, score func(below, through, n int) float64) float64 {
	vals := make([]int64, 0, len(out))
	for _, r := range out {
		vals = append(vals, min(max(rankLen(r), rankLo), rankHi))
	}
	slices.Sort(vals)
	type run struct {
		lo, width      int64
		below, through int
	}
	var runs []run
	for x := int64(rankLo); x <= rankHi; x++ {
		below := sort.Search(len(vals), func(k int) bool { return vals[k] >= x })
		through := sort.Search(len(vals), func(k int) bool { return vals[k] > x })
		if last := len(runs) - 1; last >= 0 && runs[last].below == below && runs[last].through == through {
			runs[last].width++
			continue
		}
		runs = append(runs, run{x, 1, below, through})
	}
	scores := make([]float64, len(runs))
	for i, r := range runs {
		scores[i] = score(r.below, r.through, len(vals)) + 2*math.Log(float64(r.width))/eps
	}
	r := runs[noise.Exponential(src, scores, 1, eps)]
	return float64(r.lo + min(int64(src.Float64()*float64(r.width)), r.width-1))
}

// aggCase is one mechanism: the engine call on either handle and the
// naive computation over the reference output, drawing from src. pos
// holds each output record's position in the handle's source: where a
// lazy pipeline's source was cut, or 0, 1, … on an eager handle, whose
// source is the materialized output.
type aggCase struct {
	name string
	eps  float64
	run  func(src Streamer[flowRec], eps float64) (float64, error)
	ref  func(out []flowRec, pos []int, src noise.Source, eps float64) float64
}

var aggCases = []aggCase{
	{"count", 0.4,
		func(s Streamer[flowRec], eps float64) (float64, error) { return s.Stream().NoisyCount(eps) },
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			return float64(len(out)) + noise.LaplaceForEpsilon(src, 1, eps)
		}},
	{"countint", 0.3,
		func(s Streamer[flowRec], eps float64) (float64, error) {
			v, err := s.Stream().NoisyCountInt(eps)
			return float64(v), err
		},
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			return float64(int64(len(out)) + noise.Geometric(src, 1, eps))
		}},
	{"sum", 0.25,
		func(s Streamer[flowRec], eps float64) (float64, error) { return NoisySum(s, eps, unitLen) },
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			sum := 0.0
			for _, r := range out {
				sum += math.Max(-1, math.Min(1, unitLen(r)))
			}
			return sum + noise.LaplaceForEpsilon(src, 1, eps)
		}},
	{"sumscaled", 0.2,
		func(s Streamer[flowRec], eps float64) (float64, error) { return NoisySumScaled(s, eps, 1000, rawLen) },
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			sum := 0.0
			for _, r := range out {
				sum += math.Min(1000, rawLen(r))
			}
			return sum + noise.LaplaceForEpsilon(src, 1000, eps)
		}},
	{"average", 0.3,
		func(s Streamer[flowRec], eps float64) (float64, error) {
			return NoisyAverageScaled(s, eps, 1000, rawLen)
		},
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			if len(out) == 0 {
				return noise.LaplaceForEpsilon(src, 2000, eps)
			}
			sum := 0.0
			for _, r := range out {
				sum += math.Min(1000, rawLen(r))
			}
			n := float64(len(out))
			return sum/n + noise.LaplaceForEpsilon(src, 2000/n, eps)
		}},
	{"median", 0.5,
		func(s Streamer[flowRec], eps float64) (float64, error) {
			v, err := NoisyMedian(s, eps, rankLo, rankHi, rankLen)
			return float64(v), err
		},
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			return refRank(src, out, eps, func(below, through, n int) float64 {
				return -math.Abs(float64(below - (n - through)))
			})
		}},
	{"orderstat", 0.5,
		func(s Streamer[flowRec], eps float64) (float64, error) {
			v, err := NoisyOrderStatistic(s, eps, 0.9, rankLo, rankHi, rankLen)
			return float64(v), err
		},
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			return refRank(src, out, eps, func(below, through, n int) float64 {
				return -math.Abs(float64(below+through)/2 - 0.9*float64(n))
			})
		}},
	{"quantile", 0.5,
		func(s Streamer[flowRec], eps float64) (float64, error) {
			return NoisyQuantile(s, eps, 0.75, 0.02, rawLen)
		},
		func(out []flowRec, pos []int, src noise.Source, eps float64) float64 {
			// One summary per sketchBlock source positions that let a
			// record through, folded in order.
			merged := sketch.NewQuantile(0.02)
			var blk *sketch.Quantile
			for i, r := range out {
				if i == 0 || pos[i]/sketchBlock != pos[i-1]/sketchBlock {
					if blk != nil {
						merged.Merge(blk)
					}
					blk = sketch.NewQuantile(0.02)
				}
				blk.Insert(rawLen(r))
			}
			if blk == nil {
				return 0
			}
			merged.Merge(blk)
			tuples := merged.Tuples()
			target := 0.75 * float64(merged.Count())
			scores := make([]float64, len(tuples))
			for i, tp := range tuples {
				lo := 0.0
				if i > 0 {
					lo = float64(tuples[i-1].RMin)
				}
				scores[i] = -math.Max(0, math.Max(lo-target, target-float64(tp.RMax)))
			}
			return tuples[noise.Exponential(src, scores, 1, eps)].Value
		}},
	{"distinctcount", 0.4,
		func(s Streamer[flowRec], eps float64) (float64, error) { return NoisyDistinctSketch(s, eps, srcKey) },
		func(out []flowRec, _ []int, src noise.Source, eps float64) float64 {
			d := sketch.NewDistinct(distinctSketchPrecision)
			for _, r := range out {
				d.Add(srcKey(r))
			}
			return d.Estimate() + noise.LaplaceForEpsilon(src, 1, eps)
		}},
}

// countingSource counts the uniform draws an execution consumes.
type countingSource struct {
	src   noise.Source
	draws int
}

func (c *countingSource) Float64() float64 { c.draws++; return c.src.Float64() }

// execSizes straddle every structural constant of the loop: the chunk
// size, the quantile block, and the default parallel threshold.
var execSizes = []int{0, 1, 7,
	chunkSize - 1, chunkSize, chunkSize + 1,
	sketchBlock - 1, sketchBlock, sketchBlock + 1,
	DefaultParallelThreshold - 1, DefaultParallelThreshold, DefaultParallelThreshold + 1}

// execModes: sequential; four workers behind the default threshold
// (so the n−1/n/n+1 sizes cross it); four workers on every input.
var execModes = []struct {
	name string
	exec ExecOptions
}{
	{"workers=1", ExecOptions{}},
	{"workers=4", ExecOptions{Workers: 4}},
	{"workers=4/forced", ExecOptions{Workers: 4, Threshold: 1}},
}

func sameRecords(a, b []flowRec) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestEngineMatchesNaiveReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	rng := rand.New(rand.NewSource(2010))
	for _, n := range execSizes {
		flows := randomFlows(rng, n)
		pristine := append([]flowRec(nil), flows...)
		defer func() {
			if !sameRecords(flows, pristine) {
				t.Errorf("n=%d: a pipeline wrote to its source records", len(pristine))
			}
		}()
		for _, pc := range pipeCases {
			out, pos, counts := refRun(flows, pc.stages)
			scale := 1.0
			for _, st := range pc.stages {
				if st.fanout > 0 {
					scale *= float64(st.fanout)
				}
			}
			// The reference answers, charges and draw count, in order, for
			// the eager handle (its source is out) and the lazy one.
			refDraws := 0
			wantVals := map[bool][]float64{}
			for _, lazy := range []bool{false, true} {
				refSrc := &countingSource{src: noise.NewSeededSource(11, 13)}
				at := identity(len(out))
				if lazy {
					at = pos
				}
				for _, ac := range aggCases {
					wantVals[lazy] = append(wantVals[lazy], ac.ref(out, at, refSrc, ac.eps))
				}
				refDraws = refSrc.draws
			}
			wantSpent := make([]float64, len(aggCases)) // cumulative
			spent := 0.0
			for i, ac := range aggCases {
				spent += ac.eps * scale
				wantSpent[i] = spent
			}
			// A budget the fourth aggregation exhausts exactly: the rest
			// must be refused, drawing nothing and charging nothing.
			const affordable = 4
			tight := wantSpent[affordable-1]

			for _, mode := range execModes {
				for _, lazy := range []bool{false, true} {
					for _, recorded := range []bool{false, true} {
						label := fmt.Sprintf("%s n=%d %s lazy=%v recorded=%v", pc.name, n, mode.name, lazy, recorded)
						for _, budget := range []float64{math.Inf(1), tight} {
							src := &countingSource{src: noise.NewSeededSource(11, 13)}
							q, root := NewQueryable(flows, budget, src)
							rec := &captureRecorder{}
							if recorded {
								q = q.WithRecorder(rec)
							} else {
								q = q.WithRecorder(nil)
							}
							q = q.WithExecOptions(mode.exec)

							var handle Streamer[flowRec]
							var got []flowRec
							if lazy {
								st := pc.lazy(q.Stream())
								handle, got = st, st.Materialize().records
							} else {
								eq := pc.eager(q)
								handle, got = eq, eq.records
							}
							if !sameRecords(got, out) {
								t.Fatalf("%s: %d records differ from the reference's %d (or their order does)", label, len(got), len(out))
							}
							// Both spellings have by now reported each stage once.
							checkStageRows(t, label, rec, recorded, counts, pc.stages, 1)
							rec.ops = nil

							for i, ac := range aggCases {
								v, err := ac.run(handle, ac.eps)
								if budget == tight && i >= affordable {
									if !errors.Is(err, ErrBudgetExceeded) || v != 0 {
										t.Fatalf("%s: %s past the budget: (%v, %v), want refusal", label, ac.name, v, err)
									}
									continue
								}
								if err != nil {
									t.Fatalf("%s: %s: %v", label, ac.name, err)
								}
								if math.Float64bits(v) != math.Float64bits(wantVals[lazy][i]) {
									t.Fatalf("%s: %s = %v, reference %v", label, ac.name, v, wantVals[lazy][i])
								}
								if got := root.Spent(); got != wantSpent[i] {
									t.Fatalf("%s: spent %v after %s, reference %v", label, got, ac.name, wantSpent[i])
								}
							}
							if budget == tight {
								if got := root.Spent(); got != tight {
									t.Fatalf("%s: refusals moved the ledger: spent %v, want %v", label, got, tight)
								}
								continue
							}
							if src.draws != refDraws {
								t.Fatalf("%s: %d noise draws, reference %d", label, src.draws, refDraws)
							}
							// A lazy handle re-runs its stages under every
							// aggregation but a bare-source count; an eager
							// one ran them once, above.
							runs := 0
							if lazy {
								runs = len(aggCases)
							}
							checkStageRows(t, label, rec, recorded, counts, pc.stages, runs)
							if recorded && len(rec.aggs) != len(aggCases) {
								t.Fatalf("%s: %d aggregation rows, want %d", label, len(rec.aggs), len(aggCases))
							}
						}
					}
				}
			}
		}
	}
}

// checkStageRows asserts the recorder saw every stage's reference
// in/out counts, in pipeline order, runs times over.
func checkStageRows(t *testing.T, label string, rec *captureRecorder, recorded bool, counts [][2]int, stages []refStage, runs int) {
	t.Helper()
	if !recorded {
		runs = 0
	}
	if len(rec.ops) != runs*len(stages) {
		t.Fatalf("%s: %d stage rows, want %d×%d: %+v", label, len(rec.ops), runs, len(stages), rec.ops)
	}
	for i, row := range rec.ops {
		st := i % len(stages)
		if row.op != stages[st].op || row.in != counts[st][0] || row.out != counts[st][1] {
			t.Fatalf("%s: stage row %d = %+v, reference %s %d→%d", label, i, row, stages[st].op, counts[st][0], counts[st][1])
		}
	}
}

// TestFusedRefusalBoundary pins the refusal behavior across handles:
// when the budget runs out mid-sequence, the lazy spelling refuses at
// exactly the same aggregation, with the same error and the same final
// ledger, as the eager one — including the sensitivity-scaled charge
// of a SelectMany.
func TestFusedRefusalBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	flows := randomFlows(rng, 1000)

	run := func(useFused bool) ([]error, float64) {
		q, root := NewQueryable(flows, 1.0, noise.NewSeededSource(2, 3))
		var errs []error
		// Plain count at ε=0.6, then a fanout-3 SelectMany count at
		// ε=0.2 (charges 0.6 > remaining 0.4 — must refuse), then a
		// plain count at ε=0.4 (exactly exhausts the budget).
		if useFused {
			_, e1 := q.Stream().NoisyCount(0.6)
			m := StreamSelectMany(q.Stream(), 3, func(f flowRec) []flowRec { return []flowRec{f} })
			_, e2 := m.NoisyCount(0.2)
			_, e3 := q.Stream().NoisyCount(0.4)
			errs = []error{e1, e2, e3}
		} else {
			_, e1 := q.NoisyCount(0.6)
			m := SelectMany(q, 3, func(f flowRec) []flowRec { return []flowRec{f} })
			_, e2 := m.NoisyCount(0.2)
			_, e3 := q.NoisyCount(0.4)
			errs = []error{e1, e2, e3}
		}
		return errs, root.Spent()
	}

	matErrs, matSpent := run(false)
	fusedErrs, fusedSpent := run(true)

	for i := range matErrs {
		if (matErrs[i] == nil) != (fusedErrs[i] == nil) ||
			(matErrs[i] != nil && !errors.Is(fusedErrs[i], ErrBudgetExceeded)) {
			t.Fatalf("agg %d: fused err %v, materializing err %v", i, fusedErrs[i], matErrs[i])
		}
	}
	if matErrs[1] == nil || !errors.Is(matErrs[1], ErrBudgetExceeded) {
		t.Fatalf("scenario broken: second aggregation should refuse, got %v", matErrs[1])
	}
	if matSpent != fusedSpent {
		t.Fatalf("final ledger differs: fused %v, materializing %v", fusedSpent, matSpent)
	}
	if matSpent != 1.0 {
		t.Fatalf("scenario broken: want budget exactly exhausted, spent %v", matSpent)
	}
}

// TestInvalidParams: parameter validation happens before the charge,
// on either handle.
func TestInvalidParams(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	flows := randomFlows(rng, 100)
	q, root := NewQueryable(flows, 10, noise.NewSeededSource(1, 2))
	one := func(flowRec) float64 { return 1 }

	for name, h := range map[string]Streamer[flowRec]{"queryable": q, "stream": q.Stream().Where(lenDiv3)} {
		cases := []struct {
			name string
			run  func() error
		}{
			{"count/eps<0", func() error { _, err := h.Stream().NoisyCount(-1); return err }},
			{"count/eps=0", func() error { _, err := h.Stream().NoisyCount(0); return err }},
			{"countint/eps=NaN", func() error { _, err := h.Stream().NoisyCountInt(math.NaN()); return err }},
			{"sum/bound<0", func() error { _, err := NoisySumScaled(h, 0.5, -2, one); return err }},
			{"average/bound=Inf", func() error { _, err := NoisyAverageScaled(h, 0.5, math.Inf(1), one); return err }},
			{"median/eps=Inf", func() error { _, err := NoisyMedian(h, math.Inf(1), 0, 1, rankLen); return err }},
			{"median/lo>hi", func() error { _, err := NoisyMedian(h, 0.5, 1, 0, rankLen); return err }},
			{"orderstat/fraction<0", func() error { _, err := NoisyOrderStatistic(h, 0.5, -0.1, 0, 1, rankLen); return err }},
			{"quantile/fraction>1", func() error { _, err := NoisyQuantile(h, 0.5, 1.5, 0, one); return err }},
			{"quantile/sketcheps>=1", func() error { _, err := NoisyQuantile(h, 0.5, 0.5, 1.5, one); return err }},
			{"distinct/eps<0", func() error { _, err := NoisyDistinctSketch(h, -3, portKey); return err }},
		}
		for _, c := range cases {
			if err := c.run(); !errors.Is(err, ErrInvalidEpsilon) {
				t.Errorf("%s %s: want ErrInvalidEpsilon, got %v", name, c.name, err)
			}
		}
	}
	if spent := root.Spent(); spent != 0 {
		t.Fatalf("invalid-parameter aggregations charged ε=%v, want 0", spent)
	}
}

// TestFusedPanicContained: a panicking stage surfaces as ErrInternal
// with the charge standing — the conservative divergence documented in
// stream.go (a lazy stage runs post-Apply) — while the eager spelling
// panics out of the transformation before any charge.
func TestFusedPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	flows := randomFlows(rng, 100)
	bug := func(f flowRec) bool { panic("analyst bug") }

	q, root := NewQueryable(flows, 10, noise.NewSeededSource(1, 2))
	_, err := q.Stream().Where(bug).NoisyCount(0.5)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	if spent := root.Spent(); spent != 0.5 {
		t.Fatalf("post-Apply panic should leave the charge standing: spent %v, want 0.5", spent)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("eager Where swallowed the predicate's panic")
			}
		}()
		q.Where(bug)
	}()
	if spent := root.Spent(); spent != 0.5 {
		t.Fatalf("eager panic charged: spent %v, want 0.5", spent)
	}
}

// TestFusedProfile: on a recorded pipeline every fused stage appears
// in the profile, in pipeline order, tagged with the fused strategy
// and zero duration, with correct record counts — through a
// type-changing Select; the pass's wall time lands on the aggregation
// row.
func TestFusedProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	flows := randomFlows(rng, 1000)
	pr := obs.NewProfileRecorder(nil)
	q, _ := NewQueryable(flows, 10, noise.NewSeededSource(1, 2))
	s := q.WithRecorder(pr).Stream().Where(func(f flowRec) bool { return f.Len%2 == 0 })
	m := StreamSelect(s, func(f flowRec) int { return f.Len })
	if _, err := NoisySum(m, 0.5, func(v int) float64 { return float64(v) / 1500 }); err != nil {
		t.Fatal(err)
	}

	want := 0
	for _, f := range flows {
		if f.Len%2 == 0 {
			want++
		}
	}
	p := pr.Profile()
	wantOps := []obs.ProfileOp{
		{Op: "where", Strategy: obs.StrategyFused, RecordsIn: float64(len(flows)), RecordsOut: float64(want)},
		{Op: "select", Strategy: obs.StrategyFused, RecordsIn: float64(want), RecordsOut: float64(want)},
	}
	if !reflect.DeepEqual(p.Ops, wantOps) {
		t.Fatalf("fused op rows:\n got %+v\nwant %+v", p.Ops, wantOps)
	}
	if got := p.FusedOps(); got != 2 {
		t.Fatalf("FusedOps() = %d, want 2", got)
	}
	if len(p.Aggs) != 1 || p.Aggs[0].Agg != "sum" || p.Aggs[0].Outcome != obs.OutcomeOK {
		t.Fatalf("aggregation row: %+v", p.Aggs)
	}
}

// TestMaterializeProfile: Materialize has no aggregation row to carry
// the pass's wall time, so its last stage does, tagged with the real
// strategy — which makes an eager operator's row say what it cost.
func TestMaterializeProfile(t *testing.T) {
	flows := randomFlows(rand.New(rand.NewSource(67)), 4000)
	for _, workers := range []int{1, 4} {
		rec := &captureRecorder{}
		q, _ := NewQueryable(flows, 10, noise.NewSeededSource(1, 2))
		q = q.WithRecorder(rec).WithExecOptions(parExec(workers))
		StreamSelect(q.Stream().Where(lenDiv3), double).Materialize()
		q.Where(lenDiv3)

		wantTag := 0
		if workers > 1 {
			wantTag = workers
		}
		if len(rec.ops) != 3 {
			t.Fatalf("workers=%d: ops %+v, want where, select, where", workers, rec.ops)
		}
		if r := rec.ops[0]; r.op != "where" || r.workers != obs.FusedWorkers || r.d != 0 {
			t.Errorf("workers=%d: inner stage row %+v, want fused with zero duration", workers, r)
		}
		for _, r := range rec.ops[1:] {
			if r.workers != wantTag || r.d <= 0 {
				t.Errorf("workers=%d: materializing stage row %+v, want workers tag %d and a duration", workers, r, wantTag)
			}
		}
	}
}

// TestWhereNilPassesEverything: a nil predicate is the filter that
// rejects nothing — same records, same row — on either handle.
func TestWhereNilPassesEverything(t *testing.T) {
	flows := randomFlows(rand.New(rand.NewSource(68)), 3*chunkSize+5)
	rec := &captureRecorder{}
	q, _ := NewQueryable(flows, 10, noise.NewSeededSource(1, 2))
	q = q.WithRecorder(rec)
	if got := q.Where(nil).records; !sameRecords(got, flows) {
		t.Fatalf("eager Where(nil) kept %d of %d records", len(got), len(flows))
	}
	if _, err := q.Stream().Where(nil).Where(lenDiv3).NoisyCount(0.5); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if r := rec.ops[i]; r.op != "where" || r.in != len(flows) || r.out != len(flows) {
			t.Fatalf("Where(nil) row %d = %+v, want where %d→%d", i, r, len(flows), len(flows))
		}
	}
}

// TestStreamMaterialize: the result continues into unfused operators
// (GroupBy) with the stream's agent and source.
func TestStreamMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	flows := randomFlows(rng, 2000)
	lowPort := func(f flowRec) bool { return f.Port < 10 }
	port := func(f flowRec) uint16 { return f.Port }

	q, root := NewQueryable(flows, 10, noise.NewSeededSource(9, 9))
	v1, err1 := GroupBy(q.Where(lowPort), port).NoisyCount(0.5)

	q2, root2 := NewQueryable(flows, 10, noise.NewSeededSource(9, 9))
	v2, err2 := GroupBy(q2.Stream().Where(lowPort).Materialize(), port).NoisyCount(0.5)

	if math.Float64bits(v1) != math.Float64bits(v2) || err1 != nil || err2 != nil {
		t.Fatalf("GroupBy after Materialize: (%v, %v) vs (%v, %v)", v2, err2, v1, err1)
	}
	if root.Spent() != 1.0 || root2.Spent() != 1.0 {
		t.Fatalf("charges: %v and %v, want 1.0 (GroupBy doubles ε)", root2.Spent(), root.Spent())
	}
}

// TestStreamValueSemantics: deriving two pipelines from one base
// stream must not cross-contaminate, even consumed concurrently —
// streams are values, and stage state is per scan.
func TestStreamValueSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	flows := randomFlows(rng, 5000)
	q, _ := NewQueryable(flows, 100, noise.NewSeededSource(4, 4))
	base := q.Stream().Where(longer)

	a := base.Where(evenPort)
	b := base.Where(func(f flowRec) bool { return f.Port%2 == 1 })

	var na, nb, nbase int
	runWorkers(3, func(i int) {
		switch i {
		case 0:
			na = len(a.Materialize().records)
		case 1:
			nb = len(b.Materialize().records)
		case 2:
			nbase = len(base.Materialize().records)
		}
	})
	wantA, wantB := 0, 0
	for _, f := range flows {
		if longer(f) {
			if evenPort(f) {
				wantA++
			} else {
				wantB++
			}
		}
	}
	if na != wantA || nb != wantB || nbase != wantA+wantB {
		t.Fatalf("sibling pipelines interfered: a=%d (want %d), b=%d (want %d), base=%d", na, wantA, nb, wantB, nbase)
	}
}
