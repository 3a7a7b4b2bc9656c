package sketch

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"
)

// FuzzQuantileMerge throws arbitrary byte-derived value streams at
// the quantile summary: whatever the split, inserts must never
// panic, Merge must stay commutative, rank bounds must stay valid,
// and the query error must respect ε·n. check.sh runs this as a
// short smoke (same pattern as FuzzLedgerDecode).
func FuzzQuantileMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		var values []float64
		for i := 0; i+8 <= len(raw) && len(values) < 4096; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i : i+8]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			values = append(values, v)
		}
		const eps = 0.05
		cut := 0
		if len(values) > 0 {
			cut = int(split) % (len(values) + 1)
		}
		a1, b1 := NewQuantile(eps), NewQuantile(eps)
		a2, b2 := NewQuantile(eps), NewQuantile(eps)
		for _, v := range values[:cut] {
			a1.Insert(v)
			a2.Insert(v)
		}
		for _, v := range values[cut:] {
			b1.Insert(v)
			b2.Insert(v)
		}
		a1.Merge(b1)
		b2.Merge(a2)
		if a1.Count() != len(values) || b2.Count() != len(values) {
			t.Fatalf("counts: %d / %d, want %d", a1.Count(), b2.Count(), len(values))
		}
		if !reflect.DeepEqual(a1.Tuples(), b2.Tuples()) {
			t.Fatal("merge not commutative")
		}
		if len(values) == 0 {
			return
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		n := float64(len(values))
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			got := a1.Query(frac)
			if err := rankError(sorted, got, frac*n); err > eps*n+2 {
				t.Fatalf("f=%.2f: rank error %.1f > %.1f (n=%d)", frac, err, eps*n, len(values))
			}
		}
	})
}

// FuzzQuantileMatchesReference runs one program of inserts, runs and
// merges over three summaries and their twins in quantile_ref_test.go
// (the summary before the linear merge and the reused buffers), and
// requires bit-equal tuple lists and counts after every step: the
// cursor walk must land where sort.Search did, and a reused buffer must
// never alias a live list. Values include ±0, ±Inf, NaN (which only
// the production summary sees: it drops it), duplicates and runs of a
// buffer's length ±1; ε decides the buffer. check.sh runs this as a
// short smoke.
func FuzzQuantileMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 9, 5, 2, 0, 1, 3, 0}, uint8(20))
	f.Add([]byte{1, 200, 1, 1, 7, 129, 2, 1, 2, 1, 1, 3, 1, 2, 0, 3}, uint8(3))
	f.Add([]byte{0, 4, 0, 0, 0, 3, 1, 0, 1, 2, 0, 0, 2, 2, 3, 2}, uint8(255))
	f.Fuzz(func(t *testing.T, prog []byte, epsByte uint8) {
		eps := (float64(epsByte) + 1) / 257
		var qs [3]*Quantile
		var refs [3]*refQuantile
		for i := range qs {
			qs[i], refs[i] = NewQuantile(eps), newRefQuantile(eps)
		}
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			1, -1, 1500, math.SmallestNonzeroFloat64, math.MaxFloat64}
		value := func() float64 {
			switch b := next(); {
			case int(b) < len(special):
				return special[b]
			case b < 128:
				return float64(b % 16) // duplicates
			default:
				var raw [8]byte
				for i := range raw {
					raw[i] = next()
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
		}
		insert := func(s int, v float64) {
			qs[s].Insert(v)
			if !math.IsNaN(v) {
				refs[s].Insert(v)
			}
		}
		for step, inserted := 0, 0; len(prog) > 0 && step < 512 && inserted < 1<<16; step++ {
			op, s := next(), int(next()%3)
			switch op % 4 {
			case 0:
				insert(s, value())
				inserted++
			case 1: // a run of one value: a buffer's length ±1, or short
				k := int(next())>>2 + 1
				if r := int(op>>2) & 3; r != 0 {
					k = qs[s].bufCap + r - 2
				}
				v := value()
				for range k {
					insert(s, v)
				}
				inserted += k
			case 2: // merge another summary (or s itself) into s
				o := int(next() % 3)
				qs[s].Merge(qs[o])
				refs[s].Merge(refs[o])
			case 3:
				qs[s].Tuples()
				refs[s].Tuples()
			}
			for i := range qs {
				if qs[i].Count() != refs[i].Count() || !sameTuples(qs[i].tuples, refs[i].tuples) {
					t.Fatalf("step %d (op %d): summary %d holds %d values %v, the reference %d values %v",
						step, op%4, i, qs[i].Count(), qs[i].tuples, refs[i].Count(), refs[i].tuples)
				}
			}
		}
		for i := range qs {
			if got, want := qs[i].Tuples(), refs[i].Tuples(); !sameTuples(got, want) {
				t.Fatalf("summary %d: flushed tuples %v, the reference %v", i, got, want)
			}
		}
	})
}

// sameTuples compares tuple lists bit for bit: -0 is not 0.
func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) || x.RMin != y.RMin || x.RMax != y.RMax || x.Dups != y.Dups {
			return false
		}
	}
	return true
}

// FuzzCountMinMerge checks the frequency sketch on arbitrary key
// streams: no panics, estimates never undercount, and shard merges
// equal the whole-stream sketch exactly.
func FuzzCountMinMerge(f *testing.F) {
	f.Add([]byte("abc def abc"), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		var keys []string
		for i := 0; i+2 <= len(raw) && len(keys) < 2048; i += 2 {
			keys = append(keys, string(raw[i:i+2]))
		}
		whole := NewCountMin(64, 3)
		truth := map[string]uint64{}
		for _, k := range keys {
			whole.Add(k)
			truth[k]++
		}
		cut := 0
		if len(keys) > 0 {
			cut = int(split) % (len(keys) + 1)
		}
		merged := NewCountMin(64, 3)
		part := NewCountMin(64, 3)
		for _, k := range keys[:cut] {
			merged.Add(k)
		}
		for _, k := range keys[cut:] {
			part.Add(k)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(whole.rows, merged.rows) {
			t.Fatal("shard merge differs from whole-stream sketch")
		}
		d := NewDistinct(6)
		for k, want := range truth {
			if got := whole.Estimate(k); got < want {
				t.Fatalf("Estimate(%q) = %d undercounts %d", k, got, want)
			}
			d.Add(k)
		}
		if len(truth) > 0 && d.Estimate() <= 0 {
			t.Fatal("distinct estimate not positive")
		}
	})
}
