package sketch

import (
	"fmt"
	"math"
	"sort"
)

// refQuantile is the Quantile summary as it was before the linear merge
// and the reused buffers: flush, Merge, rankBoundsAt (with its
// sort.Search), mergeTuples and compact kept verbatim apart from their
// names. FuzzQuantileMatchesReference holds the production summary to
// it bit for bit. It is given no NaN: its flush loop never advances on
// one (Quantile.Insert drops NaN before it reaches the buffer). Its
// Insert stores −0 as +0, as Quantile.Insert does: otherwise the sort
// leaves whichever zero comes first in a run of mixed zeros.
type refQuantile struct {
	eps    float64
	n      int
	tuples []Tuple   // sorted by Value, strictly increasing
	buf    []float64 // pending inserts, compacted at bufCap
}

func newRefQuantile(eps float64) *refQuantile {
	if !(eps > 0 && eps < 1) || math.IsNaN(eps) {
		panic(fmt.Sprintf("sketch: quantile eps must be in (0,1), got %v", eps))
	}
	return &refQuantile{eps: eps}
}

func (q *refQuantile) Count() int { return q.n + len(q.buf) }

func (q *refQuantile) bufCap() int {
	c := int(2 / q.eps)
	if c < 64 {
		c = 64
	}
	if c > 1<<14 {
		c = 1 << 14
	}
	return c
}

func (q *refQuantile) Insert(v float64) {
	if v == 0 {
		v = 0
	}
	q.buf = append(q.buf, v)
	if len(q.buf) >= q.bufCap() {
		q.flush()
	}
}

func (q *refQuantile) flush() {
	if len(q.buf) == 0 {
		return
	}
	sort.Float64s(q.buf)
	exact := make([]Tuple, 0, len(q.buf))
	for i := 0; i < len(q.buf); {
		j := i
		for j < len(q.buf) && q.buf[j] == q.buf[i] {
			j++
		}
		exact = append(exact, Tuple{Value: q.buf[i], RMin: j, RMax: j, Dups: j - i})
		i = j
	}
	q.tuples = refMergeTuples(q.tuples, q.n, exact, len(q.buf))
	q.n += len(q.buf)
	q.buf = q.buf[:0]
	q.compact()
}

func (q *refQuantile) Merge(other *refQuantile) {
	q.flush()
	other.flush()
	q.tuples = refMergeTuples(q.tuples, q.n, other.tuples, other.n)
	q.n += other.n
	q.compact()
}

func refRankBoundsAt(tuples []Tuple, n int, v float64) (lo, hi int) {
	if len(tuples) == 0 {
		return 0, n
	}
	if v < tuples[0].Value {
		return 0, 0
	}
	if v > tuples[len(tuples)-1].Value {
		return n, n
	}
	i := sort.Search(len(tuples), func(i int) bool { return tuples[i].Value > v })
	if i > 0 {
		lo = tuples[i-1].RMin
		if tuples[i-1].Value == v {
			return lo, tuples[i-1].RMax
		}
	}
	if i < len(tuples) {
		d := tuples[i].Dups
		if d < 1 {
			d = 1
		}
		hi = tuples[i].RMax - d
		if hi < lo {
			hi = lo
		}
		return lo, hi
	}
	return lo, n
}

func refMergeTuples(a []Tuple, na int, b []Tuple, nb int) []Tuple {
	if len(a) == 0 {
		return append([]Tuple(nil), b...)
	}
	if len(b) == 0 {
		return append([]Tuple(nil), a...)
	}
	out := make([]Tuple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v float64
		switch {
		case i >= len(a):
			v = b[j].Value
		case j >= len(b):
			v = a[i].Value
		case a[i].Value <= b[j].Value:
			v = a[i].Value
		default:
			v = b[j].Value
		}
		aLo, aHi := refRankBoundsAt(a, na, v)
		bLo, bHi := refRankBoundsAt(b, nb, v)
		dups := 0
		for i < len(a) && a[i].Value == v {
			dups += a[i].Dups
			i++
		}
		for j < len(b) && b[j].Value == v {
			dups += b[j].Dups
			j++
		}
		out = append(out, Tuple{Value: v, RMin: aLo + bLo, RMax: aHi + bHi, Dups: dups})
	}
	return out
}

func (q *refQuantile) compact() {
	if len(q.tuples) <= 2 {
		return
	}
	stride := int(q.eps * float64(q.n) / 2)
	if stride < 1 {
		return
	}
	out := q.tuples[:1]
	last := q.tuples[0]
	for i := 1; i < len(q.tuples)-1; i++ {
		if q.tuples[i+1].RMax-last.RMin > stride {
			out = append(out, q.tuples[i])
			last = q.tuples[i]
		}
	}
	out = append(out, q.tuples[len(q.tuples)-1])
	q.tuples = out
}

func (q *refQuantile) Tuples() []Tuple {
	q.flush()
	return q.tuples
}
