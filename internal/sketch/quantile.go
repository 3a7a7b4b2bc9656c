package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
)

// Tuple is one retained value of a Quantile summary together with
// inclusive bounds on its rank: RMin ≤ #{inserted x : x ≤ Value} ≤
// RMax. Exactly-built summaries have RMin == RMax; merging widens the
// interval by at most the partner summary's local coverage gap.
type Tuple struct {
	Value      float64
	RMin, RMax int
	// Dups is a lower bound on the number of inserted values equal to
	// Value (a value re-inserted after compaction dropped its tuple
	// loses the dropped copies from the bound). It lets rankBoundsAt
	// subtract the whole duplicate run — not just one element — when
	// bounding a v just below Value, which keeps merges of summaries
	// with heavy duplicates near-exact: without it, a value slightly
	// below a duplicate run inherits the run's full rank span as
	// upper-bound slack and Query can prefer it for ranks it cannot
	// realize.
	Dups int
}

// Quantile is a mergeable rank summary in the Greenwald–Khanna /
// mergeable-summaries family. It retains O(1/ε) tuples with explicit
// rank intervals and guarantees that Query(φ) returns a value whose
// true rank is within ε·n of φ·n.
//
// The design choice — explicit RMin/RMax bounds instead of GK's
// (g, Δ) deltas — is what makes Merge exact and commutative: merged
// bounds are symmetric sums of the two inputs' bounds, and the
// compaction that follows depends only on the merged tuple list and
// total count. Build the same data through any composition of
// same-shape blocks and the bytes come out identical, which is the
// property the engine's parallel == sequential pinning rests on.
//
// Not safe for concurrent use.
type Quantile struct {
	eps    float64
	n      int
	bufCap int       // pending inserts flushed at this many (see NewQuantile)
	tuples []Tuple   // sorted by Value, strictly increasing
	spare  []Tuple   // the previous tuple list: the next merge writes here
	exact  []Tuple   // flush's exact summary of the buffer
	buf    []float64 // pending inserts
}

// countTable counts a flush's values by order key in an open-addressing
// table, probed linearly at a load of at most ½: slot i holds key
// keys[i] with count counts[i], and is empty while counts[i] is 0. The
// flush lists the slots it fills in used and empties only those, so
// every count is 0 between flushes. The hash is seeded per table, as
// core's keyIndex is, so no crafted batch can force long probe runs; it
// decides no output.
type countTable struct {
	keys       []uint64
	counts     []int32
	used       []int    // the slots filled this flush, first filled first
	sorted     []uint64 // the keys of used, sorted
	seed, mult uint64   // mult is odd
	shift      uint8    // 64 − log2(len(keys))
}

// countTables holds idle count tables, free[b] those of 2^b slots. A
// flush borrows one and returns it all zero, so the many block summaries
// of one query share a few tables instead of each making its own. A
// table is kept once made: there are at most as many as flushes that
// have run at once. (A sync.Pool would drop tables at each GC, and at
// random under the race detector, so a summary would allocate per
// flush.) A flush has at most bufCap ≤ 2^14 distinct keys, so b ≤ 15.
var countTables struct {
	sync.Mutex
	free [16][]*countTable
}

// borrowCountTable returns an all-zero table of 2^b slots.
func borrowCountTable(b int) *countTable {
	countTables.Lock()
	free := countTables.free[b]
	if len(free) == 0 {
		countTables.Unlock()
		return newCountTable(b)
	}
	t := free[len(free)-1]
	countTables.free[b] = free[:len(free)-1]
	countTables.Unlock()
	return t
}

// returnCountTable gives back a table borrowed for 2^b slots.
func returnCountTable(b int, t *countTable) {
	countTables.Lock()
	countTables.free[b] = append(countTables.free[b], t)
	countTables.Unlock()
}

// newCountTable returns an empty table of 2^b slots, room for 2^(b−1)
// distinct keys.
func newCountTable(b int) *countTable {
	return &countTable{
		keys:   make([]uint64, 1<<b),
		counts: make([]int32, 1<<b),
		used:   make([]int, 0, 1<<(b-1)),
		sorted: make([]uint64, 0, 1<<(b-1)),
		seed:   rand.Uint64(),
		mult:   rand.Uint64() | 1,
		shift:  uint8(64 - b),
	}
}

// NewQuantile returns an empty summary targeting rank error ε·n,
// 0 < ε < 1. Memory is O(1/ε) tuples.
//
// The pending-insert buffer holds 2/ε values, within [64, 2^14]: small
// enough to bound transient memory, large enough that compaction cost
// amortizes. It is a pure function of ε, so identical insert sequences
// compact at identical points — part of the determinism contract.
func NewQuantile(eps float64) *Quantile {
	if !(eps > 0 && eps < 1) || math.IsNaN(eps) {
		panic(fmt.Sprintf("sketch: quantile eps must be in (0,1), got %v", eps))
	}
	return &Quantile{eps: eps, bufCap: min(max(int(2/eps), 64), 1<<14)}
}

// Eps returns the summary's rank-error target.
func (q *Quantile) Eps() float64 { return q.eps }

// Count returns the number of values inserted (including merged-in
// summaries' counts).
func (q *Quantile) Count() int { return q.n + len(q.buf) }

// Insert adds one value to the summary. NaN has no rank, so Insert
// drops it uncounted — what a Where dropping NaN in front of the
// summary would do, at the same stability 1. −0 is stored as +0: the
// two compare equal, so they are one value with one rank.
func (q *Quantile) Insert(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v == 0 {
		v = 0
	}
	q.buf = append(q.buf, v)
	if len(q.buf) >= q.bufCap {
		q.flush()
	}
}

// flush folds the pending buffer into the tuple list: summarize it
// exactly, merge, compact. The buffer is counted by order key in a
// borrowed table, and only its distinct keys are sorted. A buffer holds
// few distinct values on real data (packet lengths), so that sort is
// short.
func (q *Quantile) flush() {
	if len(q.buf) == 0 {
		return
	}
	b := bits.Len(uint(2*q.bufCap - 1))
	t := borrowCountTable(b)
	q.exact = t.summarize(q.exact[:0], q.buf)
	returnCountTable(b, t)
	q.fold(q.exact, len(q.buf))
	q.buf = q.buf[:0]
}

// summarize appends buf's exact summary to out: each distinct value in
// increasing order, with its count and the count of values at or below
// it. It leaves the table all zero.
func (t *countTable) summarize(out []Tuple, buf []float64) []Tuple {
	for _, v := range buf {
		k := orderKey(v)
		i := t.probe(k)
		if t.counts[i] == 0 {
			t.keys[i] = k
			t.used = append(t.used, i)
			t.sorted = append(t.sorted, k)
		}
		t.counts[i]++
	}
	slices.Sort(t.sorted)
	cum := 0
	for _, k := range t.sorted {
		c := int(t.counts[t.probe(k)])
		cum += c
		out = append(out, Tuple{Value: keyValue(k), RMin: cum, RMax: cum, Dups: c})
	}
	for _, i := range t.used {
		t.counts[i] = 0
	}
	t.used, t.sorted = t.used[:0], t.sorted[:0]
	return out
}

// orderKey maps a non-NaN float to a uint64 in the same order: a
// positive value's sign bit is set, a negative value's bits are all
// inverted. −0 and +0 get different keys, which is why Insert stores
// −0 as +0.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyValue inverts orderKey.
func keyValue(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// probe returns the slot holding k, or the empty slot that ends k's
// run. The home slot is multiply-shift under mult over the key xored
// with the seed through a fixed bijective mix, as in core's keyIndex:
// the mix breaks up arithmetic progressions of keys.
func (t *countTable) probe(k uint64) int {
	z := (k ^ t.seed) * 0xbf58476d1ce4e5b9
	i := int((z ^ z>>32) * t.mult >> t.shift)
	for t.counts[i] != 0 && t.keys[i] != k {
		i = (i + 1) & (len(t.keys) - 1)
	}
	return i
}

// Merge folds other into q. Both summaries' pending buffers are
// flushed first; other is unchanged apart from that flush. Merging is
// exact over the tracked bounds and commutative: Merge(a,b) and
// Merge(b,a) produce byte-identical summaries.
func (q *Quantile) Merge(other *Quantile) {
	q.flush()
	other.flush()
	q.fold(other.tuples, other.n)
}

// fold merges b, a summary of nb values, into the tuple list and
// compacts. The merge writes into the spare list, and the list it
// replaces becomes the next spare, so a summary allocates only while
// its lists grow.
func (q *Quantile) fold(b []Tuple, nb int) {
	q.tuples, q.spare = mergeTuples(q.spare[:0], q.tuples, q.n, b, nb), q.tuples
	q.n += nb
	q.compact()
}

// rankBoundsAt reports the summary's bounds on #{x ≤ v} for an
// arbitrary v, from the nearest retained tuples of a non-empty list; i
// is the index of the first tuple with Value > v (len(tuples) if none).
func rankBoundsAt(tuples []Tuple, n int, v float64, i int) (lo, hi int) {
	// The first and last tuples are always retained (flush summarizes
	// exactly and compact keeps both anchors), so they pin the true
	// extremes: below the minimum nothing is ≤ v, above the maximum
	// everything is. Without these anchors a merge inflates RMax for
	// values below the partner summary's minimum, and Query can then
	// prefer a near-minimum value for a high-rank target.
	if i == 0 {
		return 0, 0
	}
	// The largest tuple value ≤ v gives the lower bound, and the upper
	// too when it is v itself.
	prev := tuples[i-1]
	if prev.Value == v {
		return prev.RMin, prev.RMax
	}
	if i == len(tuples) {
		return n, n
	}
	// tuples[i].Value > v, and at least Dups elements of that value sit
	// above v, so all of them come off its RMax.
	return prev.RMin, max(tuples[i].RMax-max(tuples[i].Dups, 1), prev.RMin)
}

// mergeTuples appends to out the summary of the union of two tuple
// lists over disjoint multisets: the value set is the (deduplicated)
// union, and each bound is the symmetric sum of the two inputs' bounds
// at that value. One walk, O(|a|+|b|): once past a tuple equal to v,
// each list's cursor is its first tuple above v, since every tuple
// behind it is below v and the lists are strictly increasing.
func mergeTuples(out, a []Tuple, na int, b []Tuple, nb int) []Tuple {
	if len(a) == 0 {
		return append(out, b...)
	}
	if len(b) == 0 {
		return append(out, a...)
	}
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
		// The streams are disjoint, so duplicate counts add (a side
		// without a tuple at v contributes none it can prove).
		dups := 0
		if i < len(a) && a[i].Value == v {
			dups += a[i].Dups
			i++
		}
		if j < len(b) && b[j].Value == v {
			dups += b[j].Dups
			j++
		}
		aLo, aHi := rankBoundsAt(a, na, v, i)
		bLo, bHi := rankBoundsAt(b, nb, v, j)
		out = append(out, Tuple{Value: v, RMin: aLo + bLo, RMax: aHi + bHi, Dups: dups})
	}
	return out
}

// compact prunes tuples while keeping the coverage invariant: after
// compaction, for any rank t there is a retained tuple whose interval
// midpoint is within ~ε·n/2 of t. First and last tuples are always
// kept (they anchor the extremes). Deterministic: decisions depend
// only on the tuple list and n.
func (q *Quantile) compact() {
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
		// Dropping tuple i leaves the gap last..tuples[i+1]; keep i
		// unless that gap stays within the stride.
		if q.tuples[i+1].RMax-last.RMin > stride {
			out = append(out, q.tuples[i])
			last = q.tuples[i]
		}
	}
	out = append(out, q.tuples[len(q.tuples)-1])
	q.tuples = out
}

// Query returns a value whose rank is within ε·n of fraction·n
// (fraction in [0, 1]; 0.5 is the median). An empty summary returns
// 0. Deterministic: ties break toward the lower value.
func (q *Quantile) Query(fraction float64) float64 {
	q.flush()
	if q.n == 0 || len(q.tuples) == 0 {
		return 0
	}
	t := fraction * float64(q.n)
	best, bestDist := 0, math.Inf(1)
	for i := range q.tuples {
		lo, hi := spanOf(q.tuples, i)
		d := distToSpan(t, lo, hi)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return q.tuples[best].Value
}

// spanOf returns the plausible rank span of tuple i: a value with
// many duplicates occupies every rank from just above its
// predecessor's count up to its own, so the span runs from the
// previous tuple's RMin to this tuple's RMax. This is what makes
// Query exact on heavy-duplicate data, where per-tuple uncertainty is
// zero but per-value rank ranges are wide.
func spanOf(tuples []Tuple, i int) (lo, hi float64) {
	if i > 0 {
		lo = float64(tuples[i-1].RMin)
	}
	return lo, float64(tuples[i].RMax)
}

// distToSpan is the distance from t to the interval [lo, hi].
func distToSpan(t, lo, hi float64) float64 {
	if t < lo {
		return lo - t
	}
	if t > hi {
		return t - hi
	}
	return 0
}

// Tuples returns the retained tuples (after flushing pending
// inserts). The DP layer uses them as the candidate set for the
// exponential mechanism. The slice is the summary's own and valid
// until the next Insert or Merge, which may overwrite it; mutating it
// corrupts the summary.
func (q *Quantile) Tuples() []Tuple {
	q.flush()
	return q.tuples
}
