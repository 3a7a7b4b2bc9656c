package core

import (
	"math"
	"runtime"
	"testing"

	"dptrace/internal/noise"
)

// Allocation guards for the chunk loop. What the design guarantees is
// that a scan's heap use does not depend on the record count: building
// a stage allocates a constant handful of small objects, and running
// the pipeline allocates one scratch buffer per stage plus one sink —
// sized by chunkSize, never by n. These tests pin that by running the
// same pipeline at two sizes 64× apart and requiring identical
// allocation counts and byte totals, within a budget of one chunk-sized
// buffer per stage, so a regression (a stage materializing, a sink
// buffering its input) fails the gate rather than silently eating the
// win.
//
// The guards skip under -race (the detector's instrumentation inflates
// allocation counts); check.sh runs them in a dedicated non-race
// invocation.

var allocSizes = [2]int{4 * chunkSize, 256 * chunkSize}

func allocQueryable(tb testing.TB, n int) *Queryable[int] {
	tb.Helper()
	records := make([]int, n)
	for i := range records {
		records[i] = i
	}
	q, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(1, 2))
	// Unrecorded regardless of any process-wide default recorder another
	// test may have installed, and on one worker: the budgets below are
	// one scan's, not one per worker.
	return q.WithRecorder(nil).WithExecOptions(ExecOptions{})
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race; check.sh runs this guard without it")
	}
}

// measure reports fn's allocations and bytes per run: the least of
// three measurements, since anything the runtime allocates on the side
// while one runs can only add.
func measure(fn func()) (allocs, bytes float64) {
	const runs = 20
	fn() // warm up
	allocs, bytes = math.Inf(1), math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, math.Round(float64(after.Mallocs-before.Mallocs)/runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// scanIsConstant runs pipeline at both sizes and requires the same
// allocations, within maxBytes per run.
func scanIsConstant(t *testing.T, name string, maxBytes float64, pipeline func(q *Queryable[int])) {
	t.Helper()
	skipUnderRace(t)
	var allocs, bytes [2]float64
	for i, n := range allocSizes {
		q := allocQueryable(t, n)
		allocs[i], bytes[i] = measure(func() { pipeline(q) })
	}
	if allocs[0] != allocs[1] || math.Abs(bytes[0]-bytes[1]) > slack {
		t.Fatalf("%s: %.0f allocs / %.0f B at n=%d but %.0f allocs / %.0f B at n=%d: the scan's heap use depends on the record count",
			name, allocs[0], bytes[0], allocSizes[0], allocs[1], bytes[1], allocSizes[1])
	}
	if bytes[0] > maxBytes+slack {
		t.Fatalf("%s: %.0f B per run, budget %.0f", name, bytes[0], maxBytes)
	}
}

// chunkBytes is one scratch buffer of 8-byte records; overhead covers
// the small fixed objects (stage and sink structs, closures, counters).
// slack absorbs the few hundred bytes the runtime itself may allocate
// while a measurement runs.
const (
	chunkBytes = chunkSize * 8
	overhead   = 2048
	slack      = 512
)

func TestAllocFusedWhereSelectSum(t *testing.T) {
	scanIsConstant(t, "fused Where→Select→Sum", 2*chunkBytes+overhead, func(q *Queryable[int]) {
		s := q.Stream().Where(func(x int) bool { return x%2 == 0 })
		m := StreamSelect(s, func(x int) float64 { return float64(x) })
		if _, err := NoisySum(m, 1.0, func(v float64) float64 { return v }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocFusedWhereCount(t *testing.T) {
	scanIsConstant(t, "fused Where→Count", chunkBytes+overhead, func(q *Queryable[int]) {
		if _, err := q.Stream().Where(func(x int) bool { return x%2 == 0 }).NoisyCount(1.0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocFusedSelectManyWhereCount(t *testing.T) {
	// The flattening stage's buffer grows, in a few steps, to two records per input
	// record, and so does the filter's behind it.
	var pair [2]int // the engine copies f's result before calling f again
	scanIsConstant(t, "fused SelectMany→Where→Count", 10*chunkBytes+overhead, func(q *Queryable[int]) {
		m := StreamSelectMany(q.Stream(), 2, func(x int) []int { pair = [2]int{x, -x}; return pair[:] })
		if _, err := m.Where(func(x int) bool { return x > 0 }).NoisyCount(1.0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBareAggregations: on a bare source a count allocates
// nothing at all, and a sum only its sink and the scan's bookkeeping.
func TestAllocBareAggregations(t *testing.T) {
	scanIsConstant(t, "bare Count", 0, func(q *Queryable[int]) {
		if _, err := q.NoisyCount(1.0); err != nil {
			t.Fatal(err)
		}
	})
	scanIsConstant(t, "bare Sum", overhead, func(q *Queryable[int]) {
		if _, err := NoisySum(q, 1.0, func(x int) float64 { return float64(x & 1) }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocEagerWhere: an eager transformation allocates its output —
// pre-sized to the source, as it always has been — and, beyond that,
// the same constant handful: the last stage builds its chunks straight
// in the output, so there is no scratch buffer and no second copy.
func TestAllocEagerWhere(t *testing.T) {
	skipUnderRace(t)
	var extra [2]float64
	for i, n := range allocSizes {
		q := allocQueryable(t, n)
		_, bytes := measure(func() { _ = q.Where(func(x int) bool { return x%2 == 0 }) })
		extra[i] = bytes - float64(n*8)
	}
	if math.Abs(extra[0]-extra[1]) > slack || extra[0] > overhead {
		t.Fatalf("eager Where allocates %.0f B beyond its output at n=%d and %.0f B at n=%d, want equal and ≤ %d",
			extra[0], allocSizes[0], extra[1], allocSizes[1], overhead)
	}
}

// TestAllocGroupFold: folding by key holds one accumulator per key and
// nothing per record, so over a fixed key set its heap use is the same
// at any record count.
func TestAllocGroupFold(t *testing.T) {
	scanIsConstant(t, "GroupFold over 64 keys", 16<<10, func(q *Queryable[int]) {
		_ = GroupFold(q, func(x int) int { return x % 64 }, func(sum, x int) int { return sum + x }, func(a, b int) int { return a + b })
	})
}

// TestAllocPartitionCounts: Partition followed by a NoisyCount of every
// part — a CDF — allocates the index pass's 4 bytes per record plus a
// handful of small objects per key, and no arena (8 more bytes per
// record here): counting the parts copies no record.
func TestAllocPartitionCounts(t *testing.T) {
	skipUnderRace(t)
	keys := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, n := range allocSizes {
		q := allocQueryable(t, n)
		_, bytes := measure(func() {
			for _, p := range Partition(q, keys, func(x int) int { return x % 16 }) {
				if _, err := p.NoisyCount(1.0); err != nil {
					t.Fatal(err)
				}
			}
		})
		if perKey := (bytes - float64(4*n)) / float64(len(keys)); perKey > 512 {
			t.Fatalf("Partition + a count per part allocates %.0f B at n=%d: %.0f B per key beyond 4 B per record, want ≤ 512", bytes, n, perKey)
		}
	}
}
