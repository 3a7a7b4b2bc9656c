package core

import (
	"math"
	"runtime"
	"testing"

	"dptrace/internal/noise"
)

// Micro-benchmarks for the engine's operations, sized at 1M records to
// expose per-record costs and allocation behaviour (-benchmem). Every
// transformation benchmark has a one-worker and a parallel variant
// (suffix "Parallel", workers = GOMAXPROCS, threshold forced low), so
// `go test -bench . -cpu 1,4` reports the execution engine's scaling.
// `make bench` parses the output into BENCH_core.json for the perf
// trajectory across PRs.

const benchRecords = 1 << 20

func benchQueryable(b *testing.B) *Queryable[int] {
	b.Helper()
	records := make([]int, benchRecords)
	for i := range records {
		records[i] = i
	}
	q, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(1, 2))
	return q.WithExecOptions(ExecOptions{}) // the one-worker rows; benchParallel sets the others
}

// benchParallel configures q for parallel execution at the benchmark's
// GOMAXPROCS (so -cpu controls the worker count) with the size gate
// disabled.
func benchParallel(q *Queryable[int]) *Queryable[int] {
	return q.WithExecOptions(ExecOptions{Workers: runtime.GOMAXPROCS(0), Threshold: 1})
}

// reportRecords attaches the per-op record count so ns/op is
// convertible to records/s across benches with different input sizes.
func reportRecords(b *testing.B, n int) {
	b.ReportMetric(float64(n), "records/op")
}

func BenchmarkWhere1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Where(func(x int) bool { return x%2 == 0 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkWhere1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Where(func(x int) bool { return x%2 == 0 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkSelect1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Select(q, func(x int) int { return x * 2 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkSelect1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Select(q, func(x int) int { return x * 2 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkGroupBy1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GroupBy(q, func(x int) int { return x % 1024 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkGroupBy1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GroupBy(q, func(x int) int { return x % 1024 })
	}
	reportRecords(b, benchRecords)
}

// BenchmarkGroupFold1M is BenchmarkGroupBy1M's grouping with each group
// reduced in place: one accumulator per key, no index pass, no arena.
func BenchmarkGroupFold1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GroupFold(q, func(x int) int { return x % 1024 }, func(sum, x int) int { return sum + x }, nil)
	}
	reportRecords(b, benchRecords)
}

func BenchmarkGroupFold1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GroupFold(q, func(x int) int { return x % 1024 }, func(sum, x int) int { return sum + x }, func(a, b int) int { return a + b })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkDistinct1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Distinct(q, func(x int) int { return x % 4096 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkDistinct1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Distinct(q, func(x int) int { return x % 4096 })
	}
	reportRecords(b, benchRecords)
}

func benchPartitionKeys() []int {
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

func BenchmarkPartition1M(b *testing.B) {
	q := benchQueryable(b)
	keys := benchPartitionKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Partition(q, keys, func(x int) int { return x % 256 })
	}
	reportRecords(b, benchRecords)
}

func BenchmarkPartition1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	keys := benchPartitionKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Partition(q, keys, func(x int) int { return x % 256 })
	}
	reportRecords(b, benchRecords)
}

// BenchmarkPartitionCount1M is what a CDF does with a Partition: count
// every part, scan none. The parts know their sizes from the index pass,
// so no record is gathered. (BenchmarkPartition1M stops after the index
// pass too — nothing asks its parts for records.)
func BenchmarkPartitionCount1M(b *testing.B) {
	q := benchQueryable(b)
	keys := benchPartitionKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range Partition(q, keys, func(x int) int { return x % 256 }) {
			if _, err := p.NoisyCount(1.0); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkJoin1M(b *testing.B) {
	q := benchQueryable(b)
	other := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(q, other,
			func(x int) int { return x }, func(x int) int { return x },
			func(a, c int) int { return a + c })
	}
	reportRecords(b, 2*benchRecords)
}

func BenchmarkJoin1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	other := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(q, other,
			func(x int) int { return x }, func(x int) int { return x },
			func(a, c int) int { return a + c })
	}
	reportRecords(b, 2*benchRecords)
}

func BenchmarkNoisyCount(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.NoisyCount(1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoisySum1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisySum(q, 1.0, func(x int) float64 { return float64(x % 2) }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkNoisyMedian100k(b *testing.B) {
	records := make([]float64, 100_000)
	for i := range records {
		records[i] = float64(i)
	}
	q, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyMedian(q, 1.0, func(x float64) float64 { return x }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, 100_000)
}

// BenchmarkWhereSelectSum1M is the eager spelling the fused one is
// measured against: Where and Select each materialize a full
// intermediate slice before NoisySum scans the last one.
func BenchmarkWhereSelectSum1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := q.Where(func(x int) bool { return x%2 == 0 })
		m := Select(w, func(x int) float64 { return float64(x&1023) / 1024 })
		if _, err := NoisySum(m, 1.0, func(v float64) float64 { return v }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

// BenchmarkFusedWhereSelectSum1M is the same pipeline spelled lazily:
// one pass, two chunk-sized scratch buffers instead of two full
// slices (pinned by alloc_test.go). The roadmap's bar: this row is
// never slower than BenchmarkWhereSelectSum1M.
func BenchmarkFusedWhereSelectSum1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := q.Stream().Where(func(x int) bool { return x%2 == 0 })
		m := StreamSelect(s, func(x int) float64 { return float64(x&1023) / 1024 })
		if _, err := NoisySum(m, 1.0, func(v float64) float64 { return v }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

// benchPacket is a realistically-sized trace record (32 bytes), where
// skipped intermediate slices translate into real memory traffic.
type benchPacket struct {
	Src, Dst uint32
	Port     uint16
	Flags    uint16
	Len      uint32
	Ts       int64
	Seq      uint64
}

func benchPacketQueryable(b *testing.B) *Queryable[benchPacket] {
	b.Helper()
	records := make([]benchPacket, benchRecords)
	for i := range records {
		records[i] = benchPacket{
			Src:  uint32(i * 2654435761),
			Port: uint16(i % 1024),
			Len:  uint32(i % 1500),
		}
	}
	q, _ := NewQueryable(records, math.Inf(1), noise.NewSeededSource(1, 2))
	return q.WithExecOptions(ExecOptions{}) // one worker, like benchQueryable
}

func BenchmarkPacketWhereSelectSum1M(b *testing.B) {
	q := benchPacketQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := q.Where(func(p benchPacket) bool { return p.Port < 512 })
		m := Select(w, func(p benchPacket) float64 { return float64(p.Len) / 1500 })
		if _, err := NoisySum(m, 1.0, func(v float64) float64 { return v }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkPacketFusedWhereSelectSum1M(b *testing.B) {
	q := benchPacketQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := q.Stream().Where(func(p benchPacket) bool { return p.Port < 512 })
		m := StreamSelect(s, func(p benchPacket) float64 { return float64(p.Len) / 1500 })
		if _, err := NoisySum(m, 1.0, func(v float64) float64 { return v }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

// BenchmarkPacketFusedCount1M is the served `count` kind's pipeline:
// the request filter as a fused stage under NoisyCount, nothing
// materialized.
func BenchmarkPacketFusedCount1M(b *testing.B) {
	q := benchPacketQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Stream().Where(func(p benchPacket) bool { return p.Port < 512 }).NoisyCount(1.0); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

// Sketch-backed aggregations over 1M records: one pass, sketch-sized
// memory instead of sort- or map-sized.
func BenchmarkNoisyQuantile1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyQuantile(q, 1.0, 0.5, 0.01, func(x int) float64 { return float64(x % 1500) }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkNoisyQuantile1MParallel(b *testing.B) {
	q := benchParallel(benchQueryable(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyQuantile(q, 1.0, 0.5, 0.01, func(x int) float64 { return float64(x % 1500) }); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkNoisyFrequency1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyFrequency(q, 1.0, func(x int) string {
			return string(rune('a' + x%64))
		}, "b"); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkNoisyDistinctSketch1M(b *testing.B) {
	q := benchQueryable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyDistinctSketch(q, 1.0, func(x int) string {
			return string(rune('a' + x%4096))
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchRecords)
}

func BenchmarkBudgetAgentApply(b *testing.B) {
	root := NewRootAgent(math.Inf(1))
	agent := newScaleAgent(root, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Apply(0.001); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionAgentApply(b *testing.B) {
	root := NewRootAgent(math.Inf(1))
	p := newPartitionAgent(root, 64)
	members := make([]Agent, 64)
	for i := range members {
		members[i] = p.member(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := members[i%64].Apply(0.001); err != nil {
			b.Fatal(err)
		}
	}
}
