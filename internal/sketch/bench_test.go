package sketch

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// Benchmarks for the sketch building blocks themselves; the end-to-end
// aggregation costs (engine contract, noise, parallel builds) live in
// internal/core's bench suite.

// BenchmarkQuantileInsert1M flushes buffers whose values are all
// distinct and, but for about one flush in eight, already sorted: flush
// walks those without the count table.
func BenchmarkQuantileInsert1M(b *testing.B) {
	const n = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQuantile(0.01)
		for j := 0; j < n; j++ {
			q.Insert(float64(j % 1500))
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkQuantileInsertLengths feeds a packet-length mix: about 30
// distinct values in each 200-value flush, the regime the counting
// flush is for.
func BenchmarkQuantileInsertLengths(b *testing.B) {
	const n = 1 << 20
	lengths := make([]float64, 4096)
	r := rand.New(rand.NewPCG(1, 2))
	for j := range lengths {
		switch u := r.IntN(10); {
		case u < 4:
			lengths[j] = 40 + float64(r.IntN(4)*12)
		case u < 7:
			lengths[j] = 1500
		default:
			lengths[j] = float64(64 + r.IntN(24)*56)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQuantile(0.01)
		for j := 0; j < n; j++ {
			q.Insert(lengths[j&4095])
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkQuantileMerge merges one flushed 65,536-value summary into a
// copy of another: the inputs are built once, and an iteration pays the
// copy (one tuple list) and the merge. Rebuilding them per iteration
// under StopTimer made b.N, and the wall time, grow with every speedup.
func BenchmarkQuantileMerge(b *testing.B) {
	mk := func(lo int) *Quantile {
		q := NewQuantile(0.01)
		for j := 0; j < 1<<16; j++ {
			q.Insert(float64((lo + j) % 997))
		}
		q.Tuples()
		return q
	}
	a, c := mk(0), mk(1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		into := &Quantile{eps: a.eps, n: a.n, bufCap: a.bufCap, tuples: slices.Clone(a.tuples)}
		into.Merge(c)
	}
}

func BenchmarkCountMinAdd1M(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("host-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCountMin(8192, 4)
		for j := 0; j < n; j++ {
			c.Add(keys[j&1023])
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

func BenchmarkDistinctAdd1M(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.0.%d.%d", i/256, i%256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDistinct(12)
		for j := 0; j < n; j++ {
			d.Add(keys[j&4095])
		}
	}
	b.ReportMetric(float64(n), "records/op")
}
