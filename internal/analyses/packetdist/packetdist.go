// Package packetdist reproduces the paper's §5.1.1 packet-level
// analysis: differentially-private CDFs of packet lengths and
// destination ports (Figure 2). Both are instances of the toolkit's
// partition-based CDF2 estimator — the method the paper uses for its
// experiments — so the privacy cost of each full-resolution CDF is a
// single ε.
package packetdist

import (
	"dptrace/internal/core"
	"dptrace/internal/stats"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// LengthBuckets returns the bucket edges Figure 2(a) plots: every
// `step` bytes up to 1520 (past the 1492 MTU spike).
func LengthBuckets(step int64) []int64 {
	return toolkit.LinearBuckets(0, step, int(1520/step))
}

// PortBuckets returns bucket edges covering the full port range at the
// given step, as in Figure 2(b).
func PortBuckets(step int64) []int64 {
	return toolkit.LinearBuckets(0, step, int(65536/step))
}

// PrivateLengthCDF measures the packet-length CDF at privacy level
// epsilon (total — CDF2's cost is resolution-independent). q is either
// handle on the packets.
func PrivateLengthCDF(q core.Streamer[trace.Packet], epsilon float64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(q, epsilon, func(p trace.Packet) int64 { return int64(p.Len) }, buckets)
}

// PrivatePortCDF measures the destination-port CDF at privacy level
// epsilon.
func PrivatePortCDF(q core.Streamer[trace.Packet], epsilon float64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(q, epsilon, func(p trace.Packet) int64 { return int64(p.DstPort) }, buckets)
}

// ExactLengthCDF is the noise-free baseline of PrivateLengthCDF.
func ExactLengthCDF(packets []trace.Packet, buckets []int64) []float64 {
	return exactCDF(packets, buckets, func(p trace.Packet) int64 { return int64(p.Len) })
}

// ExactPortCDF is the noise-free baseline of PrivatePortCDF.
func ExactPortCDF(packets []trace.Packet, buckets []int64) []float64 {
	return exactCDF(packets, buckets, func(p trace.Packet) int64 { return int64(p.DstPort) })
}

// exactCDF counts each value into its bucket, then accumulates — the
// same semantics as CDF2 without noise.
func exactCDF(packets []trace.Packet, buckets []int64, value func(trace.Packet) int64) []float64 {
	out := make([]float64, len(buckets))
	freq := make([]float64, len(buckets))
	b := toolkit.NewBucketer(buckets)
	for _, p := range packets {
		if idx := b.Index(value(p)); idx >= 0 {
			freq[idx]++
		}
	}
	run := 0.0
	for i, f := range freq {
		run += f
		out[i] = run
	}
	return out
}

// RMSE computes the paper's relative error metric between a private
// and a noise-free CDF.
func RMSE(private, exact []float64) (float64, error) {
	return stats.RMSE(private, exact)
}
