package packetdist

import (
	"dptrace/internal/core"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// A forward kept ONLY because the frozen bench/ directory calls this
// spelling; check.sh fails any other caller. Delete this file with the
// next `benchmark` PR, when bench/ moves to LengthCDF over headers.

// PrivateLengthCDF measures the packet-length CDF over whole packets.
//
// Deprecated: use LengthCDF.
func PrivateLengthCDF(q core.Streamer[trace.Packet], epsilon float64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(q, epsilon, func(p trace.Packet) int64 { return int64(p.Len) }, buckets)
}
