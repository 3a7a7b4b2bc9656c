// Package degrees implements the graph-level statistics the paper's
// §5.3 opens with as the "relatively easy to produce" cases:
// distributions of in- and out-degrees of hosts in the communication
// graph, optionally restricted to ports or protocols (restrict with
// Where before calling). Degree here is the number of distinct peers,
// the standard communication-graph degree.
//
// Contrast with the diameter or the maximum degree, which the same
// paragraph notes are "difficult or impossible to compute because
// they rely on a handful of records" — exactly the fragile statistics
// differential privacy refuses to answer accurately.
package degrees

import (
	"slices"

	"dptrace/internal/core"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// OutDegrees derives, behind the curtain, each source host's number of
// distinct destinations. Aggregations cost 2× (GroupBy).
func OutDegrees(q *core.Queryable[trace.Packet]) *core.Queryable[int64] {
	groups := core.GroupBy(q, func(p trace.Packet) trace.IPv4 { return p.SrcIP })
	return core.Select(groups, func(g core.Group[trace.IPv4, trace.Packet]) int64 {
		return distinctPeers(g.Items, false)
	})
}

// InDegrees derives each destination host's number of distinct
// sources. Aggregations cost 2× (GroupBy).
func InDegrees(q *core.Queryable[trace.Packet]) *core.Queryable[int64] {
	groups := core.GroupBy(q, func(p trace.Packet) trace.IPv4 { return p.DstIP })
	return core.Select(groups, func(g core.Group[trace.IPv4, trace.Packet]) int64 {
		return distinctPeers(g.Items, true)
	})
}

// PrivateOutDegreeCDF measures the out-degree distribution at privacy
// level epsilon (total cost 2·epsilon).
func PrivateOutDegreeCDF(q *core.Queryable[trace.Packet], epsilon float64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(OutDegrees(q), epsilon, func(v int64) int64 { return v }, buckets)
}

// PrivateInDegreeCDF measures the in-degree distribution at privacy
// level epsilon (total cost 2·epsilon).
func PrivateInDegreeCDF(q *core.Queryable[trace.Packet], epsilon float64, buckets []int64) ([]float64, error) {
	return toolkit.CDF2(InDegrees(q), epsilon, func(v int64) int64 { return v }, buckets)
}

// ExactOutDegrees returns the noise-free out-degrees, sorted.
func ExactOutDegrees(packets []trace.Packet) []int64 {
	return exactDegrees(packets, false)
}

// ExactInDegrees returns the noise-free in-degrees, sorted.
func ExactInDegrees(packets []trace.Packet) []int64 {
	return exactDegrees(packets, true)
}

func exactDegrees(packets []trace.Packet, in bool) []int64 {
	peers := make(map[trace.IPv4]map[trace.IPv4]struct{})
	for i := range packets {
		node, peer := packets[i].SrcIP, packets[i].DstIP
		if in {
			node, peer = peer, node
		}
		if peers[node] == nil {
			peers[node] = make(map[trace.IPv4]struct{})
		}
		peers[node][peer] = struct{}{}
	}
	out := make([]int64, 0, len(peers))
	for _, set := range peers {
		out = append(out, int64(len(set)))
	}
	slices.Sort(out)
	return out
}

func distinctPeers(pkts []trace.Packet, in bool) int64 {
	seen := make(map[trace.IPv4]struct{}, len(pkts))
	for i := range pkts {
		peer := pkts[i].DstIP
		if in {
			peer = pkts[i].SrcIP
		}
		seen[peer] = struct{}{}
	}
	return int64(len(seen))
}
