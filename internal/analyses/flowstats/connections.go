package flowstats

import (
	"slices"

	"dptrace/internal/core"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// The paper could not isolate individual TCP connections inside a
// 5-tuple flow with PINQ's operations and notes two fixes: "The data
// owner could pre-process the traces to add a 'connection id' field,
// or PINQ could be extended with more flexible grouping
// transformations. Once connections are identified, the
// connection-level analyses are straightforward." This file implements
// the first fix and the straightforward analysis on top of it.

// ConnPacket is a packet annotated with its connection ordinal within
// its 5-tuple flow — the pre-processed record the data owner exposes.
type ConnPacket struct {
	trace.Packet
	// Conn is 0 for the flow's first connection and increments at
	// every subsequent SYN on the same 5-tuple.
	Conn uint32
}

// connKey identifies one connection.
type connKey struct {
	flow trace.FlowKey
	conn uint32
}

// canonicalFlow maps both directions of a TCP conversation onto one
// key, so a connection's forward data and reverse ACKs share a
// connection stream.
func canonicalFlow(f trace.FlowKey) trace.FlowKey {
	if f.SrcIP > f.DstIP || (f.SrcIP == f.DstIP && f.SrcPort > f.DstPort) {
		return f.Reverse()
	}
	return f
}

// WithConnectionIDs is the data owner's preprocessing: it scans the
// trace in time order and assigns each packet a connection ordinal
// within its BIDIRECTIONAL flow (both directions share the stream),
// starting a new connection whenever a SYN (without ACK) appears on an
// already-seen flow. Packets of a flow seen before any SYN belong to
// connection 0 (a connection already in progress when capture began).
// The input is not modified.
func WithConnectionIDs(packets []trace.Packet) []ConnPacket {
	// Process in time order without disturbing the caller's slice.
	order := trace.TimeOrder(packets)
	type flowState struct {
		conn    uint32
		sawSYN  bool
		started bool
	}
	states := make(map[trace.FlowKey]*flowState)
	out := make([]ConnPacket, len(packets))
	for _, idx := range order {
		p := packets[idx]
		f := canonicalFlow(p.Flow())
		st, ok := states[f]
		if !ok {
			st = &flowState{}
			states[f] = st
		}
		if p.IsSYN() {
			if st.started && st.sawSYN {
				st.conn++ // a fresh handshake on a known flow
			}
			st.sawSYN = true
		}
		st.started = true
		out[idx] = ConnPacket{Packet: p, Conn: st.conn}
	}
	return out
}

// PacketsPerConnection derives, behind the curtain, the packet count
// of every connection. Aggregations on the result cost 2× (GroupBy).
func PacketsPerConnection(q *core.Queryable[ConnPacket]) *core.Queryable[int64] {
	groups := core.GroupBy(q, func(p ConnPacket) connKey {
		return connKey{flow: canonicalFlow(p.Flow()), conn: p.Conn}
	})
	return core.Select(groups, func(g core.Group[connKey, ConnPacket]) int64 {
		return int64(len(g.Items))
	})
}

// PrivatePacketsPerConnectionCDF measures the per-connection packet
// count distribution — the Swing statistic the paper could not
// reproduce without this preprocessing. Total cost: 2·epsilon.
func PrivatePacketsPerConnectionCDF(q *core.Queryable[ConnPacket], epsilon float64, buckets []int64) ([]float64, error) {
	counts := PacketsPerConnection(q)
	return toolkit.CDF2(counts, epsilon, func(v int64) int64 { return v }, buckets)
}

// ExactPacketsPerConnection is the noise-free baseline: sorted packet
// counts per connection.
func ExactPacketsPerConnection(packets []ConnPacket) []int64 {
	counts := make(map[connKey]int64)
	for i := range packets {
		k := connKey{flow: canonicalFlow(packets[i].Flow()), conn: packets[i].Conn}
		counts[k]++
	}
	out := make([]int64, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}
