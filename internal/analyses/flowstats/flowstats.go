// Package flowstats reproduces the paper's §5.2.1 flow-level analysis:
// the Swing-style (Vishwanath & Vahdat) flow properties — handshake
// RTT, downstream loss rate, and retransmission timing — measured as
// differentially-private CDFs (Figures 1 and 3).
//
// RTT pairs each TCP SYN with its SYN-ACK through PINQ's bounded Join
// on (addresses, ports, sequence arithmetic). Loss rate groups packets
// by 5-tuple flow and compares distinct sequence numbers to total
// packets. Retransmission delay joins each first transmission with its
// duplicate.
package flowstats

import (
	"math"
	"slices"
	"sort"

	"dptrace/internal/core"
	"dptrace/internal/toolkit"
	"dptrace/internal/trace"
)

// handshakeKey is the join key matching a SYN to its SYN-ACK: the
// SYN-ACK acknowledges seq+1 on the reversed 4-tuple.
type handshakeKey struct {
	a, b   trace.IPv4
	pa, pb uint16
	val    uint32
}

// RTTMicros derives, behind the privacy curtain, one RTT sample
// (microseconds) per completed handshake: Join SYNs with SYN-ACKs
// where ack = seq+1. The result is a protected dataset ready for a CDF
// or other aggregation; the Join itself costs nothing until
// aggregated (then 2×, both sides deriving from the same trace).
func RTTMicros(q *core.Queryable[trace.Header]) *core.Queryable[int64] {
	syns := q.Where(func(p trace.Header) bool { return p.IsSYN() })
	acks := q.Where(func(p trace.Header) bool { return p.IsSYNACK() })
	return core.Join(syns, acks,
		func(p trace.Header) handshakeKey {
			return handshakeKey{a: p.SrcIP, b: p.DstIP, pa: p.SrcPort, pb: p.DstPort, val: p.Seq + 1}
		},
		func(p trace.Header) handshakeKey {
			return handshakeKey{a: p.DstIP, b: p.SrcIP, pa: p.DstPort, pb: p.SrcPort, val: p.Ack}
		},
		func(syn, ack trace.Header) int64 { return ack.Time - syn.Time })
}

// PrivateRTTCDF measures the RTT CDF (Figure 3a) in the given
// millisecond buckets at privacy level epsilon. Total cost: 2·epsilon
// (self-join).
func PrivateRTTCDF(q *core.Queryable[trace.Header], epsilon float64, bucketsMs []int64) ([]float64, error) {
	rtts := RTTMicros(q)
	return toolkit.CDF2(rtts, epsilon, func(us int64) int64 { return us / 1000 }, bucketsMs)
}

// ExactRTTs returns the noise-free RTT samples in microseconds.
func ExactRTTs(packets []trace.Header) []int64 {
	synTime := make(map[handshakeKey][]int64)
	for i := range packets {
		p := &packets[i]
		if p.IsSYN() {
			k := handshakeKey{a: p.SrcIP, b: p.DstIP, pa: p.SrcPort, pb: p.DstPort, val: p.Seq + 1}
			synTime[k] = append(synTime[k], p.Time)
		}
	}
	var out []int64
	for i := range packets {
		p := &packets[i]
		if !p.IsSYNACK() {
			continue
		}
		k := handshakeKey{a: p.DstIP, b: p.SrcIP, pa: p.DstPort, pb: p.SrcPort, val: p.Ack}
		if times, ok := synTime[k]; ok && len(times) > 0 {
			// Mirror the bounded join's zip: consume one SYN per ACK.
			out = append(out, p.Time-times[0])
			synTime[k] = times[1:]
		}
	}
	return out
}

// LossPermille derives per-flow downstream loss rates (in permille,
// for integral CDF bucketing): group packets by flow, keep flows with
// more than minPackets packets, and compare distinct sequence numbers
// to total packets — a retransmitted (lost downstream) packet repeats
// its sequence number. Costs 2× at aggregation time (GroupBy).
func LossPermille(q *core.Queryable[trace.Header], minPackets int) *core.Queryable[int64] {
	flows := core.GroupBy(dataPackets(q), func(p trace.Header) trace.FlowKey { return p.Flow() })
	big := flows.Where(func(g core.Group[trace.FlowKey, trace.Header]) bool {
		return len(g.Items) > minPackets
	})
	return core.Select(big, func(g core.Group[trace.FlowKey, trace.Header]) int64 {
		return lossPermilleOf(g.Items)
	})
}

// PrivateLossCDF measures the loss-rate CDF (Figure 3b) in permille
// buckets at privacy level epsilon. Total cost: 2·epsilon (GroupBy).
func PrivateLossCDF(q *core.Queryable[trace.Header], epsilon float64, minPackets int, bucketsPermille []int64) ([]float64, error) {
	loss := LossPermille(q, minPackets)
	return toolkit.CDF2(loss, epsilon, func(v int64) int64 { return v }, bucketsPermille)
}

// ExactLossPermille returns the noise-free per-flow loss rates in
// permille for flows with more than minPackets packets.
func ExactLossPermille(packets []trace.Header, minPackets int) []int64 {
	flows := make(map[trace.FlowKey][]trace.Header)
	for i := range packets {
		p := packets[i]
		if !isDataPacket(&p) {
			continue
		}
		flows[p.Flow()] = append(flows[p.Flow()], p)
	}
	var out []int64
	for _, pkts := range flows {
		if len(pkts) > minPackets {
			out = append(out, lossPermilleOf(pkts))
		}
	}
	slices.Sort(out)
	return out
}

// retxKey identifies one transmission of one flow's sequence number.
type retxKey struct {
	flow trace.FlowKey
	seq  uint32
}

// transmissions is what RetransmitDelaysMs keeps of one (flow, seq)
// group: how many packets carried it and the two earliest times.
type transmissions struct {
	n             int
	first, second int64
}

// RetransmitDelaysMs derives, behind the curtain, the time difference
// in milliseconds between each packet and its retransmission — the
// quantity Figure 1 builds its CDFs over. First transmissions join
// with their duplicates on (flow, seq); the bounded join pairs each
// first transmission with one retransmission.
func RetransmitDelaysMs(q *core.Queryable[trace.Header]) *core.Queryable[int64] {
	data := dataPackets(q)
	// Keys are almost all distinct (a retransmission is the exception),
	// and all a sample needs from a (flow, seq) group is its size and its
	// two earliest timestamps: fold those instead of storing the group.
	// Groups with one packet (no retransmission) yield no sample; the
	// Where drops them. The fold gets no merge although one would be
	// exact: with keys new on nearly every packet, merging a later
	// range re-inserts almost all of its keys on one worker, which costs
	// more than the split saves.
	groups := core.GroupFold(data,
		func(p trace.Header) retxKey { return retxKey{flow: p.Flow(), seq: p.Seq} },
		func(t transmissions, p trace.Header) transmissions {
			if t.n == 0 {
				t.first, t.second = math.MaxInt64, math.MaxInt64
			}
			t.n++
			switch {
			case p.Time < t.first:
				t.first, t.second = p.Time, t.first
			case p.Time < t.second:
				t.second = p.Time
			}
			return t
		}, nil)
	dup := groups.Where(func(g core.Folded[retxKey, transmissions]) bool { return g.Value.n >= 2 })
	return core.Select(dup, func(g core.Folded[retxKey, transmissions]) int64 {
		return (g.Value.second - g.Value.first) / 1000
	})
}

// PrivateRetransmitCDF measures the retransmission-delay CDF in
// millisecond buckets. Total cost: 2·epsilon (GroupBy).
func PrivateRetransmitCDF(q *core.Queryable[trace.Header], epsilon float64, bucketsMs []int64) ([]float64, error) {
	delays := RetransmitDelaysMs(q)
	return toolkit.CDF2(delays, epsilon, func(v int64) int64 { return v }, bucketsMs)
}

// ExactRetransmitDelaysMs returns the noise-free retransmission
// delays in milliseconds.
func ExactRetransmitDelaysMs(packets []trace.Header) []int64 {
	groups := make(map[retxKey][]int64)
	for i := range packets {
		p := packets[i]
		if !isDataPacket(&p) {
			continue
		}
		k := retxKey{flow: p.Flow(), seq: p.Seq}
		groups[k] = append(groups[k], p.Time)
	}
	var out []int64
	for _, times := range groups {
		if len(times) < 2 {
			continue
		}
		slices.Sort(times)
		out = append(out, (times[1]-times[0])/1000)
	}
	slices.Sort(out)
	return out
}

// ExactCDFFromValues builds the noise-free cumulative counts of values
// over the given buckets (values ≥ the last edge are dropped),
// mirroring the toolkit estimators' semantics.
func ExactCDFFromValues(values []int64, buckets []int64) []float64 {
	freq := make([]float64, len(buckets))
	for _, v := range values {
		idx := sort.Search(len(buckets), func(i int) bool { return v < buckets[i] })
		if idx < len(buckets) {
			freq[idx]++
		}
	}
	out := make([]float64, len(buckets))
	run := 0.0
	for i, f := range freq {
		run += f
		out[i] = run
	}
	return out
}

func lossPermilleOf(pkts []trace.Header) int64 {
	distinct := make(map[uint32]struct{}, len(pkts))
	for i := range pkts {
		distinct[pkts[i].Seq] = struct{}{}
	}
	loss := 1 - float64(len(distinct))/float64(len(pkts))
	return int64(loss * 1000)
}

func isDataPacket(p *trace.Header) bool {
	return p.Proto == trace.ProtoTCP && !p.Flags.Has(trace.FlagSYN) && p.Len > 40
}

func dataPackets(q *core.Queryable[trace.Header]) *core.Queryable[trace.Header] {
	return q.Where(func(p trace.Header) bool { return isDataPacket(&p) })
}
