package trace

import "math"

// TimeOrder returns the stable permutation that sorts ps by Time:
// ps[perm[0]], ps[perm[1]], … have non-decreasing timestamps, and
// packets with equal timestamps keep their order in ps. A stable order
// is unique, so any correct stable sort yields the same permutation;
// this one runs in linear time. ps is not modified.
//
// It is a least-significant-digit radix sort over (timestamp, index)
// pairs, one counting pass per byte, skipping every byte that all
// timestamps share (found from their AND and OR), so a capture's
// microsecond timestamps take about four passes.
func TimeOrder(ps []Packet) []int32 {
	if len(ps) > math.MaxInt32 {
		panic("trace: TimeOrder over more than MaxInt32 packets")
	}
	// Flipping the sign bit makes unsigned order agree with signed order.
	type entry struct {
		key uint64
		idx int32
	}
	src := make([]entry, len(ps))
	and, or := ^uint64(0), uint64(0)
	for i := range ps {
		k := uint64(ps[i].Time) ^ 1<<63
		src[i] = entry{k, int32(i)}
		and &= k
		or |= k
	}
	dst := make([]entry, len(ps))
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((and^or)>>shift) == 0 {
			continue // this byte is the same in every key
		}
		var next [256]int
		for _, e := range src {
			next[byte(e.key>>shift)]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
	}
	perm := make([]int32, len(ps))
	for i, e := range src {
		perm[i] = e.idx
	}
	return perm
}
