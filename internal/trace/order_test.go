package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// stableTimeOrder is the oracle: the reflective stable sort TimeOrder
// replaces, over an index slice.
func stableTimeOrder(ps []Packet) []int32 {
	perm := make([]int32, len(ps))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return ps[perm[a]].Time < ps[perm[b]].Time })
	return perm
}

func packetsAt(times []int64) []Packet {
	ps := make([]Packet, len(times))
	for i, t := range times {
		ps[i] = Packet{Header: Header{Time: t, Seq: uint32(i)}}
	}
	return ps
}

func checkTimeOrder(t *testing.T, times []int64) {
	t.Helper()
	ps := packetsAt(times)
	got := TimeOrder(ps)
	if want := stableTimeOrder(ps); !slices.Equal(got, want) {
		t.Fatalf("TimeOrder(%v) = %v, want %v", times, got, want)
	}
	for i, p := range ps {
		if p.Time != times[i] || p.Seq != uint32(i) {
			t.Fatalf("TimeOrder modified its input at %d", i)
		}
	}
}

func TestTimeOrder(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := map[string][]int64{
		"empty":         {},
		"one":           {42},
		"two in order":  {1, 2},
		"two reversed":  {2, 1},
		"two equal":     {7, 7},
		"all equal":     {5, 5, 5, 5, 5, 5},
		"sorted":        {1, 2, 2, 3, 10, 10, 11},
		"reversed":      {9, 8, 8, 7, 3, 3, 1, 0},
		"negative":      {-1, -300, 0, -1, 5, -70000, -300},
		"extremes":      {hi, lo, 0, hi, -1, lo, 1, hi - 1, lo + 1},
		"sign only":     {lo, 0, lo, 0},
		"top byte only": {3 << 56, 1 << 56, 2 << 56, 1 << 56},
	}
	// Keys that differ in exactly one byte, for every byte.
	for b := 0; b < 8; b++ {
		cases[fmt.Sprint("byte ", b)] = []int64{
			0x11 << (8 * b), 0x01 << (8 * b), 0x7f << (8 * b), 0x01 << (8 * b), 0,
		}
	}
	for name, times := range cases {
		t.Run(name, func(t *testing.T) { checkTimeOrder(t, times) })
	}

	// Random keys with heavy ties: 300 distinct timestamps shared by
	// 5,000 packets, at several offsets.
	rng := rand.New(rand.NewPCG(1, 2))
	for _, base := range []int64{0, -1 << 40, 1 << 62, lo + 1000} {
		pool := make([]int64, 300)
		for i := range pool {
			pool[i] = base + rng.Int64N(1<<40)
		}
		times := make([]int64, 5000)
		for i := range times {
			times[i] = pool[rng.IntN(len(pool))]
		}
		checkTimeOrder(t, times)
	}
}

// FuzzTimeOrder checks TimeOrder against the stable-sort oracle. Each
// data byte is one packet at base + byte·step: bytes repeat, so ties
// are common, and base and step place the differing bits anywhere in
// the key, sign bit included, wrapping at the int64 limits.
func FuzzTimeOrder(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 0, 3}, int64(0), int64(1))
	f.Add([]byte{9, 9, 9}, int64(1_000_000), int64(0))
	f.Add([]byte{0, 255, 128, 1, 128}, int64(math.MinInt64), int64(1<<56))
	f.Add([]byte{1, 0, 2, 0}, int64(math.MaxInt64), int64(-1))
	f.Add([]byte{4, 2, 4, 2, 200, 17}, int64(-5), int64(0x0123456789))
	f.Fuzz(func(t *testing.T, data []byte, base, step int64) {
		times := make([]int64, len(data))
		for i, b := range data {
			times[i] = base + int64(b)*step
		}
		checkTimeOrder(t, times)
	})
}
