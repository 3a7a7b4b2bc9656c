package core

import (
	"math"
	"slices"
	"testing"
)

// keyIndex against a map[K]int32 reference, on both of its paths: the
// open-addressing table (uint32, int64 keys) and the Go map (a struct
// key). Numbers, the count and newest of the keys, and whether an insert
// added a key must match after every step; the whole key order and every
// key's number at the end of a program.

// fuzzKey is a key type of no integer kind: it takes the map path.
type fuzzKey struct {
	A uint16
	B int8
}

// refIndex runs one keyIndex beside its reference.
type refIndex[K comparable] struct {
	x    *keyIndex[K]
	want map[K]int32
	keys []K
}

func newRefIndex[K comparable](t *testing.T, hint int, mult uint64, table bool) *refIndex[K] {
	t.Helper()
	r := &refIndex[K]{x: newKeyIndex[K](hint), want: map[K]int32{}}
	if (r.x.m == nil) != table {
		t.Fatalf("%T keys: table path %v, want %v", *new(K), r.x.m == nil, table)
	}
	r.x.mult = mult | 1
	return r
}

// step inserts k (or only looks it up) on both sides and compares.
func (r *refIndex[K]) step(t *testing.T, insert bool, k K) {
	t.Helper()
	want, seen := r.want[k]
	if insert {
		if !seen {
			want = int32(len(r.keys))
			r.want[k] = want
			r.keys = append(r.keys, k)
		}
		if n, added := r.x.insert(k); n != want || added == seen {
			t.Fatalf("%T insert(%v) = (%d, %v), reference (%d, %v)", k, k, n, added, want, !seen)
		}
	} else {
		if !seen {
			want = -1
		}
		if n := r.x.lookup(k); n != want {
			t.Fatalf("%T lookup(%v) = %d, reference %d", k, k, n, want)
		}
	}
	if len(r.x.keys) != len(r.keys) || len(r.keys) > 0 && r.x.keys[len(r.keys)-1] != r.keys[len(r.keys)-1] {
		t.Fatalf("%T keys diverged from the reference's after %v (%d keys, reference %d)", k, k, len(r.x.keys), len(r.keys))
	}
}

// verify compares the whole key order — step compares its length and
// newest key, which keeps a program linear — and looks every inserted
// key up again: a key a resize dropped or moved out of its run reads −1
// or another number.
func (r *refIndex[K]) verify(t *testing.T) {
	t.Helper()
	if !slices.Equal(r.x.keys, r.keys) {
		t.Fatalf("%T key order differs from the reference's", *new(K))
	}
	for n, k := range r.keys {
		if got := r.x.lookup(k); got != int32(n) {
			t.Fatalf("%T lookup(%v) = %d at the end, want %d", k, k, got, n)
		}
	}
}

// keyExtremes are the ends of each path's key types, as bits.
var keyExtremes = []uint64{0, 1, math.MaxUint32, 1 << 31, 1 << 32, 1 << 63, math.MaxInt64, math.MaxUint64}

// FuzzKeyIndex runs a program of 4-byte ops [op, a, b, c] on three
// indexes at once. op%4: 0 inserts the small signed key int16(a<<8|b),
// 1 looks it up; 2 inserts (b odd) or looks up keyExtremes[a]; 3 inserts
// a run of 2^(a%11) − 1, 2^(a%11) or 2^(a%11) + 1 keys that share their
// low 6 + c%42 bits, which crosses the table's growth points and puts
// keys equal modulo a power of two in one table. The multiplier is an
// input too, so a program replays exactly and the fuzzer can pick a bad
// one: under 2^64 − 1, keys 1, 2, 3, … all start at the last slot and
// wrap.
func FuzzKeyIndex(f *testing.F) {
	f.Add(uint64(0), uint16(0), []byte{})
	f.Add(uint64(math.MaxUint64), uint16(0), []byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 1, 0, 2, 0, 0, 0, 0, 0, 1, 0, 4, 0})
	for a := byte(0); a < 11; a++ {
		for b := byte(0); b < 3; b++ {
			f.Add(uint64(a)<<60|0x9e3779b97f4a7c15, uint16(a), []byte{3, a, b, 0, 3 | 4*a, a, b, 10, 3, a, b, 0, 1, 0, a, 0})
		}
	}
	prog := []byte{}
	for a := range keyExtremes {
		prog = append(prog, 2, byte(a), 1, 0, 2, byte(a), 0, 0, 0, 0, byte(a), 0)
	}
	f.Add(uint64(1), uint16(1), prog)
	f.Fuzz(func(t *testing.T, mult uint64, hint uint16, prog []byte) {
		u32 := newRefIndex[uint32](t, int(hint%4096), mult, true)
		i64 := newRefIndex[int64](t, int(hint%4096), mult, true)
		st := newRefIndex[fuzzKey](t, int(hint%4096), mult, false)
		step := func(insert bool, v uint64) {
			u32.step(t, insert, uint32(v))
			i64.step(t, insert, int64(v))
			st.step(t, insert, fuzzKey{uint16(v), int8(v >> 16)})
		}
		for ; len(prog) >= 4; prog = prog[4:] {
			op, a, b, c := prog[0], prog[1], prog[2], prog[3]
			small := uint64(int64(int16(uint16(a)<<8 | uint16(b))))
			switch op % 4 {
			case 0, 1:
				step(op%4 == 0, small)
			case 2:
				step(b%2 == 1, keyExtremes[int(a)%len(keyExtremes)])
			case 3:
				n, shift, low := 1<<(a%11)+int(b%3)-1, 6+c%42, uint64(op>>2)
				for i := range n {
					step(true, uint64(i)<<shift|low)
				}
			}
		}
		u32.verify(t)
		i64.verify(t)
		st.verify(t)
	})
}

// meanProbe is the mean number of slots a lookup of an inserted key
// reads.
func meanProbe[K comparable](x *keyIndex[K]) float64 {
	mask, total := len(x.slots)-1, 0
	for _, k := range x.keys {
		total += (x.probe(k)-x.home(k))&mask + 1
	}
	return float64(total) / float64(len(x.keys))
}

// TestKeyIndexStridedKeys: key sets that a weaker hash piles into long
// runs cost what random keys cost (a mean probe length of 1.5 at load ½)
// under every one of several indexes, and no two indexes share a seed or
// a multiplier. The sets: 2^16 keys sharing their low 16 bits (a low-bit
// hash), 2^16 sequential addresses (multiply-shift without the mix: one
// multiplier in ten reads above 2), 2^16 keys whose products with
// Fibonacci hashing's multiplier are 0, 1, 2, … (that multiplier, fixed),
// and 2^16 keys the unseeded mix maps onto 0, inv, 2·inv, … (the mix
// without the seed).
func TestKeyIndexStridedKeys(t *testing.T) {
	const n, draws = 1 << 16, 16
	// inverse returns c⁻¹ mod 2^64 for an odd c: Newton's iteration
	// doubles the correct low bits, from 3.
	inverse := func(c uint64) uint64 {
		inv := c
		for range 5 {
			inv *= 2 - c*inv
		}
		return inv
	}
	inv, unmix := inverse(0x9e3779b97f4a7c15), inverse(0xbf58476d1ce4e5b9)
	sets := map[string]func(i uint64) uint64{
		"low bits shared":         func(i uint64) uint64 { return i<<16 | 0xbeef },
		"sequential addresses":    func(i uint64) uint64 { return 0x0a000000 + i },
		"Fibonacci collisions":    func(i uint64) uint64 { return i * inv },
		"unseeded-mix collisions": func(i uint64) uint64 { z := i * inv; return (z ^ z>>32) * unmix },
	}
	for name, key := range sets {
		worst := 0.0
		for range draws {
			x := newKeyIndex[uint64](0)
			for i := range uint64(n) {
				x.insert(key(i))
			}
			if len(x.keys) != n {
				t.Fatalf("%s: %d keys numbered, want %d", name, len(x.keys), n)
			}
			worst = max(worst, meanProbe(x))
		}
		t.Logf("%s: worst mean probe length over %d indexes %.3f", name, draws, worst)
		if worst > 2 {
			t.Errorf("%s: mean probe length %.2f, want at most 2", name, worst)
		}
	}
	if a, b := newKeyIndex[uint32](0), newKeyIndex[uint32](0); a.mult == b.mult || a.seed == b.seed || a.mult%2 == 0 {
		t.Fatalf("two indexes drew (seed, multiplier) (%#x, %#x) and (%#x, %#x): want distinct, odd multipliers",
			a.seed, a.mult, b.seed, b.mult)
	}
}
