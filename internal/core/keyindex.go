package core

import (
	"math/bits"
	"math/rand/v2"
	"reflect"
	"unsafe"
)

// keyIndex numbers keys 0, 1, 2, … in the order they are first
// inserted and keeps them in that order (keys[n] is key number n). Keys
// of a 4- or 8-byte integer kind (trace.IPv4, int, uint32, …) live in an
// open-addressing table, key and number inline, probed linearly at a load
// of at most ½; other key types in a Go map, which beat the table on
// struct and string keys hashed with maphash. No number depends on the hash.
type keyIndex[K comparable] struct {
	keys       []K
	slots      []keySlot[K] // the table; nil on the map path
	seed, mult uint64       // drawn per index; mult is odd
	shift      uint8        // 64 − log2(len(slots))
	m          map[K]int32  // key → number + 1, for every other K
}

type keySlot[K comparable] struct {
	key K
	n   int32 // number + 1; 0: empty
}

// newKeyIndex sizes the index for about hint keys.
func newKeyIndex[K comparable](hint int) *keyIndex[K] {
	switch reflect.TypeFor[K]().Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x := &keyIndex[K]{seed: rand.Uint64(), mult: rand.Uint64() | 1}
		x.resize(1 << bits.Len(uint(2*max(hint, 4)-1)))
		return x
	}
	return &keyIndex[K]{m: make(map[K]int32, hint)}
}

// insert returns k's number, numbering k next if it is new (added).
func (x *keyIndex[K]) insert(k K) (n int32, added bool) {
	if x.m != nil {
		if n := x.m[k]; n != 0 {
			return n - 1, false
		}
		x.m[k] = int32(len(x.keys)) + 1
	} else {
		i := x.probe(k)
		if s := x.slots[i]; s.n != 0 {
			return s.n - 1, false
		}
		if 2*(len(x.keys)+1) > len(x.slots) {
			x.resize(2 * len(x.slots))
			i = x.probe(k)
		}
		x.slots[i] = keySlot[K]{k, int32(len(x.keys)) + 1}
	}
	x.keys = append(x.keys, k)
	return int32(len(x.keys)) - 1, true
}

// lookup returns k's number, or −1 for a key never inserted.
func (x *keyIndex[K]) lookup(k K) int32 {
	if x.m != nil {
		return x.m[k] - 1
	}
	return x.slots[x.probe(k)].n - 1
}

// home is k's first slot: multiply-shift under mult over the key xored
// with the seed through a fixed bijective mix. The mix keeps the hash
// universal and breaks up arithmetic progressions (sequential addresses),
// which multiply-shift alone lines up in runs (DESIGN.md §S27).
func (x *keyIndex[K]) home(k K) int {
	b := uint64(*(*uint32)(unsafe.Pointer(&k)))
	if unsafe.Sizeof(k) == 8 {
		b = *(*uint64)(unsafe.Pointer(&k))
	}
	z := (b ^ x.seed) * 0xbf58476d1ce4e5b9
	return int((z ^ z>>32) * x.mult >> x.shift)
}

// probe returns the slot holding k, or the empty slot that ends k's run.
// Keep it inlinable: as a call of its own it cost a served hosts a fifth.
func (x *keyIndex[K]) probe(k K) int {
	i := x.home(k)
	for x.slots[i].n != 0 && x.slots[i].key != k {
		i = (i + 1) & (len(x.slots) - 1)
	}
	return i
}

// resize rebuilds the table with size (a power of two) slots.
func (x *keyIndex[K]) resize(size int) {
	x.slots = make([]keySlot[K], size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i, k := range x.keys {
		x.slots[x.probe(k)] = keySlot[K]{k, int32(i) + 1}
	}
}
