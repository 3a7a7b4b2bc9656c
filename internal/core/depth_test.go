package core

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// The chunk loops hand each record to analyst functions by value,
// through a stack temporary whose alignment decides whether its reload
// stalls (stream.go, "By value, through the stack"). Every scan runs
// on goroutines the engine starts, so that alignment must depend on the
// engine's own frames alone: the same query called from any depth of
// caller must see its record argument at one offset mod 64.

// nestLevels is how many frames scanAtDepth puts between a test and the
// scan; narrow of them are padded one word and the rest three, so each
// narrow level moves the scan 16 bytes up the caller's stack and eight
// depths cover every 16-byte offset mod 64 twice.
const nestLevels = 7

//go:noinline
func nestNarrow(levels, narrow int, f func()) {
	var pad [1]uintptr
	nest(levels-1, narrow-1, f)
	runtime.KeepAlive(&pad)
}

//go:noinline
func nestWide(levels, narrow int, f func()) {
	var pad [3]uintptr
	nest(levels-1, narrow, f)
	runtime.KeepAlive(&pad)
}

//go:noinline
func nest(levels, narrow int, f func()) {
	switch {
	case levels == 0:
		f()
	case narrow > 0:
		nestNarrow(levels, narrow, f)
	default:
		nestWide(levels, narrow, f)
	}
}

// offsetMask returns a bit mask with bit x%64 set.
func offsetMask(x uintptr) uint64 { return 1 << (x % 64) }

func TestScanDepthIndependentOfCaller(t *testing.T) {
	packets := make([]trace.Header, 4*chunkSize+3)
	for i := range packets {
		packets[i].Len = uint16(i)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			q, _ := NewQueryable(packets, math.Inf(1), noise.NewSeededSource(1, 2))
			q = q.WithExecOptions(ExecOptions{Workers: workers, Threshold: 1})
			var callers, first uint64
			for narrow := 0; narrow <= nestLevels; narrow++ {
				var seen atomic.Uint64
				nest(nestLevels, narrow, func() {
					var here byte
					callers |= offsetMask(uintptr(unsafe.Pointer(&here)))
					// Odd lengths are rejected, so both of Where's loops
					// (the passing prefix and the filtering one) run.
					if _, err := q.Stream().Where(func(p trace.Header) bool {
						seen.Or(offsetMask(uintptr(unsafe.Pointer(&p))))
						return p.Len%2 == 0
					}).NoisyCount(1); err != nil {
						t.Fatal(err)
					}
				})
				if narrow == 0 {
					first = seen.Load()
				} else if got := seen.Load(); got != first {
					t.Errorf("%d narrow levels: record argument at offsets %s mod 64, want %s as at 0",
						narrow, offsets(got), offsets(first))
				}
			}
			if callers&(callers-1) == 0 {
				t.Fatalf("the callers all ran at offset %s mod 64: the nesting moved nothing", offsets(callers))
			}
		})
	}
}

// offsets lists the offsets a mask from offsetMask has set.
func offsets(mask uint64) string {
	var s []int
	for x := 0; x < 64; x++ {
		if mask&(1<<x) != 0 {
			s = append(s, x)
		}
	}
	return fmt.Sprint(s)
}
