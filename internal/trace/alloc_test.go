//go:build !race

// The race detector's instrumentation inflates allocation counts, so
// this guard exists only in non-race builds; check.sh runs it in its
// non-race TestAlloc step.

package trace_test

import (
	"runtime"
	"testing"
	"unsafe"

	"dptrace/internal/trace"
)

// A 1,000-packet batch decodes into its record slice and one payload
// arena: at most 3 allocations, less than twice the bytes it outputs.
func TestAllocDecodeDPTRBatch(t *testing.T) {
	packets := hotspot()[:benchBatch]
	body := trace.MarshalPacketsDPTR(packets)
	output := len(packets) * int(unsafe.Sizeof(trace.Packet{}))
	for i := range packets {
		output += len(packets[i].Payload)
	}

	const runs = 20
	decode := func() {
		if _, err := trace.ParsePacketsDPTR(body); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs > 3 || bytes >= 2*float64(output) {
		t.Fatalf("decoding %d packets (%d output bytes): %.1f allocations, %.0f bytes; want at most 3 and under %d",
			len(packets), output, allocs, bytes, 2*output)
	}
	t.Logf("%d packets, %d body bytes, %d output bytes: %.1f allocations, %.0f bytes", len(packets), len(body), output, allocs, bytes)
}
