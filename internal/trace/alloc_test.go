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

// decodeCost is what one decode allocates, averaged over 20 runs after
// a warm-up long enough for the runtime's per-CPU lists of free
// goroutines to fill, so that a decode handing pieces to goroutines
// reuses them.
func decodeCost(t *testing.T, decode func() error) (allocs, bytes float64) {
	t.Helper()
	const runs = 20
	for i := 0; i < 10*runs; i++ {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// outputBytes is what the decoded packets hold: records and payloads.
func outputBytes(packets []trace.Packet) int {
	n := len(packets) * int(unsafe.Sizeof(trace.Packet{}))
	for i := range packets {
		n += len(packets[i].Payload)
	}
	return n
}

// A 1,000-packet batch decodes into its record slice and one payload
// arena: at most 3 allocations, less than twice the bytes it outputs.
func TestAllocDecodeDPTRBatch(t *testing.T) {
	packets := hotspot()[:benchBatch]
	body := trace.MarshalPacketsDPTR(packets)
	output := outputBytes(packets)
	allocs, bytes := decodeCost(t, func() error {
		_, err := trace.ParsePacketsDPTR(body)
		return err
	})
	if allocs > 3 || bytes >= 2*float64(output) {
		t.Fatalf("decoding %d packets (%d output bytes): %.1f allocations, %.0f bytes; want at most 3 and under %d",
			len(packets), output, allocs, bytes, 2*output)
	}
	t.Logf("%d packets, %d body bytes, %d output bytes: %.1f allocations, %.0f bytes", len(packets), len(body), output, allocs, bytes)
}

// A 1,000-packet NDJSON batch decodes, in one piece or two, into one
// record slice the pieces share and at most one payload arena per
// piece, in less than twice the bytes it outputs: pieces that joined by
// copying would take twice the records. Besides those, the decoder may
// allocate its piece table and, per extra piece, the goroutine's
// closure and the WaitGroup; the runtime's own occasional allocation
// (a goroutine, a semaphore waiter) stays under one per run.
func TestAllocDecodeNDJSONBatch(t *testing.T) {
	packets := hotspot()[:benchBatch]
	body := trace.MarshalPacketsNDJSON(packets)
	output := outputBytes(packets)
	for pieces := 1; pieces <= 2; pieces++ {
		allocs, bytes := decodeCost(t, func() error {
			_, err := trace.ParsePacketsNDJSONIn(body, pieces)
			return err
		})
		limit := 2 + pieces // records, piece table, arenas
		if pieces > 1 {
			limit += pieces // closures and the WaitGroup
		}
		if allocs >= float64(limit+1) || bytes >= 2*float64(output) {
			t.Fatalf("decoding %d packets (%d output bytes) in %d pieces: %.1f allocations, %.0f bytes; want at most %d and under %d",
				len(packets), output, pieces, allocs, bytes, limit, 2*output)
		}
		t.Logf("%d packets in %d pieces, %d body bytes, %d output bytes: %.1f allocations, %.0f bytes",
			len(packets), pieces, len(body), output, allocs, bytes)
	}
}
