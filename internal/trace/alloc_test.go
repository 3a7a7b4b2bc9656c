//go:build !race

// The race detector's instrumentation inflates allocation counts, so
// this guard exists only in non-race builds; check.sh runs it in its
// non-race TestAlloc step.

package trace_test

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"dptrace/internal/trace"
)

// decodeCost is what one decode allocates, averaged over 20 runs.
//
// The count is the process's malloc count, so it also holds what the
// runtime allocates for itself; two things keep that out of it. The
// collector is off from before the warm-up to the end: a collection
// makes the runtime allocate (an m for an OS thread when the world
// restarts, the unique package's cleanup pass, a sudog once the
// central cache is dropped), and whether one lands in the 20 runs
// depends on what ran before the test. And before the runs, 256
// goroutines start, block, and exit at once, which leaves more free
// goroutine descriptors and sudogs than a single P's local cache can
// hold: a decode that hands a piece to a goroutine and waits for it
// then finds both on its own P's list or the global one, instead of
// calling runtime.malg or new(sudog) when the other P holds them all.
func decodeCost(t *testing.T, decode func() error) (allocs, bytes float64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	for i := 0; i < 10*runs; i++ {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
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
// closure and the WaitGroup (decodeCost keeps the runtime's own
// allocations, a goroutine descriptor or a semaphore waiter, out).
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
