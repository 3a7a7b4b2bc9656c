package dpserver

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

func packetQueryable(n int) *core.Queryable[trace.Packet] {
	q, _ := core.NewQueryable(ingestPkts(n), math.Inf(1), noise.NewSeededSource(3, 4))
	return q
}

// TestEveryRegisteredPacketKindExecutes: the registry (api/kinds.go) and
// the executor (RunPacketQuery) are two lists of the same names. Every
// registered packet kind must execute on a small trace, and a name the
// registry does not have must be refused with the registry's list — so
// neither can grow a kind the other lacks.
func TestEveryRegisteredPacketKindExecutes(t *testing.T) {
	q := packetQueryable(500)
	for _, kind := range api.QueryKinds() {
		if kind.Dataset != "packet" {
			continue
		}
		req := &QueryRequest{Query: kind.Name, Epsilon: 0.5}
		if kind.NeedsKey {
			if _, err := RunPacketQuery(q, req); err == nil || !strings.Contains(err.Error(), "key") {
				t.Errorf("%s without its key: err = %v, want a refusal naming the key", kind.Name, err)
			}
			req.Key = "10.0.0.1"
		}
		resp, err := RunPacketQuery(q, req)
		if err != nil {
			t.Errorf("registered kind %q does not execute: %v", kind.Name, err)
			continue
		}
		if len(resp.Values) == 0 || len(resp.Buckets) != 0 && len(resp.Buckets) != len(resp.Values) {
			t.Errorf("%s: %d values for %d buckets", kind.Name, len(resp.Values), len(resp.Buckets))
		}
	}
	_, err := RunPacketQuery(q, &QueryRequest{Query: "bogus", Epsilon: 0.5})
	if err == nil || !strings.Contains(err.Error(), api.PacketQueryKindList()) {
		t.Fatalf("unknown kind: err = %v, want a refusal listing %s", err, api.PacketQueryKindList())
	}
}

// TestCountPipelineAllocatesO1: the served count runs the request
// filter as a fused stage under NoisyCount, so its heap use is one
// chunk of scratch whatever the dataset size. (It used to copy the
// filtered slice just to take its length: 3.6 MB at the larger size
// here.) Bytes, not allocation counts, so the guard also holds under
// the race detector.
func TestCountPipelineAllocatesO1(t *testing.T) {
	port := 443
	req := &QueryRequest{Query: "count", Epsilon: 0.1, Filter: &api.Filter{DstPort: &port}}
	perQuery := func(n int) float64 {
		q := packetQueryable(n)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := RunPacketQuery(q, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perQuery(1<<10), perQuery(1<<16)
	if large > small+64<<10 {
		t.Fatalf("count allocates %.0f B per query over 1k packets but %.0f B over 64k: it grows with the record count", small, large)
	}
}
