package dpserver

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
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

// TestKeyedKindsCopyNoRecord: hosts folds a byte total per source as the
// chunks go by and lencdf counts Partition's parts, so neither holds a
// packet: over a fixed source population hosts allocates the same at any
// size, and lencdf the index pass's 4 bytes per packet. (They used to
// materialize the filter's output and then the groups or the buckets:
// ≈ 137 and ≈ 420 bytes per packet.)
func TestKeyedKindsCopyNoRecord(t *testing.T) {
	const n = 1 << 16
	packets := ingestPkts(n)
	for i := range packets {
		packets[i].SrcIP = trace.IPv4(i % 64)
	}
	q, _ := core.NewQueryable(packets, math.Inf(1), noise.NewSeededSource(3, 4))
	for _, req := range []*QueryRequest{
		{Query: "hosts", Epsilon: 0.1},
		{Query: "lencdf", Epsilon: 0.1},
	} {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := RunPacketQuery(q, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRecord := float64(after.TotalAlloc-before.TotalAlloc) / runs / n; perRecord > 8 {
			t.Errorf("%s allocates %.1f B per packet, want ≤ 8: it is copying records again", req.Query, perRecord)
		}
	}
}

// TestBucketStepWithinDomain: every kind parameter inside its range
// answers 200, and one outside it 400 bad_request at zero ε with a
// message naming the parameter, on /v1/query and at standing
// registration — never a 500 from a bucket list too short to build
// (lencdf at 2,000 used to panic in LinearBuckets), a registration
// whose every window then fails, or a refusal blaming epsilon (what
// lenquantile's fraction and sketchEps used to get).
func TestBucketStepWithinDomain(t *testing.T) {
	s, ts := obsServer(t, math.Inf(1), 1e6)
	policy := s.datasets["hotspot"].policy
	type param struct {
		name string
		v    any
		ok   bool
	}
	cases := map[string][]param{
		"lenquantile": {{"fraction", 0, true}, {"fraction", 1, true}, {"fraction", 1.5, false}, {"fraction", -0.25, false},
			{"sketchEps", 0.01, true}, {"sketchEps", 1, false}, {"sketchEps", 2, false}, {"sketchEps", -0.5, false}},
		"srcfreq": {{"key", "10.0.0.1", true}, {"key", "", false}},
	}
	for kind, domain := range maxBucketStep {
		for _, step := range []int64{0, 1, domain, domain + 1, math.MaxInt64} {
			cases[kind] = append(cases[kind], param{"bucketStep", step, step <= domain})
		}
	}
	for kind, params := range cases {
		for _, p := range params {
			label := fmt.Sprintf("%s %s %v", kind, p.name, p.v)
			want := http.StatusOK
			if !p.ok {
				want = http.StatusBadRequest
			}
			remaining := policy.RemainingFor("a")
			resp, body := postV1(t, ts.URL+"/v1/query", map[string]any{
				"analyst": "a", "dataset": "hotspot", "query": kind, "epsilon": 0.01, p.name: p.v,
			}, nil)
			if resp.StatusCode != want {
				t.Fatalf("%s: query status %d, want %d: %s", label, resp.StatusCode, want, body)
			}
			if want == http.StatusBadRequest {
				if !strings.Contains(string(body), `"code":"bad_request"`) || !strings.Contains(string(body), p.name) ||
					policy.RemainingFor("a") != remaining {
					t.Fatalf("%s: %s, remaining %v → %v; want bad_request naming %s at zero ε",
						label, body, remaining, policy.RemainingFor("a"), p.name)
				}
			}
			resp, body = postV1(t, ts.URL+"/v1/standing/hotspot", map[string]any{
				"analyst": "mon", "query": kind, "epsilon": 0.01, "reservation": 1,
				"window": map[string]any{"width": 100}, p.name: p.v,
			}, nil)
			if resp.StatusCode != want || want == http.StatusBadRequest && !strings.Contains(string(body), p.name) {
				t.Fatalf("%s: registration status %d, want %d: %s", label, resp.StatusCode, want, body)
			}
		}
	}
	if metrics := scrapeText(t, ts); strings.Contains(metrics, "dp_panics_total") {
		t.Fatalf("a bucketStep panicked:\n%s", metrics)
	}
}

// TestServedKindsParallelByDefault: a server from New runs every scan
// over at least DefaultParallelThreshold records on GOMAXPROCS workers,
// and every packet kind, with and without a filter, answers byte for
// byte what a one-worker server with the same seed answers. With two
// or more procs, the scans behind count, lencdf, lenquantile and
// distinctsrc must have split: dp_parallel_exec_total moves for each.
func TestServedKindsParallelByDefault(t *testing.T) {
	packets := obsPackets(1400)
	if len(packets) < core.DefaultParallelThreshold {
		t.Fatalf("fixture has %d packets, want at least %d", len(packets), core.DefaultParallelThreshold)
	}
	serve := func(one bool) (*Server, *httptest.Server) {
		s := New(noise.NewSeededSource(5, 6))
		if one {
			s.exec = core.ExecOptions{}
		}
		// Finite budgets: the JSON snapshot has no encoding for +Inf.
		if err := s.AddPacketTrace("hotspot", packets, 1e9, 1e9); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	def, tsDef := serve(false)
	if want := runtime.GOMAXPROCS(0); def.exec != (core.ExecOptions{Workers: want}) {
		t.Fatalf("default execution %+v, want %d workers at the default threshold", def.exec, want)
	}
	_, tsOne := serve(true)
	split := map[string]bool{"count": true, "lencdf": true, "lenquantile": true, "distinctsrc": true}
	parallelExecs := func() float64 {
		for _, g := range scrapeJSON(t, tsDef).Gauges {
			if g.Name == "dp_parallel_exec_total" {
				return g.Value
			}
		}
		t.Fatal("no dp_parallel_exec_total gauge")
		return 0
	}
	minLen := 100
	for _, filter := range []*api.Filter{nil, {MinLen: &minLen}} {
		for _, kind := range api.PacketQueryKinds() {
			req := QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind, Epsilon: 0.1, Key: "10.0.0.1", Filter: filter}
			before := parallelExecs()
			respDef, bodyDef := postV1(t, tsDef.URL+"/v1/query", req, nil)
			moved := parallelExecs() > before
			respOne, bodyOne := postV1(t, tsOne.URL+"/v1/query", req, nil)
			label := fmt.Sprintf("%s filter=%v", kind, filter != nil)
			if respDef.StatusCode != http.StatusOK || respDef.StatusCode != respOne.StatusCode || !bytes.Equal(bodyDef, bodyOne) {
				t.Errorf("%s: default server %d %s, one worker %d %s", label, respDef.StatusCode, bodyDef, respOne.StatusCode, bodyOne)
			}
			if split[kind] && runtime.GOMAXPROCS(0) >= 2 && !moved {
				t.Errorf("%s: dp_parallel_exec_total did not move on %d procs", label, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// benchServed POSTs one query kind through Server.Handler() over n
// hotspot packets: the way an analyst gets it, and the only shape that
// measures what they get. The chunk loop hands each record to analyst
// functions by value, through a stack temporary; when that temporary
// straddles a cache line its reload stalls, and whether it straddles
// depends on the frames above the loop (DESIGN.md §S27) — a direct
// RunPacketQuery call has other frames and has read 3× faster than the
// same query served. A/B these against the parent's test binary after
// any change to a loop on the chunk path or to what a Stream carries.
// The sizes are a standing window's (1,000), spend-small's (20,000) and
// scan-large's (500,000).
func benchServed(b *testing.B, query string) {
	for _, n := range []int{1_000, 10_000, 20_000, 500_000} {
		b.Run(fmt.Sprintf("packets=%d", n), func(b *testing.B) {
			cfg := tracegen.DefaultHotspotConfig() // ≈ 2.6e5 packets
			f := 1.3 * float64(n) / 2.6e5
			cfg.Sessions = int(math.Ceil(float64(cfg.Sessions) * f))
			cfg.BackgroundTotal = int(math.Ceil(float64(cfg.BackgroundTotal) * f))
			cfg.StoneActivations = int(math.Ceil(float64(cfg.StoneActivations) * f))
			packets, _ := tracegen.Hotspot(cfg)
			if len(packets) < n {
				b.Fatalf("generated %d packets, want %d", len(packets), n)
			}
			s := New(noise.NewSeededSource(1, 2))
			if err := s.AddPacketTrace("bench", packets[:n:n], math.Inf(1), math.Inf(1)); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			body := []byte(`{"analyst":"a","dataset":"bench","epsilon":0.001,` + query + `}`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

func BenchmarkServedCount(b *testing.B) {
	benchServed(b, `"query":"count","filter":{"dstPort":443}`)
}
func BenchmarkServedHosts(b *testing.B)  { benchServed(b, `"query":"hosts","minBytes":1024`) }
func BenchmarkServedLenCDF(b *testing.B) { benchServed(b, `"query":"lencdf","bucketStep":16`) }
func BenchmarkServedPortCDF(b *testing.B) {
	benchServed(b, `"query":"portcdf","bucketStep":1024`)
}
func BenchmarkServedLenQuantile(b *testing.B) {
	benchServed(b, `"query":"lenquantile","fraction":0.5`)
}
func BenchmarkServedDistinctSrc(b *testing.B) { benchServed(b, `"query":"distinctsrc"`) }
