package dpserver

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func packetQueryable(n int) *core.Queryable[trace.Header] {
	q, _ := core.NewQueryable(trace.Headers(ingestPkts(n)), math.Inf(1), noise.NewSeededSource(3, 4))
	return q
}

// TestEveryRegisteredPacketKindExecutes: every kind in the kind table
// must execute on a small trace, srcfreq must refuse to run without its
// key, and a name the table does not have — the link and hop
// extractions included — must be refused with the kinds' list.
func TestEveryRegisteredPacketKindExecutes(t *testing.T) {
	q := packetQueryable(500)
	if _, err := RunPacketQuery(q, &api.QueryRequest{Query: "srcfreq", Epsilon: 0.5}); err == nil || !strings.Contains(err.Error(), "key") {
		t.Errorf("srcfreq without its key: err = %v, want a refusal naming the key", err)
	}
	for _, kind := range packetKindNames() {
		resp, err := RunPacketQuery(q, &api.QueryRequest{Query: kind, Epsilon: 0.5, Key: "10.0.0.1"})
		if err != nil {
			t.Errorf("registered kind %q does not execute: %v", kind, err)
			continue
		}
		if len(resp.Values) == 0 || len(resp.Buckets) != 0 && len(resp.Buckets) != len(resp.Values) {
			t.Errorf("%s: %d values for %d buckets", kind, len(resp.Values), len(resp.Buckets))
		}
	}
	list := strings.Join(packetKindNames(), ", ")
	for _, kind := range []string{"bogus", "loadmatrix", "monitoravgs"} {
		_, err := RunPacketQuery(q, &api.QueryRequest{Query: kind, Epsilon: 0.5})
		if err == nil || !strings.Contains(err.Error(), list) {
			t.Errorf("unknown kind %q: err = %v, want a refusal listing %s", kind, err, list)
		}
	}
}

// packetKindNames lists the packet kinds' names in table order.
func packetKindNames() []string {
	var names []string
	for _, k := range PacketKinds() {
		names = append(names, k.Name)
	}
	return names
}

// midpoint is a noise source whose every draw is 0.5, where the
// inverse-CDF Laplace sampler returns exactly zero.
type midpoint struct{}

func (midpoint) Float64() float64 { return 0.5 }

// TestSrcFreqIsExactCount: under zero noise srcfreq answers the exact
// number of packets from its key, however many other sources the trace
// holds, and one added packet moves it by at most 1. (A count-min
// estimate read 24 for a key with 3 packets beside 200,000 other
// sources.)
func TestSrcFreqIsExactCount(t *testing.T) {
	key := trace.MakeIPv4(10, 0, 0, 1)
	packets := trace.Headers(ingestPkts(200_000)) // sources 0 … 199,999
	for i := range 3 {
		packets[i*1000].SrcIP = key
	}
	req := &api.QueryRequest{Query: "srcfreq", Epsilon: 0.5, Key: "10.0.0.1"}
	answer := func(packets []trace.Header) float64 {
		q, _ := core.NewQueryable(packets, math.Inf(1), midpoint{})
		resp, err := RunPacketQuery(q, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Values[0]
	}
	if got := answer(packets); got != 3 {
		t.Fatalf("srcfreq = %v under zero noise, want the exact count 3", got)
	}
	for _, added := range []trace.IPv4{key, trace.MakeIPv4(10, 0, 0, 2), 7} {
		p := packets[1]
		p.SrcIP = added
		if got := answer(append(packets[:len(packets):len(packets)], p)); math.Abs(got-3) > 1 {
			t.Errorf("a packet from %v moved srcfreq from 3 to %v", added, got)
		}
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
	req := &api.QueryRequest{Query: "count", Epsilon: 0.1, Filter: &api.Filter{DstPort: &port}}
	perQuery := func(n int) float64 {
		// One worker at both sizes, as measured since the guard was
		// written: each further worker brings its own chunk of scratch.
		q := packetQueryable(n).WithExecOptions(core.ExecOptions{})
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
	packets := trace.Headers(ingestPkts(n))
	for i := range packets {
		packets[i].SrcIP = trace.IPv4(i % 64)
	}
	q, _ := core.NewQueryable(packets, math.Inf(1), noise.NewSeededSource(3, 4))
	for _, req := range []*api.QueryRequest{
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
		"srcfreq": {{"key", "10.0.0.1", true}, {"key", "", false}, {"key", "10.0.0.256", false}, {"key", "host", false}},
	}
	for _, k := range queryKinds {
		if domain := k.widestStep; domain > 0 {
			for _, step := range []int64{0, 1, domain, domain + 1, math.MaxInt64} {
				cases[k.name] = append(cases[k.name], param{"bucketStep", step, step <= domain})
			}
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
		if err := s.AddPacketTrace("hotspot", packets, math.Inf(1), math.Inf(1)); err != nil {
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
		return seriesValue(t, scrapeText(t, tsDef), "dp_parallel_exec_total")
	}
	minLen := 100
	for _, filter := range []*api.Filter{nil, {MinLen: &minLen}} {
		for _, kind := range packetKindNames() {
			req := api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind, Epsilon: 0.1, Key: "10.0.0.1", Filter: filter}
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
// depends on the engine's scan frames, the only ones above the loop
// (DESIGN.md §S27). A/B these against the parent's test binary after
// any change to those frames, to a loop on the chunk path or to what a
// Stream carries.
// The sizes are a standing window's (1,000), spend-small's (20,000) and
// scan-large's (500,000).
func benchServed(b *testing.B, query string) {
	for _, n := range []int{1_000, 10_000, 20_000, 500_000} {
		b.Run(fmt.Sprintf("packets=%d", n), func(b *testing.B) {
			packets := benchPackets(b, n)
			s := New(noise.NewSeededSource(1, 2))
			if err := s.AddPacketTrace("bench", packets, math.Inf(1), math.Inf(1)); err != nil {
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

// benchPackets returns n hotspot packets.
func benchPackets(b *testing.B, n int) []trace.Packet {
	cfg := tracegen.DefaultHotspotConfig() // ≈ 2.6e5 packets
	f := 1.3 * float64(n) / 2.6e5
	cfg.Sessions = int(math.Ceil(float64(cfg.Sessions) * f))
	cfg.BackgroundTotal = int(math.Ceil(float64(cfg.BackgroundTotal) * f))
	cfg.StoneActivations = int(math.Ceil(float64(cfg.StoneActivations) * f))
	packets, _ := tracegen.Hotspot(cfg)
	if len(packets) < n {
		b.Fatalf("generated %d packets, want %d", len(packets), n)
	}
	return packets[:n:n]
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

// BenchmarkServedIngest POSTs 1,000-record batches through
// Server.Handler() into one growing dataset, as a live monitor feeds
// it: one op is one batch's ACK, records/s the ingest rate. The
// batches cycle through 40 pre-encoded bodies, and every 1,000 batches
// (a dataset of a million records) a fresh server takes over, off the
// clock, so the run's memory stays bounded however long it is.
//
// The -standing variants are the in-process twin of the repository
// benchmark's ingest-standing section: a durable ledger in a temporary
// directory, that section's four standing queries each tumbling at one
// batch, and batches keyed by (source, seq). Each batch's "ingest" wide
// event splits its time into decode_ms and apply_ms, so a change to
// either can be A/B'd here with two test binaries.
func BenchmarkServedIngest(b *testing.B) {
	const batch, pool, grow = 1_000, 40, 1_000
	packets := benchPackets(b, batch*pool)
	for _, enc := range []struct {
		name, contentType string
		encode            func([]trace.Packet) []byte
	}{
		{"dptr", api.ContentTypeDPTR, trace.MarshalPacketsDPTR},
		{"ndjson", api.ContentTypeNDJSON, trace.MarshalPacketsNDJSON},
	} {
		for _, standing := range []bool{false, true} {
			name := enc.name
			if standing {
				name += "-standing"
			}
			b.Run(name, func(b *testing.B) {
				bodies := make([][]byte, pool)
				for i := range bodies {
					bodies[i] = enc.encode(packets[i*batch : (i+1)*batch])
				}
				var ts *httptest.Server
				var led *ledger.Ledger
				stop := func() {
					if ts != nil {
						ts.Close()
					}
					if led != nil {
						led.Close()
					}
				}
				serve := func() {
					stop()
					var opts []ServerOption
					if standing {
						var err error
						if led, err = ledger.Open(ledger.Options{Dir: b.TempDir()}); err != nil {
							b.Fatal(err)
						}
						opts = append(opts, WithLedger(led))
					}
					s := New(noise.NewSeededSource(1, 2), opts...)
					if err := s.AddPacketTrace("bench", nil, math.Inf(1), math.Inf(1)); err != nil {
						b.Fatal(err)
					}
					ts = httptest.NewServer(s.Handler())
					if standing {
						registerIngestStanding(b, ts.URL, batch)
					}
				}
				serve()
				defer stop()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%grow == 0 {
						b.StopTimer()
						serve()
						b.StartTimer()
					}
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest/bench", bytes.NewReader(bodies[i%pool]))
					if err != nil {
						b.Fatal(err)
					}
					req.Header.Set("Content-Type", enc.contentType)
					if standing {
						req.Header.Set(api.BatchSourceHeader, "bench")
						req.Header.Set(api.BatchSeqHeader, strconv.Itoa(i))
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// registerIngestStanding registers the ingest-standing section's four
// standing queries on dataset "bench", each under its own analyst and
// tumbling at width records, with budget enough never to run out.
func registerIngestStanding(b *testing.B, base string, width int) {
	b.Helper()
	for i, spec := range []string{
		`"query":"count","filter":{"dstPort":443}`,
		`"query":"count"`,
		`"query":"distinctsrc"`,
		`"query":"lenquantile","fraction":0.5`,
	} {
		body := fmt.Sprintf(`{"analyst":"standing-%02d","id":"sq-%02d","epsilon":0.01,"reservation":1e4,"window":{"width":%d},%s}`,
			i, i, width, spec)
		resp, err := http.Post(base+"/v1/standing/bench", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("register standing %d: %d %s", i, resp.StatusCode, out)
		}
	}
}
