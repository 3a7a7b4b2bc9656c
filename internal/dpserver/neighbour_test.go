package dpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

// TestAnalystRoutesNeighbourDiff is the privacy contract of every
// analyst-facing route (Route.Owner false), checked end to end: two
// servers drawing from one noise seed, one hosting D and one hosting
// D′ = D plus one adversarial record, must answer every such route with
// the same status and the same body once the released noisy numbers
// (and wall times) are masked. Anything else that differs is data the
// noise does not cover — a record count, a size-chosen strategy.
//
// It runs at the server's default execution width and again with two
// workers at |D| = DefaultParallelThreshold − 1, where D′ crosses the
// size at which the engine goes parallel — on any host, one CPU
// included. Timing is a side channel it does not cover: a scan's
// latency drops once |D| reaches the threshold (DESIGN.md §S31).
func TestAnalystRoutesNeighbourDiff(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		runNeighbourDiff(t, obsPackets(300), 0)
	})
	t.Run("parallel", func(t *testing.T) {
		packets := obsPackets(1400)
		n := core.DefaultParallelThreshold - 1
		if len(packets) < n {
			t.Fatalf("fixture has %d packets, want at least %d", len(packets), n)
		}
		runNeighbourDiff(t, packets[:n], 2)
	})
}

// obsPackets is a hotspot trace of only sessions (no worms, payload
// strings, background or stepping stones): 7,276 packets at 300.
func obsPackets(sessions int) []trace.Packet {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = sessions
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	packets, _ := tracegen.Hotspot(cfg)
	return packets
}

// released names the response fields that carry noisy releases, plus
// wall times: the only fields allowed to differ between neighbours.
var released = []string{"values", "durationNs"}

// standingExempt are the standing-query fields that still show the
// record watermark (base, a window's start and end) or track it (fire
// time). They leave analyst responses when windows move to record time
// (ROADMAP item 3); until then they are the named exceptions.
var standingExempt = []string{"base", "start", "end", "time"}

// neighbourCase exercises one route on both servers.
type neighbourCase struct {
	route  string // "METHOD /path", as in routeTable
	exempt []string
	run    func(p *neighbourPair)
}

var neighbourCases = []neighbourCase{
	{route: "POST /query", run: func(p *neighbourPair) {
		for _, kind := range packetKindNames() {
			req := api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind, Epsilon: 0.1, Key: "10.0.0.1"}
			p.compare("POST", "/v1/query", req, false)
			p.compare("POST", "/v1/query", req, true)
		}
	}},
	{route: "GET /budget", run: func(p *neighbourPair) {
		p.compare("GET", "/v1/budget?dataset=hotspot&analyst=a", nil, false)
	}},
	// The standing cases run in order: register, let the owner ingest
	// one batch into both servers (two windows fire), then read and
	// cancel.
	{route: "POST /standing/{dataset}", exempt: standingExempt, run: func(p *neighbourPair) {
		p.compare("POST", "/v1/standing/hotspot", api.StandingRequest{
			Analyst: "mon", ID: "watch", Query: "lencdf", Epsilon: 0.1, Reservation: 10,
			Window: api.StandingWindow{Width: 50},
		}, false)
		p.ingest("hotspot", ingestPkts(120))
	}},
	{route: "GET /standing/{dataset}", exempt: standingExempt, run: func(p *neighbourPair) {
		p.compare("GET", "/v1/standing/hotspot", nil, false)
	}},
	{route: "GET /standing/{dataset}/{id}/results", exempt: standingExempt, run: func(p *neighbourPair) {
		p.compare("GET", "/v1/standing/hotspot/watch/results", nil, false)
	}},
	{route: "DELETE /standing/{dataset}/{id}", exempt: standingExempt, run: func(p *neighbourPair) {
		p.compare("DELETE", "/v1/standing/hotspot/watch", nil, false)
	}},
	// An owner route kept as the harness's control: the listing shows
	// the dataset's size, so the two servers must differ here. Marking
	// /datasets analyst-facing turns the control into a failure.
	{route: "GET /datasets", run: func(p *neighbourPair) {
		p.compare("GET", "/v1/datasets", nil, false)
	}},
}

func runNeighbourDiff(t *testing.T, packets []trace.Packet, workers int) {
	covered := map[string]bool{}
	for _, c := range neighbourCases {
		covered[c.route] = true
	}
	owner := map[string]bool{}
	for _, rt := range Routes() {
		key := rt.Method + " " + rt.Path
		owner[key] = rt.Owner
		if !rt.Owner && !covered[key] {
			t.Errorf("analyst route %s has no neighbour case", key)
		}
	}

	p := &neighbourPair{t: t,
		d:  neighbourServer(t, packets, workers),
		d1: neighbourServer(t, append(packets[:len(packets):len(packets)], adversarialPacket(t, packets)), workers),
	}
	for _, c := range neighbourCases {
		p.mask = map[string]bool{}
		for _, k := range append(append([]string(nil), released...), c.exempt...) {
			p.mask[k] = true
		}
		p.diffs = nil
		c.run(p)
		switch {
		case owner[c.route] && len(p.diffs) == 0:
			t.Errorf("%s (owner control): D and D′ answered alike; the harness cannot see a size", c.route)
		case !owner[c.route]:
			for _, d := range p.diffs {
				t.Errorf("%s: %s", c.route, d)
			}
		}
	}
}

// adversarialPacket is a record D does not have: a new source and a
// length no packet of D carries, last in time.
func adversarialPacket(t *testing.T, packets []trace.Packet) trace.Packet {
	t.Helper()
	src := trace.MakeIPv4(203, 0, 113, 7)
	lengths := map[uint16]bool{}
	for _, p := range packets {
		if p.SrcIP == src {
			t.Fatalf("fixture already has source %v", src)
		}
		lengths[p.Len] = true
	}
	length := uint16(1500)
	for lengths[length] {
		length--
	}
	last := packets[len(packets)-1]
	return trace.Packet{Header: trace.Header{Time: last.Time + 1, SrcIP: src, DstIP: last.DstIP,
		SrcPort: 40000, DstPort: 80, Proto: trace.ProtoTCP, Len: length}}
}

// neighbourServer hosts packets with unlimited budgets and the noise
// seed every neighbour shares, at workers workers above the default
// threshold (0: the server's default width).
func neighbourServer(t *testing.T, packets []trace.Packet, workers int) *httptest.Server {
	t.Helper()
	s := New(noise.NewSeededSource(1, 2))
	if workers > 0 {
		s.exec = core.ExecOptions{Workers: workers}
	}
	inf := math.Inf(1)
	if err := s.AddPacketTrace("hotspot", packets, inf, inf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// neighbourPair sends each request to the server on D and the one on
// D′ and collects how the masked answers differ.
type neighbourPair struct {
	t     *testing.T
	d, d1 *httptest.Server
	mask  map[string]bool
	diffs []string
}

func (p *neighbourPair) compare(method, path string, body any, explain bool) {
	p.t.Helper()
	var raw []byte
	if body != nil {
		raw, _ = json.Marshal(body)
	}
	header := map[string]string{}
	if explain {
		header[api.ExplainHeader] = "true"
	}
	codeD, outD := p.send(p.d, method, path, raw, header)
	codeD1, outD1 := p.send(p.d1, method, path, raw, header)
	if codeD != http.StatusOK || codeD1 != http.StatusOK {
		p.t.Fatalf("%s %s (explain %v): status %d on D, %d on D′: %s / %s", method, path, explain, codeD, codeD1, outD, outD1)
	}
	var differ []string
	diffJSON(p.masked(outD), p.masked(outD1), "", &differ)
	for _, d := range differ {
		p.diffs = append(p.diffs, fmt.Sprintf("%s %s (explain %v): %s", method, path, explain, d))
	}
}

// diffJSON appends "path: D value ≠ D′ value" for each place decoded
// JSON values a and b differ.
func diffJSON(a, b any, at string, out *[]string) {
	ma, aIsMap := a.(map[string]any)
	mb, bIsMap := b.(map[string]any)
	if aIsMap && bIsMap {
		keys := map[string]bool{}
		for k := range ma {
			keys[k] = true
		}
		for k := range mb {
			keys[k] = true
		}
		for k := range keys {
			diffJSON(ma[k], mb[k], at+"."+k, out)
		}
		return
	}
	la, aIsList := a.([]any)
	lb, bIsList := b.([]any)
	if aIsList && bIsList && len(la) == len(lb) {
		for i := range la {
			diffJSON(la[i], lb[i], fmt.Sprintf("%s[%d]", at, i), out)
		}
		return
	}
	if !reflect.DeepEqual(a, b) {
		*out = append(*out, fmt.Sprintf("%s: %v ≠ %v", at, a, b))
	}
}

// ingest appends the same batch to both datasets (an owner action).
func (p *neighbourPair) ingest(dataset string, packets []trace.Packet) {
	p.t.Helper()
	header := map[string]string{"Content-Type": api.ContentTypeNDJSON}
	for _, ts := range []*httptest.Server{p.d, p.d1} {
		if code, out := p.send(ts, "POST", api.IngestPath(dataset), trace.MarshalPacketsNDJSON(packets), header); code != http.StatusOK {
			p.t.Fatalf("ingest: status %d: %s", code, out)
		}
	}
}

func (p *neighbourPair) send(ts *httptest.Server, method, path string, body []byte, header map[string]string) (int, []byte) {
	p.t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		p.t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// masked decodes a JSON body and drops every masked field, at any
// depth.
func (p *neighbourPair) masked(body []byte) any {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		p.t.Fatalf("body is not JSON: %s", body)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if p.mask[k] {
					delete(v, k)
					continue
				}
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(v)
	return v
}
