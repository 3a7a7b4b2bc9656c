package dpserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func testServer(t *testing.T, total, perAnalyst float64) *httptest.Server {
	t.Helper()
	_, ts := hotspotServer(t, total, perAnalyst)
	return ts
}

// hotspotServer hosts a small hotspot trace as "hotspot".
func hotspotServer(t *testing.T, total, perAnalyst float64) (*Server, *httptest.Server) {
	t.Helper()
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 300
	cfg.Worms = 0
	cfg.LowDispersionPayloads = 0
	cfg.BackgroundStrings = 0
	cfg.BackgroundTotal = 0
	cfg.StonePairs = 0
	cfg.DecoyFlows = 0
	packets, _ := tracegen.Hotspot(cfg)
	s := New(noise.NewSeededSource(1, 2))
	s.AddPacketTrace("hotspot", packets, total, perAnalyst)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServerCountQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	port := 80
	resp, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count",
		Epsilon: 1.0, Filter: &Filter{DstPort: &port},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Values) != 1 || qr.Values[0] < 100 {
		t.Fatalf("implausible count response: %+v", qr)
	}
	if math.Abs(qr.NoiseStd-math.Sqrt2) > 1e-9 {
		t.Errorf("noiseStd %v, want sqrt(2)", qr.NoiseStd)
	}
	if math.Abs(qr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", qr.Spent)
	}
}

func TestServerHostsQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	port := 80
	resp, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts",
		Epsilon: 0.5, Filter: &Filter{DstPort: &port}, MinBytes: 1024,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	// GroupBy doubles: 0.5 query spends 1.0.
	if math.Abs(qr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", qr.Spent)
	}
}

func TestServerCDFQueries(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	for _, kind := range []string{"lencdf", "portcdf"} {
		resp, body := postQuery(t, ts, QueryRequest{
			Analyst: "bob", Dataset: "hotspot", Query: kind, Epsilon: 1.0,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", kind, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Values) == 0 || len(qr.Values) != len(qr.Buckets) {
			t.Fatalf("%s: %d values, %d buckets", kind, len(qr.Values), len(qr.Buckets))
		}
	}
}

func TestServerBudgetRefusal(t *testing.T) {
	ts := testServer(t, math.Inf(1), 1.0)
	ok, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d: %s", ok.StatusCode, body)
	}
	refused, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if refused.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget status %d: %s", refused.StatusCode, body)
	}
	var er apiError
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != codeBudgetExhausted || math.Abs(er.Remaining-0.2) > 1e-9 {
		t.Errorf("remaining %v, want 0.2", er.Remaining)
	}
	// A different analyst is unaffected.
	other, body := postQuery(t, ts, QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.8,
	})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("bob's query status %d: %s", other.StatusCode, body)
	}
}

func TestServerSharedTotalAcrossAnalysts(t *testing.T) {
	ts := testServer(t, 1.0, math.Inf(1))
	if resp, body := postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.7,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postQuery(t, ts, QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "count", Epsilon: 0.7,
	}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("shared total not enforced: status %d", resp.StatusCode)
	}
}

func TestServerValidation(t *testing.T) {
	ts := testServer(t, 1, 1)
	cases := []struct {
		req  QueryRequest
		want int
	}{
		{QueryRequest{Dataset: "hotspot", Query: "count", Epsilon: 1}, http.StatusBadRequest},          // no analyst
		{QueryRequest{Analyst: "a", Query: "count", Epsilon: 1}, http.StatusBadRequest},                // no dataset
		{QueryRequest{Analyst: "a", Dataset: "hotspot", Query: "count"}, http.StatusBadRequest},        // no epsilon
		{QueryRequest{Analyst: "a", Dataset: "nope", Query: "count", Epsilon: 1}, http.StatusNotFound}, // unknown dataset
		{QueryRequest{Analyst: "a", Dataset: "hotspot", Query: "zap", Epsilon: 1}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postQuery(t, ts, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status %d, want %d (%s)", i, resp.StatusCode, c.want, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d", resp.StatusCode)
	}
}

// TestServerDatasetsAndBudgetEndpoints: /v1/datasets lists every
// hosted dataset, of every kind, with its kind and record count, and
// /v1/budget answers for every kind.
func TestServerDatasetsAndBudgetEndpoints(t *testing.T) {
	s, ts := hotspotServer(t, 5.0, 2.0)
	links, hops := neighbourLinksAndHops()
	if err := s.AddLinkTrace("isp", links, 6, 8, 3.0, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHopTrace("scatter", hops, 3, 3.0, 1.0); err != nil {
		t.Fatal(err)
	}
	_, _ = postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 1.0,
	})
	if resp, body := postV1(t, ts.URL+"/v1/query/loadmatrix", api.MatrixRequest{Analyst: "bob", Dataset: "isp", Epsilon: 0.25}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("loadmatrix: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 3 {
		t.Fatalf("datasets: %+v", infos)
	}
	for i, want := range []struct {
		name, kind string
		records    int
		spent      float64
	}{{"hotspot", "packet", int(s.datasets["hotspot"].watermark), 1.0}, {"isp", "link", len(links), 0.25}, {"scatter", "hop", len(hops), 0}} {
		if got := infos[i]; got.Name != want.name || got.Kind != want.kind || got.Records != want.records || got.TotalSpent != want.spent {
			t.Errorf("dataset %d: %+v, want %s of kind %s, %d records, %v spent", i, got, want.name, want.kind, want.records, want.spent)
		}
	}
	if math.Abs(infos[0].TotalSpent-1.0) > 1e-9 || math.Abs(infos[0].TotalRemaining-4.0) > 1e-9 {
		t.Errorf("budget state: %+v", infos[0])
	}

	for _, c := range []struct {
		dataset, analyst string
		spent, remaining float64
	}{{"hotspot", "alice", 1.0, 1.0}, {"isp", "bob", 0.25, 0.75}, {"scatter", "bob", 0, 1.0}} {
		resp, body := getBody(t, ts.URL+"/v1/budget?dataset="+c.dataset+"&analyst="+c.analyst)
		var budget map[string]float64
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &budget) != nil {
			t.Fatalf("%s budget: %d %s", c.dataset, resp.StatusCode, body)
		}
		if math.Abs(budget["spent"]-c.spent) > 1e-9 || math.Abs(budget["remaining"]-c.remaining) > 1e-9 {
			t.Errorf("%s budget of %s: %v, want spent %v, remaining %v", c.dataset, c.analyst, budget, c.spent, c.remaining)
		}
	}
}

func TestServerConcurrentAnalysts(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				body, _ := json.Marshal(QueryRequest{
					Analyst: fmt.Sprintf("analyst-%d", id),
					Dataset: "hotspot", Query: "count", Epsilon: 0.5,
				})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFilterMatching(t *testing.T) {
	p := trace.Packet{DstPort: 80, SrcPort: 1234, Len: 100, Proto: trace.ProtoTCP}
	intp := func(v int) *int { return &v }
	cases := []struct {
		f    *Filter
		want bool
	}{
		{nil, true},
		{&Filter{}, true},
		{&Filter{DstPort: intp(80)}, true},
		{&Filter{DstPort: intp(443)}, false},
		{&Filter{SrcPort: intp(1234), MinLen: intp(50)}, true},
		{&Filter{MinLen: intp(200)}, false},
		{&Filter{Proto: intp(trace.ProtoUDP)}, false},
	}
	for i, c := range cases {
		if got := c.f.Match(&p); got != c.want {
			t.Errorf("case %d: match = %v, want %v", i, got, c.want)
		}
	}
}

func TestServerFlowQueries(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	for _, kind := range []string{"rttcdf", "losscdf"} {
		resp, body := postQuery(t, ts, QueryRequest{
			Analyst: "carol", Dataset: "hotspot", Query: kind, Epsilon: 1.0,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", kind, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Values) == 0 || len(qr.Values) != len(qr.Buckets) {
			t.Fatalf("%s: %d values, %d buckets", kind, len(qr.Values), len(qr.Buckets))
		}
		// The derived statistics cost 2x (self-join / GroupBy).
		if qr.Spent < 2.0-1e-9 {
			t.Errorf("%s: spent %v, want >= 2.0", kind, qr.Spent)
		}
	}
}

func TestServerMedianQuery(t *testing.T) {
	ts := testServer(t, math.Inf(1), math.Inf(1))
	resp, body := postQuery(t, ts, QueryRequest{
		Analyst: "dave", Dataset: "hotspot", Query: "medianlen", Epsilon: 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Values) != 1 || qr.Values[0] < 40 || qr.Values[0] > 1500 {
		t.Fatalf("implausible median length: %+v", qr)
	}
}

func TestAuditLedger(t *testing.T) {
	ts := testServer(t, math.Inf(1), 1.0)
	// One ok query (GroupBy: charged 2x epsilon), one refusal, one error.
	_, _ = postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "hosts", Epsilon: 0.4,
	})
	_, _ = postQuery(t, ts, QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.9,
	})
	_, _ = postQuery(t, ts, QueryRequest{
		Analyst: "bob", Dataset: "hotspot", Query: "bogus", Epsilon: 0.1,
	})

	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	var entries []AuditEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 3 {
		t.Fatalf("got %d audit entries, want 3", len(entries))
	}
	if entries[0].Outcome != "ok" || math.Abs(entries[0].Charged-0.8) > 1e-9 {
		t.Errorf("first entry: %+v (want ok, charged 0.8)", entries[0])
	}
	if entries[1].Outcome != "refused" || entries[1].Charged != 0 {
		t.Errorf("second entry: %+v (want refused, charged 0)", entries[1])
	}
	if entries[2].Outcome != "error" {
		t.Errorf("third entry: %+v (want error)", entries[2])
	}

	// Filtered view.
	resp, err = http.Get(ts.URL + "/v1/audit?analyst=bob")
	if err != nil {
		t.Fatal(err)
	}
	entries = nil
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 1 || entries[0].Analyst != "bob" {
		t.Fatalf("filtered audit: %+v", entries)
	}
}

func TestAuditLogBounded(t *testing.T) {
	l := new(auditLog)
	for i := 0; i < 2*ledger.AuditCap+5; i++ {
		l.add(ledger.AuditRecord{Analyst: "a"})
	}
	if got := len(l.trail()); got > ledger.AuditCap {
		t.Fatalf("audit log grew to %d entries, cap %d", got, ledger.AuditCap)
	}
}

func TestServerLinkMatrixQuery(t *testing.T) {
	gen := tracegen.IspConfig{
		Seed: 5, Links: 10, Bins: 20, MeanPacketsPerBin: 50, NoiseFrac: 0.05,
	}
	samples, truth := tracegen.IspTraffic(gen)
	s := New(noise.NewSeededSource(1, 2))
	s.AddLinkTrace("isp", samples, gen.Links, gen.Bins, math.Inf(1), math.Inf(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(api.MatrixRequest{Analyst: "alice", Dataset: "isp", Epsilon: 1.0})
	resp, err := http.Post(ts.URL+"/v1/query/loadmatrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var mr api.MatrixResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Bins != 20 || mr.Links != 10 || len(mr.Data) != 200 {
		t.Fatalf("matrix shape: %d x %d, %d cells", mr.Bins, mr.Links, len(mr.Data))
	}
	// Whole matrix costs one epsilon (nested partition).
	if math.Abs(mr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", mr.Spent)
	}
	// Spot-check one cell against truth.
	want := float64(truth.Counts[3][7])
	got := mr.Data[7*10+3]
	if math.Abs(got-want) > 20 {
		t.Errorf("cell (link 3, bin 7) = %v, want ~%v", got, want)
	}
	// Pinned release: this seed's served matrix, bit for bit (its JSON's
	// SHA-256). The route must keep drawing §5.3.1's nested Partition
	// cell by cell in this order; bench/digests.json reaches Fig 4 only
	// through internal/experiments, not through this route.
	js, _ := json.Marshal(mr.Data)
	if sum := fmt.Sprintf("%x", sha256.Sum256(js)); sum != "1313ca455065ff322aaebdc4536eddcd87d46f14b226e00abc427d785daa0b26" ||
		mr.Data[0] != 116.4352719294775 || mr.Data[199] != 125.33478661724936 || mr.Spent != 1 || mr.NoiseStd != math.Sqrt2 {
		t.Errorf("served matrix moved: data sha256 %s, data[0] %v, data[199] %v, spent %v, noiseStd %v",
			sum, mr.Data[0], mr.Data[199], mr.Spent, mr.NoiseStd)
	}
}

func TestServerMonitorAveragesQuery(t *testing.T) {
	gen := tracegen.DefaultScatterConfig()
	gen.IPsPerCluster = 50
	gen.Clusters = 3
	gen.Monitors = 6
	records, _ := tracegen.IPScatter(gen)
	s := New(noise.NewSeededSource(3, 4))
	s.AddHopTrace("scatter", records, gen.Monitors, 5.0, 2.0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(api.HopAveragesRequest{
		Analyst: "bob", Dataset: "scatter", Epsilon: 1.0, MaxHops: 32,
	})
	resp, err := http.Post(ts.URL+"/v1/query/monitoravgs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var hr api.HopAveragesResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Averages) != gen.Monitors {
		t.Fatalf("got %d averages, want %d", len(hr.Averages), gen.Monitors)
	}
	for m, avg := range hr.Averages {
		if avg < 1 || avg > 30 {
			t.Errorf("monitor %d average %v implausible", m, avg)
		}
	}
	// Pinned release: this seed's served averages, bit for bit (Fig 5's
	// digests do not reach this route either).
	pinned := []float64{18.40965646207507, 10.235504046745941, 17.685187012265164,
		18.813424393567125, 11.211173790644388, 10.981116550455647}
	if !reflect.DeepEqual(hr.Averages, pinned) || hr.Remaining != 1 {
		t.Errorf("served averages moved: %v (remaining %v), want %v (remaining 1)", hr.Averages, hr.Remaining, pinned)
	}
	// Partition max-accounting: one epsilon for all monitors.
	if math.Abs(hr.Spent-1.0) > 1e-9 {
		t.Errorf("spent %v, want 1.0", hr.Spent)
	}
	// A second query exceeding bob's 2.0 cap is refused.
	body, _ = json.Marshal(api.HopAveragesRequest{
		Analyst: "bob", Dataset: "scatter", Epsilon: 1.5, MaxHops: 32,
	})
	resp2, err := http.Post(ts.URL+"/v1/query/monitoravgs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("over-cap status %d, want 403", resp2.StatusCode)
	}
}

// TestServerLinkMatrixValidation: the extraction routes refuse unknown
// datasets and missing ε; registration and the analyses refuse
// non-positive dimensions; and an audit entry records the charge made.
func TestServerLinkMatrixValidation(t *testing.T) {
	s := New(noise.NewSeededSource(1, 1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(api.MatrixRequest{Analyst: "a", Dataset: "nope", Epsilon: 1})
	resp, err := http.Post(ts.URL+"/v1/query/loadmatrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", resp.StatusCode)
	}
	body, _ = json.Marshal(api.MatrixRequest{Analyst: "a", Dataset: "x"})
	resp, err = http.Post(ts.URL+"/v1/query/loadmatrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing epsilon status %d", resp.StatusCode)
	}

	// Registration refuses non-positive dimensions.
	inf := math.Inf(1)
	if err := s.AddLinkTrace("flat", nil, 0, 4, inf, inf); err == nil {
		t.Error("AddLinkTrace accepted 0 links")
	}
	if err := s.AddLinkTrace("flat", nil, 4, 0, inf, inf); err == nil {
		t.Error("AddLinkTrace accepted 0 bins")
	}
	if err := s.AddHopTrace("blind", nil, 0, inf, inf); err == nil {
		t.Error("AddHopTrace accepted 0 monitors")
	}
	// The analyses refuse them at query time too: a dataset hosted
	// without registration's check answers 400 at zero ε.
	s.mu.Lock()
	s.datasets["flat"] = &dataset{kind: kindLink, samples: core.NewLog[trace.LinkSample](nil), policy: core.NewAnalystPolicy(inf, inf)}
	s.datasets["blind"] = &dataset{kind: kindHop, hops: core.NewLog[trace.HopRecord](nil), policy: core.NewAnalystPolicy(inf, inf)}
	s.mu.Unlock()
	for _, c := range []struct {
		route string
		body  any
	}{
		{"/v1/query/loadmatrix", api.MatrixRequest{Analyst: "a", Dataset: "flat", Epsilon: 0.5}},
		{"/v1/query/monitoravgs", api.HopAveragesRequest{Analyst: "a", Dataset: "blind", Epsilon: 0.5}},
	} {
		if resp, body := postV1(t, ts.URL+c.route, c.body, nil); resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("positive")) {
			t.Errorf("%s on a zero-dimension dataset: %d %s, want 400 naming the dimension", c.route, resp.StatusCode, body)
		}
	}

	// The audit entry records the charge actually made: the analyst's
	// spend after the query less the spend before, as /v1/query's entry
	// does — not the requested ε (0.1 + 0.2 − 0.1 is not 0.2 in floats).
	links, hops := neighbourLinksAndHops()
	if err := s.AddLinkTrace("isp", links, 6, 8, inf, inf); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHopTrace("scatter", hops, 3, inf, inf); err != nil {
		t.Fatal(err)
	}
	// A route refuses (400, zero ε) a dataset of another kind than its own.
	for route, body := range map[string]any{
		"/v1/query":             QueryRequest{Analyst: "b", Dataset: "isp", Query: "count", Epsilon: 0.1},
		"/v1/query/loadmatrix":  api.MatrixRequest{Analyst: "b", Dataset: "scatter", Epsilon: 0.1},
		"/v1/query/monitoravgs": api.HopAveragesRequest{Analyst: "b", Dataset: "isp", Epsilon: 0.1},
	} {
		if resp, out := postV1(t, ts.URL+route, body, nil); resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("records")) {
			t.Errorf("%s on another kind's dataset: %d %s, want 400", route, resp.StatusCode, out)
		}
	}
	for _, c := range []struct {
		route string
		at    func(eps float64) any
	}{
		{"/v1/query/loadmatrix", func(eps float64) any { return api.MatrixRequest{Analyst: "b", Dataset: "isp", Epsilon: eps} }},
		{"/v1/query/monitoravgs", func(eps float64) any { return api.HopAveragesRequest{Analyst: "b", Dataset: "scatter", Epsilon: eps} }},
	} {
		var spent []float64
		for _, eps := range []float64{0.1, 0.2} {
			resp, body := postV1(t, ts.URL+c.route, c.at(eps), nil)
			var out struct{ Spent float64 }
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("%s: %d %s", c.route, resp.StatusCode, body)
			}
			spent = append(spent, out.Spent)
		}
		audit := s.Audit()
		if last := audit[len(audit)-1]; last.Charged != spent[1]-spent[0] || last.Outcome != "ok" {
			t.Errorf("%s audit entry %+v, want charged %v (spent %v → %v)", c.route, last, spent[1]-spent[0], spent[0], spent[1])
		}
	}
	for _, e := range s.Audit() {
		if (e.Dataset == "flat" || e.Dataset == "blind") && (e.Charged != 0 || e.Outcome != "error") {
			t.Errorf("zero-dimension query audited as %+v, want an error charging 0", e)
		}
	}
}

// TestServerParallelExecutionDeterminism is the end-to-end half of the
// engine's determinism guarantee: two servers over the same trace and
// noise seed, one sequential and one on four workers at threshold 1,
// must return byte-identical query results and identical budget
// state; and the parallel server must actually have taken the
// parallel path (visible in dp_parallel_exec_total).
func TestServerParallelExecutionDeterminism(t *testing.T) {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions = 500
	packets, _ := tracegen.Hotspot(cfg)

	// hosts folds in one ordered range whatever the worker count; lencdf's
	// Partition pass is the one that runs per worker range.
	run := func(parallel bool) ([]QueryResponse, float64, *Server) {
		s := New(noise.NewSeededSource(21, 22))
		s.exec = core.ExecOptions{}
		if parallel {
			// Threshold 1 so the modest test trace exercises the
			// parallel strategies.
			s.exec = core.ExecOptions{Workers: 4, Threshold: 1}
		}
		if err := s.AddPacketTrace("hotspot", packets, math.Inf(1), math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		port := 80
		var out []QueryResponse
		for _, kind := range []string{"hosts", "lencdf"} {
			body, _ := json.Marshal(QueryRequest{
				Analyst: "alice", Dataset: "hotspot", Query: kind,
				Epsilon: 0.5, Filter: &Filter{DstPort: &port}, MinBytes: 512,
			})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", kind, resp.StatusCode)
			}
			var qr QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			out = append(out, qr)
		}
		return out, s.datasets["hotspot"].policy.SpentBy("alice"), s
	}

	before := core.ParallelExecutions()
	seq, seqSpent, _ := run(false)
	mid := core.ParallelExecutions()
	if mid != before {
		t.Fatalf("sequential server took a parallel path (%d executions)", mid-before)
	}
	par, parSpent, ps := run(true)
	if core.ParallelExecutions() == mid {
		t.Fatal("parallel server never took a parallel path")
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Values, par[i].Values) {
			t.Fatalf("parallel result differs: seq %v, par %v", seq[i].Values, par[i].Values)
		}
	}
	if seqSpent != parSpent {
		t.Fatalf("budget charge differs: seq %v, par %v", seqSpent, parSpent)
	}

	// The parallel-execution counter is exposed for owner dashboards.
	rec := httptest.NewRecorder()
	ps.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte("dp_parallel_exec_total")) {
		t.Fatal("metrics exposition missing dp_parallel_exec_total")
	}
}
