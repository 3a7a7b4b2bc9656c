package dpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/trace"
	"dptrace/internal/vfs"
)

// These are the standing-query subsystem's acceptance tests. The two
// load-bearing invariants (ISSUE 9):
//
//   - ε/noise parity: a standing window's noise draws and charges are
//     byte-identical to an equivalent one-shot query over the same
//     frozen records at the same point in the draw sequence, and the
//     window schedule is a pure function of the record sequence — how
//     ingest batches chunk it must not matter.
//   - Crash safety: registrations, window cursors, and the result ring
//     replay identically across a kill; a window is never charged
//     twice and never skipped.

// standingServer hosts one live packet dataset with unlimited budgets.
func standingServer(t *testing.T, seed []trace.Packet) (*Server, *httptest.Server) {
	t.Helper()
	s := New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("live", seed, math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getBody GETs url and returns the response and body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// registerStanding POSTs a registration and decodes the minted info.
func registerStanding(t *testing.T, base string, req api.StandingRequest) api.StandingInfo {
	t.Helper()
	resp, body := postV1(t, base+"/v1/standing/live", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var reg api.StandingRegistered
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	return reg.Info
}

// standingResults fetches and decodes one query's results.
func standingResults(t *testing.T, base, dataset, id string) ([]api.StandingResult, api.StandingResults) {
	t.Helper()
	resp, body := getBody(t, fmt.Sprintf("%s/v1/standing/%s/%s/results", base, dataset, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d: %s", resp.StatusCode, body)
	}
	var out api.StandingResults
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	decoded, err := out.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	return decoded, out
}

func TestStandingEndToEnd(t *testing.T) {
	s, ts := standingServer(t, nil)

	info := registerStanding(t, ts.URL, api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 10,
		Window: api.StandingWindow{Width: 20},
	})
	if info.ID != "sq-1" || info.Base != 0 || info.Status != "active" {
		t.Fatalf("registration info %+v", info)
	}

	// 50 records close windows [0,20) and [20,40); [40,60) stays open.
	resp, body := postIngest(t, ts.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(ingestPkts(50)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}

	results, out := standingResults(t, ts.URL, "live", info.ID)
	if len(results) != 2 || out.NextWindow != 2 {
		t.Fatalf("got %d results (next %d), want 2 windows fired", len(results), out.NextWindow)
	}
	for i, r := range results {
		if r.Window != uint64(i) || r.Start != uint64(i*20) || r.End != uint64(i*20+20) {
			t.Fatalf("window %d coordinates %+v", i, r)
		}
		if r.Outcome != "ok" || r.Charged != 0.1 || len(r.Values) != 1 {
			t.Fatalf("window %d outcome %+v", i, r)
		}
	}
	if results[1].Spent != 0.2 {
		t.Fatalf("cumulative spend %v after window 1, want 0.2", results[1].Spent)
	}
	// The windows charged the analyst's real budget.
	if got := s.datasets["live"].policy.SpentBy("mon"); got != 0.2 {
		t.Fatalf("policy spend %v, want 0.2", got)
	}

	// /v1/datasets reads the same watermark the scheduler fired on.
	resp, body = getBody(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"records":50`)) {
		t.Fatalf("datasets watermark: %s", body)
	}

	// List, then cancel; the repeat cancel is an idempotent no-op.
	resp, body = getBody(t, ts.URL+"/v1/standing/live")
	var list api.StandingList
	if err := json.Unmarshal(body, &list); err != nil || len(list.Queries) != 1 {
		t.Fatalf("list: %s (err %v)", body, err)
	}
	if list.Queries[0].Spent != 0.2 || list.Queries[0].NextWindow != 2 {
		t.Fatalf("listed info %+v", list.Queries[0])
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/standing/live/"+info.ID, nil)
	for i, wantAlready := range []bool{false, true} {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var cr api.StandingCanceled
		if err := json.Unmarshal(b, &cr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %d: %d %s", i, resp.StatusCode, b)
		}
		if cr.AlreadyCanceled != wantAlready || cr.Info.Status != "canceled" {
			t.Fatalf("cancel %d: %+v, want alreadyCanceled=%v", i, cr, wantAlready)
		}
	}

	// Canceled: further ingest fires nothing, results stay readable.
	postIngest(t, ts.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(ingestPkts(50)))
	results, out = standingResults(t, ts.URL, "live", info.ID)
	if len(results) != 2 || out.Status != "canceled" {
		t.Fatalf("after cancel: %d results, status %s", len(results), out.Status)
	}
}

// TestStandingOneShotParity is the ε/noise parity acceptance test: a
// standing window must produce the byte-level same noisy answer and
// the same charge as a one-shot query over the same records on a twin
// server with the same seeded noise source.
func TestStandingOneShotParity(t *testing.T) {
	port80 := 80
	pkts := ingestPkts(40)

	// Server A: empty seed, standing query, window closed by ingest.
	_, tsA := standingServer(t, nil)
	info := registerStanding(t, tsA.URL, api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.3, Reservation: 3,
		Window: api.StandingWindow{Width: 40},
		Filter: &api.Filter{DstPort: &port80},
	})
	if resp, body := postIngest(t, tsA.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(pkts)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	results, _ := standingResults(t, tsA.URL, "live", info.ID)
	if len(results) != 1 || results[0].Outcome != "ok" {
		t.Fatalf("standing results %+v, want one ok window", results)
	}

	// Server B: the same 40 records pre-seeded, one one-shot query.
	_, tsB := standingServer(t, pkts)
	resp, body := postV1(t, tsB.URL+"/v1/query", api.QueryRequest{
		Analyst: "mon", Dataset: "live", Query: "count", Epsilon: 0.3,
		Filter: &api.Filter{DstPort: &port80},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot: %d %s", resp.StatusCode, body)
	}
	var oneShot api.QueryResponse
	if err := json.Unmarshal(body, &oneShot); err != nil {
		t.Fatal(err)
	}

	win := results[0]
	if len(win.Values) != 1 || win.Values[0] != oneShot.Values[0] {
		t.Fatalf("noise divergence: window %v, one-shot %v — draws are not byte-identical",
			win.Values, oneShot.Values)
	}
	if win.NoiseStd != oneShot.NoiseStd {
		t.Fatalf("noiseStd %v vs %v", win.NoiseStd, oneShot.NoiseStd)
	}
	if win.Charged != oneShot.Spent {
		t.Fatalf("charge divergence: window charged %v, one-shot spent %v", win.Charged, oneShot.Spent)
	}
}

// TestStandingChunkingDeterminism: the window schedule is defined on
// the record sequence, so the same 60 records ingested as one batch or
// as ragged chunks must fire the same windows with identical noisy
// results and charges (only the fire wall-times may differ).
func TestStandingChunkingDeterminism(t *testing.T) {
	pkts := ingestPkts(60)
	chunkings := [][]int{{60}, {7, 13, 25, 15}, {1, 19, 20, 11, 9}}
	var wantBodies [][]byte
	var wantSpent float64

	for ci, chunks := range chunkings {
		s, ts := standingServer(t, nil)
		info := registerStanding(t, ts.URL, api.StandingRequest{
			Analyst: "mon", Query: "count", Epsilon: 0.05, Reservation: 5,
			// Sliding: width 15, stride 10 — overlap stresses the
			// boundary math hardest.
			Window: api.StandingWindow{Width: 15, Stride: 10},
		})
		off := 0
		for _, n := range chunks {
			if resp, body := postIngest(t, ts.URL+"/v1/ingest/live",
				trace.MarshalPacketsNDJSON(pkts[off:off+n])); resp.StatusCode != http.StatusOK {
				t.Fatalf("chunking %d: ingest %d %s", ci, resp.StatusCode, body)
			}
			off += n
		}
		results, out := standingResults(t, ts.URL, "live", info.ID)
		if out.NextWindow != 5 {
			t.Fatalf("chunking %d: fired %d windows, want 5", ci, out.NextWindow)
		}
		// Compare the journaled bodies with the wall-time stamp zeroed:
		// everything else — bounds, values, charges, spend — must be
		// byte-identical across chunkings.
		bodies := make([][]byte, len(results))
		var spent float64
		for i, r := range results {
			r.Time = 0
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = b
			spent = r.Spent
		}
		if ci == 0 {
			wantBodies, wantSpent = bodies, spent
			continue
		}
		for i := range wantBodies {
			if !bytes.Equal(bodies[i], wantBodies[i]) {
				t.Fatalf("chunking %d window %d diverged:\n one-batch: %s\n  chunked: %s",
					ci, i, wantBodies[i], bodies[i])
			}
		}
		if got := s.datasets["live"].policy.SpentBy("mon"); got != wantSpent {
			t.Fatalf("chunking %d: policy spend %v, want %v", ci, got, wantSpent)
		}
	}
}

// TestStandingExhaustion: the reservation is a hard ceiling — the
// window that would overdraw it is refused before executing, charges
// nothing, and stops the query.
func TestStandingExhaustion(t *testing.T) {
	s, ts := standingServer(t, nil)
	info := registerStanding(t, ts.URL, api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.2, Reservation: 0.5,
		Window: api.StandingWindow{Width: 10},
	})
	// 40 records offer 4 windows; the reservation affords 2.
	postIngest(t, ts.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(ingestPkts(40)))

	results, out := standingResults(t, ts.URL, "live", info.ID)
	if out.Status != "exhausted" {
		t.Fatalf("status %q, want exhausted", out.Status)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 2 ok + 1 refusal", len(results))
	}
	last := results[2]
	if last.Outcome != "exhausted" || last.Charged != 0 || last.Error == "" {
		t.Fatalf("refusal window %+v, want exhausted at zero charge", last)
	}
	if got := s.datasets["live"].policy.SpentBy("mon"); got != 0.4 {
		t.Fatalf("policy spend %v, want exactly the 2 affordable windows (0.4)", got)
	}
	// The stop is terminal: more records fire nothing.
	postIngest(t, ts.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(ingestPkts(40)))
	if _, out := standingResults(t, ts.URL, "live", info.ID); out.NextWindow != 3 {
		t.Fatalf("exhausted query advanced to %d", out.NextWindow)
	}
}

// TestStandingLongPoll: an empty poll with waitMs parks until a window
// commits (or a cancel stops the query), then returns immediately.
func TestStandingLongPoll(t *testing.T) {
	_, ts := standingServer(t, nil)
	info := registerStanding(t, ts.URL, api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 10,
		Window: api.StandingWindow{Width: 10},
	})

	type poll struct {
		out api.StandingResults
		dur time.Duration
	}
	ch := make(chan poll, 1)
	go func() {
		t0 := time.Now()
		resp, err := http.Get(fmt.Sprintf("%s/v1/standing/live/%s/results?after=0&waitMs=20000", ts.URL, info.ID))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var out api.StandingResults
		_ = json.NewDecoder(resp.Body).Decode(&out)
		ch <- poll{out, time.Since(t0)}
	}()

	time.Sleep(50 * time.Millisecond) // let the poll park
	postIngest(t, ts.URL+"/v1/ingest/live", trace.MarshalPacketsNDJSON(ingestPkts(10)))

	select {
	case p := <-ch:
		if len(p.out.Results) != 1 || p.out.NextWindow != 1 {
			t.Fatalf("long-poll returned %+v", p.out)
		}
		if p.dur >= 20*time.Second {
			t.Fatalf("poll waited the full timeout (%v) instead of waking on commit", p.dur)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after the window committed")
	}

	// A poll past the cursor wakes on cancel with the terminal status.
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/standing/live/%s/results?after=1&waitMs=20000", ts.URL, info.ID))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var out api.StandingResults
		_ = json.NewDecoder(resp.Body).Decode(&out)
		ch <- poll{out: out}
	}()
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/standing/live/"+info.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %v", err, resp)
	}
	select {
	case p := <-ch:
		if p.out.Status != "canceled" || len(p.out.Results) != 0 {
			t.Fatalf("cancel wake returned %+v", p.out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke on cancel")
	}
}

func TestStandingValidation(t *testing.T) {
	_, ts := standingServer(t, nil)
	cases := []struct {
		name string
		req  api.StandingRequest
		url  string
		want int
	}{
		{"unknown kind", api.StandingRequest{Analyst: "a", Query: "dnslookup", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"retired link kind", api.StandingRequest{Analyst: "a", Query: "loadmatrix", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"retired hop kind", api.StandingRequest{Analyst: "a", Query: "monitoravgs", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"missing analyst", api.StandingRequest{Query: "count", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"no window", api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.1, Reservation: 1}, "/v1/standing/live", http.StatusBadRequest},
		{"both windows", api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10, EveryMs: 100}}, "/v1/standing/live", http.StatusBadRequest},
		{"reservation below epsilon", api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.5, Reservation: 0.1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"bad id", api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.1, Reservation: 1, ID: "no spaces", Window: api.StandingWindow{Width: 10}}, "/v1/standing/live", http.StatusBadRequest},
		{"unknown dataset", api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.1, Reservation: 1, Window: api.StandingWindow{Width: 10}}, "/v1/standing/ghost", http.StatusNotFound},
	}
	for _, tc := range cases {
		if resp, body := postV1(t, ts.URL+tc.url, tc.req, nil); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/v1/standing/live/ghost/results"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("results of unknown id: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/standing/live/ghost", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown id: %v, want 404", resp)
	}
	// Duplicate explicit IDs are refused; distinct registrations with
	// the same idempotency key are replayed, not re-registered.
	ok := api.StandingRequest{Analyst: "a", Query: "count", Epsilon: 0.1, Reservation: 1,
		ID: "dup", Window: api.StandingWindow{Width: 10}}
	if resp, body := postV1(t, ts.URL+"/v1/standing/live", ok, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first dup: %d %s", resp.StatusCode, body)
	}
	if resp, _ := postV1(t, ts.URL+"/v1/standing/live", ok, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate id: %d, want 400", resp.StatusCode)
	}
}

// TestStandingIdempotentRegister: a retried registration with the same
// key replays the original response — one registration, not two.
func TestStandingIdempotentRegister(t *testing.T) {
	s, ts := standingServer(t, nil)
	req := api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 1,
		Window: api.StandingWindow{Width: 10}, IdempotencyKey: "reg-key-1",
	}
	_, body1 := postV1(t, ts.URL+"/v1/standing/live", req, nil)
	_, body2 := postV1(t, ts.URL+"/v1/standing/live", req, nil)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("idempotent retry diverged:\n1: %s\n2: %s", body1, body2)
	}
	if n := len(s.standing.List("live")); n != 1 {
		t.Fatalf("%d registrations after retry, want 1", n)
	}
}

// TestStandingKillRestart is the crash acceptance test: kill the
// server mid-stream, restart over the same WAL, and the registration,
// cursor, spend, and result ring must land bit-identically — then the
// stream resumes with no window charged twice and none skipped.
func TestStandingKillRestart(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	_, ts1 := ledgerServer(t, led1, 100, 100)

	// Base is the seed watermark (64 records), so window 0 is [64,84).
	resp, body := postV1(t, ts1.URL+"/v1/standing/hotspot", api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 1,
		Window: api.StandingWindow{Width: 20},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg api.StandingRegistered
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	id := reg.Info.ID

	// 30 live records: watermark 94 closes [64,84); [84,104) stays open.
	if resp, body := postIngest(t, ts1.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(30))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	_, preResults := getBody(t, ts1.URL+"/v1/standing/hotspot/"+id+"/results")
	_, preList := getBody(t, ts1.URL+"/v1/standing/hotspot")

	// Kill: no shutdown, no ledger close.
	ts1.Close()

	led2 := openLedger(t, dir)
	defer led2.Close()
	s2, ts2 := ledgerServer(t, led2, 100, 100)

	// Replay parity: the results endpoint serves the journaled bytes,
	// so the full response must be byte-identical to the pre-kill one.
	_, postResults := getBody(t, ts2.URL+"/v1/standing/hotspot/"+id+"/results")
	if !bytes.Equal(preResults, postResults) {
		t.Fatalf("result replay not byte-identical:\n pre: %s\npost: %s", preResults, postResults)
	}
	_, postList := getBody(t, ts2.URL+"/v1/standing/hotspot")
	if !bytes.Equal(preList, postList) {
		t.Fatalf("registration replay diverged:\n pre: %s\npost: %s", preList, postList)
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("mon"); got != 0.1 {
		t.Fatalf("replayed standing spend %v, want 0.1", got)
	}

	// Never charged twice: live records are in-memory, so the stream
	// re-sends them after the crash (without idempotency identity, so
	// they re-append). The watermark passes window 0's close again —
	// the restored cursor must not re-fire it.
	if resp, body := postIngest(t, ts2.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(30))); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-ingest: %d %s", resp.StatusCode, body)
	}
	results, out := standingResults(t, ts2.URL, "hotspot", id)
	if out.NextWindow != 1 || len(results) != 1 {
		t.Fatalf("window 0 re-fired after restart: next=%d results=%d", out.NextWindow, len(results))
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("mon"); got != 0.1 {
		t.Fatalf("double charge after restart: spend %v, want 0.1", got)
	}

	// Never skipped: the next 10 records close [84,104) and it fires
	// exactly once, continuing the cursor.
	if resp, body := postIngest(t, ts2.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(10))); resp.StatusCode != http.StatusOK {
		t.Fatalf("catch-up ingest: %d %s", resp.StatusCode, body)
	}
	results, out = standingResults(t, ts2.URL, "hotspot", id)
	if out.NextWindow != 2 || len(results) != 2 {
		t.Fatalf("window 1 after restart: next=%d results=%d", out.NextWindow, len(results))
	}
	if results[1].Start != 84 || results[1].End != 104 || results[1].Outcome != "ok" {
		t.Fatalf("resumed window %+v, want ok [84,104)", results[1])
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("mon"); got != 0.2 {
		t.Fatalf("resumed spend %v, want 0.2", got)
	}
}

// TestStandingRestoreUndecodableRequest: a persisted registration whose
// request does not decode is left out of the restore, and the restore
// says so. Installed, its windows would fire with zero-valued
// parameters: a filtered count would count every record.
func TestStandingRestoreUndecodableRequest(t *testing.T) {
	dir := t.TempDir()
	led1 := openLedger(t, dir)
	ledgerServer(t, led1, 100, 100)
	if err := led1.Append(ledger.Event{
		Type: ledger.EventStandingRegistered, Dataset: "hotspot",
		Analyst: "mon", Standing: "sq-1", Query: "count",
		Epsilon: 0.1, Reservation: 1, Width: 20, Base: 64,
		Body: []byte("not json"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}

	led2 := openLedger(t, dir)
	defer led2.Close()
	events := qlog.New(qlog.Options{})
	s2 := New(noise.NewSeededSource(1, 2), WithLedger(led2), WithEventLog(events))
	if err := s2.AddPacketTrace("hotspot", restartTrace(), 100, 100); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	failed := false
	for _, e := range events.Recent(0) {
		failed = failed || e.Name == "standing_restore_failed"
	}
	if !failed {
		t.Error("no standing_restore_failed event for the undecodable registration")
	}
	_, body := getBody(t, ts2.URL+"/v1/standing/hotspot")
	var list api.StandingList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Queries) != 0 {
		t.Fatalf("restored %d standing queries from an undecodable registration: %s", len(list.Queries), body)
	}
	// 30 records would close the registration's first window.
	if resp, body := postIngest(t, ts2.URL+"/v1/ingest/hotspot",
		trace.MarshalPacketsNDJSON(ingestPkts(30))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if got := s2.datasets["hotspot"].policy.SpentBy("mon"); got != 0 {
		t.Fatalf("a window of the undecodable registration charged %v", got)
	}
}

// TestStandingRestoreRefusesUnrunnableRequest: a persisted registration
// whose request decodes but names a kind this server does not serve, or
// parameters its kind cannot run with, is logged standing_restore_failed
// and not installed, as /v1/standing would have refused it at the door.
func TestStandingRestoreRefusesUnrunnableRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  api.StandingRequest
	}{
		{"unknown kind", api.StandingRequest{Query: "loadmatrix"}},
		{"bucketStep wider than the domain", api.StandingRequest{Query: "lencdf", BucketStep: 2000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			led1 := openLedger(t, dir)
			ledgerServer(t, led1, 100, 100)
			tc.req.Analyst, tc.req.Epsilon, tc.req.Reservation = "mon", 0.1, 1
			tc.req.Window = api.StandingWindow{Width: 20}
			stored, _ := json.Marshal(tc.req)
			if err := led1.Append(ledger.Event{
				Type: ledger.EventStandingRegistered, Dataset: "hotspot",
				Analyst: "mon", Standing: "sq-1", Query: tc.req.Query,
				Epsilon: 0.1, Reservation: 1, Width: 20, Base: 64, Body: stored,
			}); err != nil {
				t.Fatal(err)
			}
			if err := led1.Close(); err != nil {
				t.Fatal(err)
			}

			led2 := openLedger(t, dir)
			defer led2.Close()
			events := qlog.New(qlog.Options{})
			s2 := New(noise.NewSeededSource(1, 2), WithLedger(led2), WithEventLog(events))
			if err := s2.AddPacketTrace("hotspot", restartTrace(), 100, 100); err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			if len(eventsNamed(s2, "standing_restore_failed")) != 1 {
				t.Error("no standing_restore_failed event for the unrunnable registration")
			}
			_, body := getBody(t, ts2.URL+"/v1/standing/hotspot")
			var list api.StandingList
			if err := json.Unmarshal(body, &list); err != nil {
				t.Fatal(err)
			}
			if len(list.Queries) != 0 {
				t.Fatalf("restored %d standing queries from an unrunnable registration: %s", len(list.Queries), body)
			}
		})
	}
}

// TestStandingLedgerFaultFailsClosed: when the standing_window append
// hits a dead WAL mid-flight, the in-memory charge is rolled back, the
// cursor stays, and the degraded gate blocks all further firing.
func TestStandingLedgerFaultFailsClosed(t *testing.T) {
	s, ts, fsys, _ := faultLedgerServer(t, math.Inf(1), math.Inf(1))

	resp, body := postV1(t, ts.URL+"/v1/standing/hotspot", api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: 0.1, Reservation: 1,
		Window: api.StandingWindow{Width: 20},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg api.StandingRegistered
	_ = json.Unmarshal(body, &reg)
	id := reg.Info.ID

	// Window 0 ([64,84)) fires healthy.
	postIngest(t, ts.URL+"/v1/ingest/hotspot", trace.MarshalPacketsNDJSON(ingestPkts(20)))
	if got := s.datasets["hotspot"].policy.SpentBy("mon"); got != 0.1 {
		t.Fatalf("healthy window spend %v, want 0.1", got)
	}

	// Kill the WAL. The next batch is admitted (the ledger has not yet
	// refused anything), applies, and closes window 1 — whose journal
	// append now fails. The charge must roll back and the cursor hold.
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO, Sticky: true})
	postIngest(t, ts.URL+"/v1/ingest/hotspot", trace.MarshalPacketsNDJSON(ingestPkts(20)))

	if got := s.datasets["hotspot"].policy.SpentBy("mon"); got != 0.1 {
		t.Fatalf("unjournaled window left a charge: spend %v, want 0.1", got)
	}
	results, out := standingResults(t, ts.URL, "hotspot", id)
	if out.NextWindow != 1 || len(results) != 1 || out.Status != "active" {
		t.Fatalf("unjournaled window moved state: next=%d results=%d status=%s",
			out.NextWindow, len(results), out.Status)
	}

	// The failed append degraded the ledger: ingest now sheds, so no
	// further window can fire — fail closed end to end.
	resp, body = postIngest(t, ts.URL+"/v1/ingest/hotspot", trace.MarshalPacketsNDJSON(ingestPkts(20)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded: %d %s", resp.StatusCode, body)
	}
	if got := s.StandingStats().Windows; got != 1 {
		t.Fatalf("windows fired after degrade: %d, want 1", got)
	}
}
