package dpserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
	"dptrace/internal/vfs"
)

// These are the ingest API's acceptance tests: watermark admission
// must shed deterministically and never exceed the configured memory
// bound, concurrent shedding must leave exact batch/record counts (a
// batch is all-or-nothing), queries racing appends must see whole
// consistent snapshots and charge ε exactly once, and the lifecycle
// gates (drain, frozen ledger) must refuse with the right envelopes.

func ingestPkts(n int) []trace.Packet {
	ps := make([]trace.Packet, n)
	for i := range ps {
		ps[i] = trace.Packet{
			Header: trace.Header{
				Time: int64(i), SrcIP: trace.IPv4(i), DstIP: 1,
				DstPort: 80, Proto: 6, Len: 100,
			},
		}
	}
	return ps
}

// ingestTestServer hosts one packet dataset "live" with the given
// pipeline limits and unlimited budgets.
func ingestTestServer(t *testing.T, packets []trace.Packet, limits ingest.Limits) (*Server, *httptest.Server) {
	t.Helper()
	s := New(noise.NewSeededSource(1, 2), WithIngestLimits(limits))
	if err := s.AddPacketTrace("live", packets, math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postIngest posts body as one NDJSON batch.
func postIngest(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postIngestAs(t, url, api.ContentTypeNDJSON, body)
}

// postIngestDPTR posts packets as one DPTR batch.
func postIngestDPTR(t *testing.T, url string, packets []trace.Packet) (*http.Response, []byte) {
	t.Helper()
	return postIngestAs(t, url, api.ContentTypeDPTR, trace.MarshalPacketsDPTR(packets))
}

// postIngestAs posts body as one batch of the given content type.
func postIngestAs(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
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

// startSlowIngest begins a batch upload that declares its full
// Content-Length but delivers only `hold` bytes, parking its
// admission reservation until the caller writes the rest. This is the
// deterministic way to occupy the watermark: Reserve happens on the
// declared length, before the body is read.
func startSlowIngest(t *testing.T, url string, payload []byte, hold int) (*io.PipeWriter, chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(payload))
	req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	ch := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("slow ingest: %v", err)
			close(ch)
			return
		}
		resp.Body.Close()
		ch <- resp
	}()
	if _, err := pw.Write(payload[:hold]); err != nil {
		t.Fatal(err)
	}
	return pw, ch
}

// waitStats polls the server's pipeline stats until cond holds.
func waitStats(t *testing.T, s *Server, what string, cond func(ingest.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.IngestStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s; stats: %+v", what, s.IngestStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestBackpressureShedsDeterministically pins the admission
// contract with no races: while a held reservation occupies the bytes
// watermark, a batch that would exceed it MUST shed 429 with
// Retry-After, an oversized batch MUST 413 regardless, and once the
// reservation releases the same shed batch MUST be accepted.
func TestIngestBackpressureShedsDeterministically(t *testing.T) {
	big := trace.MarshalPacketsNDJSON(ingestPkts(20))
	small := trace.MarshalPacketsNDJSON(ingestPkts(10))
	limits := ingest.Limits{
		MaxBatchBytes: int64(len(big)),
		// One big reservation fits; big + small does not.
		MaxBytesInFlight:   int64(len(big) + len(small) - 1),
		MaxBatchesInFlight: 8,
	}
	s, ts := ingestTestServer(t, nil, limits)
	url := ts.URL + "/v1/ingest/live"

	pw, blocked := startSlowIngest(t, url, big, 10)
	waitStats(t, s, "blocker reservation", func(st ingest.Stats) bool {
		return st.BytesInFlight == int64(len(big))
	})

	// Watermark full: the small batch sheds — deterministically.
	resp, body := postIngest(t, url, small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 shed, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed missing Retry-After")
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeOverloaded || !e.Retryable {
		t.Fatalf("shed envelope: %s", body)
	}

	// Oversized batches answer 413 whatever the watermark state.
	over := trace.MarshalPacketsNDJSON(ingestPkts(100))
	if int64(len(over)) <= limits.MaxBatchBytes {
		t.Fatal("test payload not oversized")
	}
	resp, body = postIngest(t, url, over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("expected 413, got %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeTooLarge {
		t.Fatalf("too-large envelope: %s", body)
	}

	// Release the blocker; its batch applies and the watermark frees.
	if _, err := pw.Write(big[10:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if resp := <-blocked; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("blocker response: %+v", resp)
	}
	waitStats(t, s, "drain", func(st ingest.Stats) bool { return st.BytesInFlight == 0 })

	// The shed batch, retried, now lands.
	resp, body = postIngest(t, url, small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed: %d: %s", resp.StatusCode, body)
	}
	var ack api.IngestResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Records != 10 || ack.TotalRecords != 30 {
		t.Fatalf("ack: %+v", ack)
	}

	st := s.IngestStats()
	if st.AdmittedBatches != 2 || st.AppliedBatches != 2 || st.ShedBatches != 1 || st.RejectedBatches != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PeakBytesInFlight > limits.MaxBytesInFlight {
		t.Fatalf("peak %d exceeded watermark %d", st.PeakBytesInFlight, limits.MaxBytesInFlight)
	}
}

// TestIngestFloodExactCountsUnderShedding floods the pipeline from
// many senders while a held reservation guarantees a shedding phase,
// then audits exactness: every 200 is exactly one whole batch applied
// (records = 10 × acked batches, batch counters agree everywhere),
// every 429 applied nothing, and the in-flight bound was never
// exceeded.
func TestIngestFloodExactCountsUnderShedding(t *testing.T) {
	big := trace.MarshalPacketsNDJSON(ingestPkts(20))
	small := trace.MarshalPacketsNDJSON(ingestPkts(10))
	limits := ingest.Limits{
		MaxBatchBytes: int64(len(big)),
		// While the blocker holds len(big), no small batch fits.
		MaxBytesInFlight:   int64(len(big) + len(small) - 1),
		MaxBatchesInFlight: 8,
	}
	s, ts := ingestTestServer(t, nil, limits)
	url := ts.URL + "/v1/ingest/live"

	pw, blocked := startSlowIngest(t, url, big, 10)
	waitStats(t, s, "blocker reservation", func(st ingest.Stats) bool {
		return st.BytesInFlight == int64(len(big))
	})

	const (
		senders = 8
		perG    = 3
	)
	var acked, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for { // retry sheds until this batch lands
					resp, body := postIngest(t, url, small)
					if resp.StatusCode == http.StatusOK {
						acked.Add(1)
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
						return
					}
					shed.Add(1)
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}

	// Every attempt sheds while the blocker holds the watermark, so a
	// shedding phase is guaranteed, concurrently with live senders.
	waitStats(t, s, "guaranteed sheds", func(st ingest.Stats) bool { return st.ShedBatches >= senders })
	if _, err := pw.Write(big[10:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if resp := <-blocked; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("blocker response: %+v", resp)
	}
	wg.Wait()
	waitStats(t, s, "drain", func(st ingest.Stats) bool { return st.BytesInFlight == 0 })

	if got := acked.Load(); got != senders*perG {
		t.Fatalf("acked %d batches, want %d", got, senders*perG)
	}
	if shed.Load() < senders {
		t.Fatalf("observed %d sheds, want >= %d", shed.Load(), senders)
	}

	// Exactness: whole batches only, all counters agree.
	st := s.IngestStats()
	wantBatches := uint64(senders*perG) + 1 // + the blocker
	if st.AdmittedBatches != wantBatches || st.AppliedBatches != wantBatches || st.FailedBatches != 0 {
		t.Fatalf("stats: %+v, want %d admitted=applied", st, wantBatches)
	}
	if st.ShedBatches != uint64(shed.Load()) {
		t.Fatalf("server counted %d sheds, clients saw %d", st.ShedBatches, shed.Load())
	}
	if st.AppliedRecords != uint64(senders*perG*10+20) {
		t.Fatalf("applied %d records, want %d", st.AppliedRecords, senders*perG*10+20)
	}
	if st.PeakBytesInFlight > limits.MaxBytesInFlight {
		t.Fatalf("peak %d exceeded watermark %d", st.PeakBytesInFlight, limits.MaxBytesInFlight)
	}
	s.mu.RLock()
	records := s.datasets["live"].packets.Len()
	batches := s.datasets["live"].ingestedBatches
	s.mu.RUnlock()
	if records != senders*perG*10+20 || batches != wantBatches {
		t.Fatalf("dataset holds %d records / %d batches, want %d / %d",
			records, batches, senders*perG*10+20, wantBatches)
	}
}

// TestIngestQuerySnapshotConsistency races count queries (each analyst
// at least ten, and on until the stream ends) and a standing query's
// windows against a stream of 15,000-record batches
// that grows the dataset's log past two segment boundaries (2^16
// records each). Three invariants: every noisy count must sit near
// base + 15,000k for a whole k (a query never sees a torn batch),
// every window — those straddling a boundary too — must count its
// 2,500 records, and the policy ledger must hold exactly ε × (queries
// + windows) (a mid-ingest query charges once, like any other). ε=1
// makes the noise scale 1, so a result ≥100 away from the right size
// has probability e^{-100} — an impossibility, not flakiness.
func TestIngestQuerySnapshotConsistency(t *testing.T) {
	const (
		base         = 1000
		batchRecords = 15_000
		batches      = 10
		analysts     = 2
		perAnalyst   = 10
		eps          = 1.0
		width        = 2_500
		windows      = (base + batches*batchRecords) / width
	)
	if base+batches*batchRecords <= 2<<16 {
		t.Fatalf("the stream stops short of the second segment boundary")
	}
	s, ts := ingestTestServer(t, ingestPkts(base), ingest.Limits{})
	url := ts.URL + "/v1/ingest/live"
	info := registerStanding(t, ts.URL, api.StandingRequest{
		Analyst: "mon", Query: "count", Epsilon: eps, Reservation: windows * eps,
		Window: api.StandingWindow{Width: width},
	})

	var wg sync.WaitGroup
	var queries atomic.Int64
	ingested := make(chan struct{})
	wg.Add(1)
	go func() { // the ingest stream
		defer wg.Done()
		defer close(ingested)
		for i := 0; i < batches; i++ {
			resp, out := postIngestDPTR(t, url, ingestPkts(batchRecords))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: %d: %s", i, resp.StatusCode, out)
				return
			}
		}
	}()
	// Each analyst queries until the stream ends, and at least
	// perAnalyst times.
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= perAnalyst {
					select {
					case <-ingested:
						return
					default:
					}
				}
				queries.Add(1)
				resp, body := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
					Analyst: fmt.Sprintf("analyst-%d", a), Dataset: "live",
					Query: "count", Epsilon: eps,
				}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query: %d: %s", resp.StatusCode, body)
					return
				}
				var qr api.QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Error(err)
					return
				}
				v := qr.Values[0]
				// Distance to the nearest whole-snapshot size.
				best := math.Inf(1)
				for k := 0; k <= batches; k++ {
					if d := math.Abs(v - float64(base+k*batchRecords)); d < best {
						best = d
					}
				}
				if best > 100 {
					t.Errorf("count %v is %v away from every consistent snapshot size (torn batch?)", v, best)
				}
			}
		}(a)
	}
	wg.Wait()

	results, out := standingResults(t, ts.URL, "live", info.ID)
	if len(results) != windows || out.NextWindow != windows {
		t.Fatalf("%d window results (next %d), want %d", len(results), out.NextWindow, windows)
	}
	for _, r := range results {
		if r.Outcome != "ok" || len(r.Values) != 1 || math.Abs(r.Values[0]-width) > 100 {
			t.Fatalf("window [%d,%d): %+v, want a count near %d", r.Start, r.End, r, width)
		}
	}
	spent := s.datasets["live"].policy.TotalSpent()
	if want := float64(queries.Load()+windows) * eps; math.Abs(spent-want) > 1e-9 {
		t.Fatalf("total ε = %v, want exactly %v (one charge per query and window, none for appends)", spent, want)
	}
	s.mu.RLock()
	records := s.datasets["live"].packets.Len()
	s.mu.RUnlock()
	if records != base+batches*batchRecords {
		t.Fatalf("dataset holds %d records, want %d", records, base+batches*batchRecords)
	}
}

// TestIngestedDatasetServesLikeRegistered: a dataset grown by ingest
// past two log segment boundaries serves every packet kind, with and
// without a filter, byte for byte what a dataset registered with the
// same records in one call serves.
func TestIngestedDatasetServesLikeRegistered(t *testing.T) {
	packets := obsPackets(6000)
	if len(packets) <= 2<<16 {
		t.Fatalf("fixture has %d packets, want more than two segments' worth", len(packets))
	}
	serve := func(seed []trace.Packet) *httptest.Server {
		s := New(noise.NewSeededSource(5, 6))
		// Finite budgets: the JSON snapshot has no encoding for +Inf.
		if err := s.AddPacketTrace("hotspot", seed, 1e9, 1e9); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	grown := serve(packets[:1000])
	for lo := 1000; lo < len(packets); lo += 17_000 {
		resp, body := postIngestDPTR(t, grown.URL+"/v1/ingest/hotspot", packets[lo:min(lo+17_000, len(packets))])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch at %d: %d: %s", lo, resp.StatusCode, body)
		}
	}
	whole := serve(packets)
	minLen := 100
	for _, filter := range []*api.Filter{nil, {MinLen: &minLen}} {
		for _, kind := range packetKindNames() {
			req := api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind, Epsilon: 0.1, Key: "10.0.0.1", Filter: filter}
			respG, bodyG := postV1(t, grown.URL+"/v1/query", req, nil)
			respW, bodyW := postV1(t, whole.URL+"/v1/query", req, nil)
			if respG.StatusCode != http.StatusOK || respG.StatusCode != respW.StatusCode || !bytes.Equal(bodyG, bodyW) {
				t.Errorf("%s filter=%v: grown %d %s, registered %d %s", kind, filter != nil, respG.StatusCode, bodyG, respW.StatusCode, bodyW)
			}
		}
	}
}

// TestRegistrationCopiesRecords: registering pkts[:n] of a longer
// slice and then ingesting leaves pkts[n:] as it was — the dataset
// holds its own copy of the records.
func TestRegistrationCopiesRecords(t *testing.T) {
	s := New(noise.NewSeededSource(1, 2))
	pkts := ingestPkts(10)
	want := slices.Clone(pkts)
	if err := s.AddPacketTrace("p", pkts[:4], math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, out := postIngest(t, ts.URL+"/v1/ingest/p", trace.MarshalPacketsNDJSON(ingestPkts(3))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, out)
	}
	if !reflect.DeepEqual(pkts, want) {
		t.Fatal("an ingest wrote into the spare capacity of a slice passed at registration")
	}
}

// TestIngestDrainRefusal: after Shutdown, ingest answers 503
// shutting_down with Retry-After — the envelope that tells senders to
// fail over, not drop the batch.
func TestIngestDrainRefusal(t *testing.T) {
	s, ts := ingestTestServer(t, nil, ingest.Limits{})
	url := ts.URL + "/v1/ingest/live"

	// A pre-drain batch lands (and lazily starts the pipeline, so the
	// shutdown path below also exercises closing it).
	if resp, body := postIngest(t, url, trace.MarshalPacketsNDJSON(ingestPkts(5))); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain batch: %d: %s", resp.StatusCode, body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, body := postIngest(t, url, trace.MarshalPacketsNDJSON(ingestPkts(5)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 after shutdown, got %d: %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeShuttingDown || !e.Retryable {
		t.Fatalf("drain envelope: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain refusal missing Retry-After")
	}
}

// TestIngestDegradedFailsClosed: while the ledger refuses spends
// (frozen WAL), ingest refuses too — the dataset must not drift while
// ε-accounting cannot be journaled — and applies nothing.
func TestIngestDegradedFailsClosed(t *testing.T) {
	s, ts, fsys, _ := faultLedgerServer(t, math.Inf(1), math.Inf(1))
	url := ts.URL + "/v1/ingest/hotspot"

	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO, Sticky: true})
	// Trip the freeze: the next spend attempt hits the dead WAL.
	if resp, _ := postV1(t, ts.URL+"/v1/query", api.QueryRequest{
		Analyst: "alice", Dataset: "hotspot", Query: "count", Epsilon: 0.1,
	}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against dead WAL: got %d, want 503", resp.StatusCode)
	}

	s.mu.RLock()
	before := s.datasets["hotspot"].packets.Len()
	s.mu.RUnlock()
	resp, body := postIngest(t, url, trace.MarshalPacketsNDJSON(ingestPkts(5)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 while degraded, got %d: %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Code != codeLedgerRefused || !e.Retryable {
		t.Fatalf("degraded envelope: %s", body)
	}
	s.mu.RLock()
	after := s.datasets["hotspot"].packets.Len()
	s.mu.RUnlock()
	if after != before {
		t.Fatalf("degraded ingest appended %d records", after-before)
	}
	if st := s.IngestStats(); st.AppliedBatches != 0 {
		t.Fatalf("degraded ingest applied batches: %+v", st)
	}
}

// TestIngestBodyLengthMismatch: a body shorter or longer than the
// admitted Content-Length answers 400, changes nothing and gives its
// reservation back, and the events of good batches say where their
// time went.
func TestIngestBodyLengthMismatch(t *testing.T) {
	s, ts := ingestTestServer(t, nil, ingest.Limits{})
	body := trace.MarshalPacketsNDJSON(ingestPkts(10))
	for name, declared := range map[string]int64{"short": int64(len(body)) + 5, "over-long": int64(len(body)) - 5} {
		// Straight into the handler: net/http's client and server both
		// refuse to put a mismatched length on the wire.
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/live", bytes.NewReader(body))
		req.ContentLength = declared
		req.Header.Set("Content-Type", api.ContentTypeNDJSON)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s body: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if st := s.IngestStats(); st.BytesInFlight != 0 || st.BatchesInFlight != 0 || st.FailedBatches != 2 || st.AppliedBatches != 0 {
		t.Fatalf("after two mismatched bodies: %+v", st)
	}
	if resp, out := postIngest(t, ts.URL+"/v1/ingest/live", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("exact body: %d: %s", resp.StatusCode, out)
	}
	ev := eventsNamed(s, "ingest")
	if len(ev) != 1 {
		t.Fatalf("expected one ingest event, got %+v", ev)
	}
	for _, key := range []string{"decode_ms", "apply_ms"} {
		if ms, ok := fieldValue(ev[0], key).(float64); !ok || ms < 0 {
			t.Errorf("ingest event %s = %v, want a duration", key, fieldValue(ev[0], key))
		}
	}
}

// TestIngestRefusesDPTRTrailingRecords: a DPTR batch whose header
// declares fewer records than its body holds answers 400 naming the
// offset where the undeclared bytes start, and appends nothing — not
// the declared record with the rest silently dropped.
func TestIngestRefusesDPTRTrailingRecords(t *testing.T) {
	s, ts := ingestTestServer(t, nil, ingest.Limits{})
	two := trace.MarshalPacketsDPTR(ingestPkts(2))
	one := trace.MarshalPacketsDPTR(ingestPkts(1))
	body := append(append([]byte(nil), one[:16]...), two[16:]...)
	resp, out := postIngestAs(t, ts.URL+"/v1/ingest/live", api.ContentTypeDPTR, body)
	var e apiError
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.Code != codeBadRequest {
		t.Fatalf("got %d %s, want a 400 bad_request", resp.StatusCode, out)
	}
	if want := fmt.Sprintf("at offset %d,", len(one)); !strings.Contains(e.Message, want) {
		t.Errorf("refusal %q does not name %q", e.Message, want)
	}
	s.mu.RLock()
	records := s.datasets["live"].packets.Len()
	s.mu.RUnlock()
	if records != 0 {
		t.Fatalf("refused batch appended %d records", records)
	}
	if resp, out := postIngestAs(t, ts.URL+"/v1/ingest/live", api.ContentTypeDPTR, two); resp.StatusCode != http.StatusOK {
		t.Fatalf("the same records, declared: %d %s", resp.StatusCode, out)
	}
}

// TestIngestMediaTypeCaseInsensitive: media type and subtype match
// case-insensitively (RFC 9110 §8.3.1) and parameters are ignored;
// any other type still answers 415.
func TestIngestMediaTypeCaseInsensitive(t *testing.T) {
	_, ts := ingestTestServer(t, nil, ingest.Limits{})
	url := ts.URL + "/v1/ingest/live"
	ndjson := trace.MarshalPacketsNDJSON(ingestPkts(3))
	dptr := trace.MarshalPacketsDPTR(ingestPkts(3))
	for _, c := range []struct {
		contentType string
		body        []byte
		status      int
	}{
		{"application/x-ndjson; charset=utf-8", ndjson, http.StatusOK},
		{"Application/X-NDJSON", ndjson, http.StatusOK},
		{" APPLICATION/X-NDJSON ; charset=UTF-8", ndjson, http.StatusOK},
		{"APPLICATION/X-DPTR", dptr, http.StatusOK},
		{"Application/x-Dptr", dptr, http.StatusOK},
		{"text/plain", ndjson, http.StatusUnsupportedMediaType},
		{"application/x-ndjsonx", ndjson, http.StatusUnsupportedMediaType},
	} {
		if resp, out := postIngestAs(t, url, c.contentType, c.body); resp.StatusCode != c.status {
			t.Errorf("Content-Type %q: %d %s, want %d", c.contentType, resp.StatusCode, out, c.status)
		}
	}
}

// TestIngestValidatesPayloads: the server keeps only packet headers,
// but a batch is decoded whole first, so a payload the wire format
// refuses still refuses the batch — with the decoder's own message, and
// appending nothing: bad base64 on an NDJSON line, and on DPTR a
// payload length over the per-packet limit or a payload cut short.
func TestIngestValidatesPayloads(t *testing.T) {
	withPayload := ingestPkts(2)
	withPayload[1].Payload = []byte("0123456789")
	dptr := trace.MarshalPacketsDPTR(withPayload)
	// A packet whose varint length says 65,537 payload bytes: one over
	// the limit, refused before any payload byte is read.
	oversized := trace.MarshalPacketsDPTR(ingestPkts(1))
	oversized = append(oversized[:len(oversized)-1], binary.AppendUvarint(nil, 1<<16+1)...)
	for _, c := range []struct {
		name, contentType string
		body              []byte
		message           string
	}{
		{"ndjson bad base64", api.ContentTypeNDJSON,
			[]byte(`{"time":1,"srcIP":"10.0.0.1","dstIP":"10.0.0.2","len":60,"payload":"!!!!"}` + "\n"),
			"bad batch: trace: ndjson line 1: illegal base64 data at input byte 0"},
		{"dptr payload over the limit", api.ContentTypeDPTR, oversized,
			"bad batch: trace: packet 0 payload length 65537 exceeds limit"},
		{"dptr payload cut short", api.ContentTypeDPTR, dptr[:len(dptr)-3],
			"bad batch: trace: packet 1 payload: unexpected EOF"},
	} {
		s, ts := ingestTestServer(t, ingestPkts(5), ingest.Limits{})
		resp, out := postIngestAs(t, ts.URL+"/v1/ingest/live", c.contentType, c.body)
		var e apiError
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.Code != codeBadRequest {
			t.Errorf("%s: got %d %s, want a 400 bad_request", c.name, resp.StatusCode, out)
			continue
		}
		if e.Message != c.message {
			t.Errorf("%s: refusal %q, want %q", c.name, e.Message, c.message)
		}
		s.mu.RLock()
		records := s.datasets["live"].packets.Len()
		s.mu.RUnlock()
		if st := s.IngestStats(); records != 5 || st.FailedBatches != 1 || st.AppliedBatches != 0 {
			t.Errorf("%s: %d records hosted (want the 5 registered), stats %+v", c.name, records, st)
		}
	}
}
