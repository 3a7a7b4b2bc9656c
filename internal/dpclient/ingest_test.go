package dpclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// ingestServer hosts one empty packet dataset plus link/hop datasets
// for stream tests.
func ingestServer(t *testing.T) (*dpserver.Server, *Client) {
	t.Helper()
	s := dpserver.New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("live", nil, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLinkTrace("links", nil, 4, 4, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHopTrace("hops", nil, 3, 100, 10); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, New(ts.URL, "alice")
}

func ingestPackets(n int) []trace.Packet {
	ps := make([]trace.Packet, n)
	for i := range ps {
		ps[i] = trace.Packet{
			Time:  int64(i) * 1000,
			SrcIP: trace.MakeIPv4(10, 0, byte(i>>8), byte(i)),
			DstIP: trace.MakeIPv4(10, 1, 0, 1),
			Proto: 6, DstPort: 80, Len: 100,
		}
	}
	return ps
}

func TestIngestBatchDPTRAndNDJSON(t *testing.T) {
	ctx := context.Background()
	_, c := ingestServer(t)

	ack, err := c.IngestBatch(ctx, "live", Batch{Packets: ingestPackets(40)})
	if err != nil {
		t.Fatalf("IngestBatch (dptr): %v", err)
	}
	if ack.Records != 40 || ack.TotalRecords != 40 || ack.Batches != 1 {
		t.Fatalf("ack: %+v", ack)
	}
	if ack.Source == "" || ack.Seq == "" {
		t.Fatalf("expected auto-minted batch identity, got %+v", ack)
	}

	// The client always sends DPTR; the server still takes an NDJSON
	// batch (without an identity) from other senders.
	out, err := c.callWith(ctx, http.MethodPost, api.IngestPath("live"),
		trace.MarshalPacketsNDJSON(ingestPackets(10)),
		map[string]string{"Content-Type": api.ContentTypeNDJSON})
	if err != nil {
		t.Fatalf("ingest (ndjson): %v", err)
	}
	ack = new(IngestAck)
	if err := json.Unmarshal(out, ack); err != nil {
		t.Fatal(err)
	}
	if ack.TotalRecords != 50 || ack.Batches != 2 || ack.Source != "" {
		t.Fatalf("ack: %+v", ack)
	}

	// The ingested records are queryable.
	v, err := c.Count(ctx, "live", 4, nil)
	if err != nil {
		t.Fatalf("Count after ingest: %v", err)
	}
	if v < 20 || v > 80 {
		t.Fatalf("count %v wildly off 50", v)
	}
}

func TestIngestBatchKindValidation(t *testing.T) {
	ctx := context.Background()
	_, c := ingestServer(t)
	if _, err := c.IngestBatch(ctx, "live", Batch{}); err == nil {
		t.Fatal("expected error for empty batch")
	}
	if _, err := c.IngestBatch(ctx, "live", Batch{
		Packets: ingestPackets(1), Links: []trace.LinkSample{{Link: 1}},
	}); err == nil {
		t.Fatal("expected error for mixed-kind batch")
	}
	// Wrong kind for the dataset: server rejects the decode.
	if _, err := c.IngestBatch(ctx, "links", Batch{Packets: ingestPackets(1)}); err == nil {
		t.Fatal("expected error ingesting packets into a link dataset")
	}
}

// TestIngestRetryDoesNotDoubleApply drops the first ACK on the floor
// (proxy returns 503 after forwarding) and checks the client's retry
// replays the server's stored response instead of appending twice.
func TestIngestRetryDoesNotDoubleApply(t *testing.T) {
	ctx := context.Background()
	s := dpserver.New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("live", nil, 100, 10); err != nil {
		t.Fatal(err)
	}
	inner := s.Handler()
	var drops atomic.Int32
	drops.Store(1)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && drops.Add(-1) >= 0 {
			// Forward the request (the server applies the batch), then
			// pretend the response was lost in transit.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"code":"overloaded","message":"injected","retryable":true}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	c := New(proxy.URL, "alice")
	ack, err := c.IngestBatch(ctx, "live", Batch{Packets: ingestPackets(25)})
	if err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	if ack.Records != 25 || ack.TotalRecords != 25 || ack.Batches != 1 {
		t.Fatalf("retry double-applied: %+v", ack)
	}
	if got := s.IngestStats().AppliedBatches; got != 1 {
		t.Fatalf("server applied %d batches, want 1", got)
	}
}

func TestIngestStreamFlushesBatches(t *testing.T) {
	ctx := context.Background()
	_, c := ingestServer(t)

	st := c.IngestStream(ctx, "live")
	const n = 2*streamBatchSize + 50
	for _, p := range ingestPackets(n) {
		if err := st.Packets(p); err != nil {
			t.Fatalf("Packets: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	batches, records := st.Sent()
	if records != n {
		t.Fatalf("sent %d records, want %d", records, n)
	}
	if batches != 3 { // 1000+1000+50
		t.Fatalf("sent %d batches, want 3", batches)
	}
	if ack := st.LastAck(); ack == nil || ack.TotalRecords != n || ack.Records != 50 {
		t.Fatalf("last ack: %+v", ack)
	}
}

func TestIngestStreamLinksAndHops(t *testing.T) {
	ctx := context.Background()
	_, c := ingestServer(t)

	st := c.IngestStream(ctx, "links")
	for i := 0; i < 20; i++ {
		if err := st.Links(trace.LinkSample{Link: int32(i % 4), Bin: int32(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, records := st.Sent(); records != 20 {
		t.Fatalf("sent %d link samples, want 20", records)
	}

	hs := c.IngestStream(ctx, "hops")
	if err := hs.Hops(trace.HopRecord{Monitor: 0, IP: trace.MakeIPv4(1, 2, 3, 4), Hops: 5}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, records := hs.Sent(); records != 1 {
		t.Fatalf("sent %d hop records, want 1", records)
	}
}
