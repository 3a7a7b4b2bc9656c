package dpclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// ingestServer hosts one empty packet dataset, "live".
func ingestServer(t *testing.T) (*dpserver.Server, *Client) {
	t.Helper()
	s := dpserver.New(noise.NewSeededSource(1, 2))
	if err := s.AddPacketTrace("live", nil, 100, 10); err != nil {
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
			Header: trace.Header{
				Time:  int64(i) * 1000,
				SrcIP: trace.MakeIPv4(10, 0, byte(i>>8), byte(i)),
				DstIP: trace.MakeIPv4(10, 1, 0, 1),
				Proto: 6, DstPort: 80, Len: 100,
			},
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
	if v := value(t, c, count("live", 4)); v < 20 || v > 80 {
		t.Fatalf("count %v wildly off 50", v)
	}
}

// TestIngestBatchKindValidation: a batch no dataset could apply is
// refused — an empty one before it is sent, one for a dataset the
// server does not host with 404.
func TestIngestBatchKindValidation(t *testing.T) {
	ctx := context.Background()
	s, c := ingestServer(t)
	if _, err := c.IngestBatch(ctx, "live", Batch{}); err == nil {
		t.Fatal("expected error for empty batch")
	}
	var ae *APIError
	if _, err := c.IngestBatch(ctx, "nope", Batch{Packets: ingestPackets(1)}); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest into an unknown dataset: %v, want a 404", err)
	}
	if got := s.IngestStats().AdmittedBatches; got != 0 {
		t.Fatalf("server admitted %d batches, want 0", got)
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
