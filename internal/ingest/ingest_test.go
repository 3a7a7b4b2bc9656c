package ingest

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dptrace/internal/trace"
)

func testPackets(n int) []trace.Packet {
	ps := make([]trace.Packet, n)
	for i := range ps {
		ps[i] = trace.Packet{
			Time:  int64(i) * 1000,
			SrcIP: trace.MakeIPv4(10, 0, byte(i>>8), byte(i)),
			DstIP: trace.MakeIPv4(10, 1, 0, 1),
			Proto: 6, Len: 100,
		}
	}
	return ps
}

func TestPipelineAppliesBatches(t *testing.T) {
	p := New(Limits{})
	defer p.Close()

	var mu sync.Mutex
	var store []trace.Packet

	body := trace.MarshalPacketsNDJSON(testPackets(50))
	size := int64(len(body))
	if err := p.Reserve(size); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	n, err := p.Submit(&Job{
		Kind: KindPacket, ContentType: ContentTypeNDJSON, Data: body,
		Apply: func(d Decoded) error {
			mu.Lock()
			store = append(store, d.Packets...)
			mu.Unlock()
			return nil
		},
	}, size)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if n != 50 || len(store) != 50 {
		t.Fatalf("expected 50 records applied, got n=%d len=%d", n, len(store))
	}
	st := p.Stats()
	if st.AppliedBatches != 1 || st.AppliedRecords != 50 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BytesInFlight != 0 || st.BatchesInFlight != 0 {
		t.Fatalf("reservation not released: %+v", st)
	}
}

func TestPipelineDPTRDecode(t *testing.T) {
	p := New(Limits{})
	defer p.Close()

	var buf bytes.Buffer
	if err := trace.WritePackets(&buf, testPackets(7)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	size := int64(len(body))
	if err := p.Reserve(size); err != nil {
		t.Fatal(err)
	}
	var got int
	n, err := p.Submit(&Job{
		Kind: KindPacket, ContentType: ContentTypeDPTR, Data: body,
		Apply: func(d Decoded) error { got = len(d.Packets); return nil },
	}, size)
	if err != nil || n != 7 || got != 7 {
		t.Fatalf("n=%d got=%d err=%v", n, got, err)
	}
}

func TestReserveShedsAtWatermark(t *testing.T) {
	p := New(Limits{MaxBytesInFlight: 1000, MaxBatchesInFlight: 4})
	defer p.Close()

	if err := p.Reserve(600); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := p.Reserve(600); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	// The refused reservation must have been rolled back.
	if err := p.Reserve(400); err != nil {
		t.Fatalf("reserve after shed: %v", err)
	}
	st := p.Stats()
	if st.ShedBatches != 1 || st.BytesInFlight != 1000 {
		t.Fatalf("stats: %+v", st)
	}
	p.Unreserve(600)
	p.Unreserve(400)
}

func TestReserveShedsAtBatchWatermark(t *testing.T) {
	p := New(Limits{MaxBatchesInFlight: 2})
	defer p.Close()
	if err := p.Reserve(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	p.Unreserve(1)
	p.Unreserve(1)
}

func TestReserveRejectsOversizeBatch(t *testing.T) {
	p := New(Limits{MaxBatchBytes: 100})
	defer p.Close()
	if err := p.Reserve(101); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
	if st := p.Stats(); st.RejectedBatches != 1 || st.BytesInFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPipelineDecodeErrorFailsBatchAndReleases(t *testing.T) {
	p := New(Limits{})
	defer p.Close()
	body := []byte("not ndjson at all")
	size := int64(len(body))
	if err := p.Reserve(size); err != nil {
		t.Fatal(err)
	}
	_, err := p.Submit(&Job{
		Kind: KindPacket, ContentType: ContentTypeNDJSON, Data: body,
		Apply: func(Decoded) error { t.Error("apply ran on decode error"); return nil },
	}, size)
	if err == nil {
		t.Fatal("expected decode error")
	}
	st := p.Stats()
	if st.FailedBatches != 1 || st.BytesInFlight != 0 || st.BatchesInFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPipelineApplyErrorPropagates(t *testing.T) {
	p := New(Limits{})
	defer p.Close()
	body := trace.MarshalLinkSamplesNDJSON([]trace.LinkSample{{Link: 1, Bin: 2}})
	size := int64(len(body))
	if err := p.Reserve(size); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := p.Submit(&Job{
		Kind: KindLink, ContentType: ContentTypeNDJSON, Data: body,
		Apply: func(Decoded) error { return boom },
	}, size)
	if !errors.Is(err, boom) {
		t.Fatalf("expected apply error, got %v", err)
	}
}

// TestPipelineBoundedUnderFlood hammers admission from many goroutines
// and asserts the exact invariants the watermark discipline promises:
// in-flight bytes never observed above the limit, and every record of
// every ACKed batch is applied exactly once.
func TestPipelineBoundedUnderFlood(t *testing.T) {
	const limitBytes = 4096
	p := New(Limits{MaxBytesInFlight: limitBytes, MaxBatchesInFlight: 8})
	defer p.Close()

	var applied atomic.Int64
	var acked atomic.Int64
	var wg sync.WaitGroup
	body := trace.MarshalLinkSamplesNDJSON([]trace.LinkSample{{Link: 1, Bin: 1}, {Link: 2, Bin: 2}})
	size := int64(len(body))

	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := p.Reserve(size); err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected reserve error: %v", err)
					}
					continue
				}
				if got := p.Stats().BytesInFlight; got > limitBytes {
					t.Errorf("bytes in flight %d > limit %d", got, limitBytes)
				}
				n, err := p.Submit(&Job{
					Kind: KindLink, ContentType: ContentTypeNDJSON, Data: body,
					Apply: func(d Decoded) error {
						applied.Add(int64(len(d.Links)))
						return nil
					},
				}, size)
				if err != nil {
					t.Errorf("submit: %v", err)
					continue
				}
				acked.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	if applied.Load() != acked.Load() {
		t.Fatalf("applied %d records but acked %d", applied.Load(), acked.Load())
	}
	st := p.Stats()
	if st.PeakBytesInFlight > limitBytes {
		t.Fatalf("peak bytes %d exceeded limit %d", st.PeakBytesInFlight, limitBytes)
	}
	if st.BytesInFlight != 0 || st.BatchesInFlight != 0 {
		t.Fatalf("leaked reservations: %+v", st)
	}
	if st.AppliedBatches+st.FailedBatches != st.AdmittedBatches {
		t.Fatalf("admitted %d != applied %d + failed %d", st.AdmittedBatches, st.AppliedBatches, st.FailedBatches)
	}
}

func TestCloseDrainsAndRefuses(t *testing.T) {
	p := New(Limits{})
	body := trace.MarshalLinkSamplesNDJSON([]trace.LinkSample{{Link: 1, Bin: 1}})
	size := int64(len(body))

	var wg sync.WaitGroup
	var applied atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Reserve(size); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Submit(&Job{
				Kind: KindLink, ContentType: ContentTypeNDJSON, Data: body,
				Apply: func(d Decoded) error { applied.Add(1); return nil },
			}, size)
		}()
	}
	wg.Wait() // all submitted jobs answered before we close
	p.Close()
	if applied.Load() != 8 {
		t.Fatalf("expected 8 applied before close, got %d", applied.Load())
	}
	if err := p.Reserve(size); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed after close, got %v", err)
	}
	p.Close() // idempotent
}

// TestCloseDuringSubmits closes the pipeline while batches are being
// submitted from several goroutines: no Apply runs once Close has
// returned, every Submit either applies its batch or answers
// ErrClosed, and no reservation leaks.
func TestCloseDuringSubmits(t *testing.T) {
	p := New(Limits{})
	body := trace.MarshalLinkSamplesNDJSON([]trace.LinkSample{{Link: 1, Bin: 1}})
	size := int64(len(body))

	var closed atomic.Bool
	var applied, acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := p.Reserve(size); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("reserve: %v", err)
					}
					return
				}
				n, err := p.Submit(&Job{
					Kind: KindLink, ContentType: ContentTypeNDJSON, Data: body,
					Apply: func(d Decoded) error {
						if closed.Load() {
							t.Error("Apply ran after Close returned")
						}
						applied.Add(int64(len(d.Links)))
						return nil
					},
				}, size)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				acked.Add(int64(n))
			}
		}()
	}
	for p.Stats().AppliedBatches < 100 {
		runtime.Gosched()
	}
	p.Close()
	closed.Store(true)
	wg.Wait()
	if applied.Load() != acked.Load() {
		t.Fatalf("applied %d records but acked %d", applied.Load(), acked.Load())
	}
	if st := p.Stats(); st.BytesInFlight != 0 || st.BatchesInFlight != 0 {
		t.Fatalf("leaked reservations: %+v", st)
	}
}

func TestDecodeUnsupportedContentType(t *testing.T) {
	if _, err := Decode(KindPacket, "text/plain", nil); err == nil {
		t.Fatal("expected error for unsupported content type")
	}
	if _, err := Decode(Kind(99), ContentTypeNDJSON, nil); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}
