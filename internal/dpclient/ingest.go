package dpclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/trace"
)

// This file is the sender side of live ingestion: IngestBatch ships
// one batch to POST /v1/ingest/{dataset}, IngestStream accumulates
// records and flushes size-bounded batches. Reliability mirrors the
// query path's idempotency design symmetrically: every batch
// auto-attaches a (source, seq) identity — the client mints a random
// source once and a monotonic per-batch sequence number — so the
// retry policy can re-send shed (429) and draining (503) responses
// and transport failures without risking a double append; the server
// replays the first ACK byte-identically. Batches travel in the DPTR
// binary container; the server also accepts NDJSON and batches without
// an identity from other senders.

// Batch is one ingest payload: exactly one of the record slices must
// be non-empty, matching the target dataset's kind.
type Batch struct {
	Packets []trace.Packet
	Links   []trace.LinkSample
	Hops    []trace.HopRecord
}

// IngestAck is the server's acknowledgement of one applied batch.
type IngestAck = api.IngestResponse

// ingestIdentity is the client's minted batch-identity state, behind
// a pointer so Client stays trivially copyable.
type ingestIdentity struct {
	once   sync.Once
	source string
	seq    atomic.Uint64
}

// source lazily mints the client's random sender id (not a secret —
// it scopes sequence numbers, exactly like an idempotency key scopes
// retries).
func (id *ingestIdentity) sourceID() string {
	id.once.Do(func() { id.source = "dpclient-" + NewIdempotencyKey()[:12] })
	return id.source
}

func (id *ingestIdentity) nextSeq() string {
	return strconv.FormatUint(id.seq.Add(1), 10)
}

// streamBatchSize is how many records IngestStream accumulates before
// flushing a batch.
const streamBatchSize = 1000

// kindCount reports which record slices the batch populates.
func (b *Batch) kindCount() int {
	n := 0
	if len(b.Packets) > 0 {
		n++
	}
	if len(b.Links) > 0 {
		n++
	}
	if len(b.Hops) > 0 {
		n++
	}
	return n
}

// Records is the batch's record count.
func (b *Batch) Records() int {
	return len(b.Packets) + len(b.Links) + len(b.Hops)
}

// encode renders the batch as a DPTR container.
func (b *Batch) encode() ([]byte, error) {
	if b.kindCount() != 1 {
		return nil, errors.New("dpclient: batch must hold exactly one record kind")
	}
	switch {
	case len(b.Packets) > 0:
		return trace.MarshalPacketsDPTR(b.Packets), nil
	case len(b.Links) > 0:
		return trace.MarshalLinkSamplesDPTR(b.Links), nil
	default:
		return trace.MarshalHopRecordsDPTR(b.Hops), nil
	}
}

// IngestBatch appends one batch of records to a live dataset,
// blocking until the server has applied (and ACKed) it. The batch
// carries an auto-minted (source, seq) identity, so retries after sheds
// or transport failures apply at most once.
func (c *Client) IngestBatch(ctx context.Context, dataset string, batch Batch) (*IngestAck, error) {
	body, err := batch.encode()
	if err != nil {
		return nil, err
	}
	headers := map[string]string{
		"Content-Type":        api.ContentTypeDPTR,
		api.BatchSourceHeader: c.ingestID.sourceID(),
		api.BatchSeqHeader:    c.ingestID.nextSeq(),
	}
	out, err := c.callWith(ctx, http.MethodPost, api.IngestPath(url.PathEscape(dataset)), body, headers)
	if err != nil {
		return nil, err
	}
	var ack IngestAck
	if err := json.Unmarshal(out, &ack); err != nil {
		return nil, fmt.Errorf("dpclient: decoding ingest ack: %w", err)
	}
	return &ack, nil
}

// Stream is a record-at-a-time ingestion session: records accumulate
// locally and flush as batches of 1000 records (each
// batch its own at-most-once identity). Not safe for concurrent use;
// run one Stream per sending goroutine.
type Stream struct {
	c       *Client
	ctx     context.Context
	dataset string

	pending Batch
	batches uint64
	records int
	lastAck *IngestAck
	err     error // sticky: a failed flush poisons the stream
}

// IngestStream opens a batching ingestion session against dataset.
// Close flushes the remainder.
func (c *Client) IngestStream(ctx context.Context, dataset string) *Stream {
	return &Stream{c: c, ctx: ctx, dataset: dataset}
}

// Packets adds packet records, flushing full batches as it goes.
func (s *Stream) Packets(ps ...trace.Packet) error {
	if s.err != nil {
		return s.err
	}
	s.pending.Packets = append(s.pending.Packets, ps...)
	return s.maybeFlush()
}

// Links adds link samples, flushing full batches as it goes.
func (s *Stream) Links(ls ...trace.LinkSample) error {
	if s.err != nil {
		return s.err
	}
	s.pending.Links = append(s.pending.Links, ls...)
	return s.maybeFlush()
}

// Hops adds hop records, flushing full batches as it goes.
func (s *Stream) Hops(hs ...trace.HopRecord) error {
	if s.err != nil {
		return s.err
	}
	s.pending.Hops = append(s.pending.Hops, hs...)
	return s.maybeFlush()
}

func (s *Stream) maybeFlush() error {
	for s.pending.Records() >= streamBatchSize {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// flush ships the oldest streamBatchSize pending records (all of them
// when the backlog is smaller) as one batch.
func (s *Stream) flush() error {
	var b Batch
	switch {
	case len(s.pending.Packets) > 0:
		k := min(len(s.pending.Packets), streamBatchSize)
		b.Packets = s.pending.Packets[:k:k]
		s.pending.Packets = s.pending.Packets[k:]
	case len(s.pending.Links) > 0:
		k := min(len(s.pending.Links), streamBatchSize)
		b.Links = s.pending.Links[:k:k]
		s.pending.Links = s.pending.Links[k:]
	case len(s.pending.Hops) > 0:
		k := min(len(s.pending.Hops), streamBatchSize)
		b.Hops = s.pending.Hops[:k:k]
		s.pending.Hops = s.pending.Hops[k:]
	default:
		return nil
	}
	ack, err := s.c.IngestBatch(s.ctx, s.dataset, b)
	if err != nil {
		s.err = err
		return err
	}
	s.batches++
	s.records += ack.Records
	s.lastAck = ack
	return nil
}

// Flush ships all pending records now, regardless of batch size.
func (s *Stream) Flush() error {
	if s.err != nil {
		return s.err
	}
	for s.pending.Records() > 0 {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the remainder and returns the stream's first error,
// if any. The stream is unusable afterwards.
func (s *Stream) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.err
}

// Sent reports the ACKed batch and record totals so far.
func (s *Stream) Sent() (batches uint64, records int) { return s.batches, s.records }

// LastAck returns the most recent server acknowledgement (nil before
// the first flush).
func (s *Stream) LastAck() *IngestAck { return s.lastAck }
