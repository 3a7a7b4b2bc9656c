// Package ingest is the bounded-buffer live-ingestion pipeline behind
// POST /v1/ingest/{dataset}: receive and decode on the request's own
// goroutine, then apply one batch at a time, modeled on the
// receiver/writer split of production trace agents. Its one structural
// guarantee is that memory is bounded by configuration, not by offered
// load: every batch must reserve its bytes and a batch slot against
// hard watermarks BEFORE its body is read, and reservations are only
// released when the batch has been fully applied (or refused). When
// the watermarks are hit the caller gets ErrOverloaded synchronously —
// the HTTP layer turns that into 429 + Retry-After — so overload sheds
// at the edge instead of queueing toward OOM.
//
// Stages:
//
//	receiver (HTTP handler)  — admission: Reserve(bytes) or shed, then
//	                           Submit decodes Content-Type → typed
//	                           records on the caller's goroutine (a
//	                           large NDJSON batch on every core: see
//	                           internal/trace/ndjson.go)
//	apply (serial)           — still on the caller's goroutine, under
//	                           the pipeline's apply mutex, runs the
//	                           Apply callback, which takes the dataset
//	                           write lock; serial apply keeps lock hold
//	                           times short and makes applied-batch
//	                           ordering deterministic per pipeline
//
// The pipeline knows nothing about datasets or privacy budgets: the
// Apply callback owns that. Snapshot consistency for concurrent
// queries is the callback's contract (see dpserver), not this
// package's.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/trace"
)

// ErrOverloaded is returned by Reserve when admitting the batch would
// exceed a watermark. Callers translate it to 429.
var ErrOverloaded = errors.New("ingest: pipeline overloaded")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrTooLarge is returned by Reserve for a single batch bigger than
// MaxBatchBytes — retrying the same batch cannot succeed, so it is
// distinct from ErrOverloaded (413 vs 429 at the HTTP layer).
var ErrTooLarge = errors.New("ingest: batch exceeds size limit")

// Kind names a batch's record type. Packets are the only one: every
// hosted dataset is a packet trace.
type Kind uint8

// KindPacket is a batch of packet records, decoded as trace.Packet
// and kept as trace.Header.
const KindPacket Kind = 1

// Content types Decode understands (mirrored in internal/dpserver/api).
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeDPTR   = "application/x-dptr"
)

// Limits are the pipeline's admission watermarks. Zero values take
// the defaults below.
type Limits struct {
	// MaxBatchBytes caps one batch body; larger batches are refused
	// with ErrTooLarge. Default 8 MiB.
	MaxBatchBytes int64
	// MaxBytesInFlight caps the sum of admitted-but-unapplied batch
	// bytes. Default 64 MiB.
	MaxBytesInFlight int64
	// MaxBatchesInFlight caps the number of admitted-but-unapplied
	// batches. Default 256.
	MaxBatchesInFlight int64
}

func (l Limits) withDefaults() Limits {
	if l.MaxBatchBytes <= 0 {
		l.MaxBatchBytes = 8 << 20
	}
	if l.MaxBytesInFlight <= 0 {
		l.MaxBytesInFlight = 64 << 20
	}
	if l.MaxBatchesInFlight <= 0 {
		l.MaxBatchesInFlight = 256
	}
	return l
}

// Decoded is one batch after decoding: the headers of its packets.
// Decoding reads and checks every payload as the wire format defines
// it; a hosted dataset keeps only the headers, which is all any served
// query reads.
type Decoded struct {
	Headers []trace.Header
}

// Records is the batch's record count.
func (d Decoded) Records() int {
	return len(d.Headers)
}

// Job is one admitted batch travelling the pipeline.
type Job struct {
	Kind        Kind
	ContentType string
	Data        []byte
	// Apply runs once the batch is decoded, one batch at a time. It
	// must be short: it holds whatever lock the dataset store needs.
	Apply func(Decoded) error
	// DecodeTime and ApplyTime are what decoding and applying took,
	// queueing excluded; set by the pipeline, readable once Submit has
	// returned.
	DecodeTime, ApplyTime time.Duration

	reservation int64
}

// Stats is a snapshot of pipeline counters, all monotonic except the
// in-flight gauges.
type Stats struct {
	AdmittedBatches uint64
	AdmittedBytes   uint64
	ShedBatches     uint64 // refused with ErrOverloaded
	RejectedBatches uint64 // refused with ErrTooLarge
	AppliedBatches  uint64
	AppliedRecords  uint64
	FailedBatches   uint64 // decode or apply error

	BytesInFlight   int64
	BatchesInFlight int64
	// High watermarks actually observed, for sizing the limits.
	PeakBytesInFlight   int64
	PeakBatchesInFlight int64
}

// Pipeline is the bounded ingestion pipeline. Construct with New,
// feed with Reserve+Submit, stop with Close.
type Pipeline struct {
	limits Limits

	bytesInFlight   atomic.Int64
	batchesInFlight atomic.Int64
	peakBytes       atomic.Int64
	peakBatches     atomic.Int64

	admittedBatches atomic.Uint64
	admittedBytes   atomic.Uint64
	shedBatches     atomic.Uint64
	rejectedBatches atomic.Uint64
	appliedBatches  atomic.Uint64
	appliedRecords  atomic.Uint64
	failedBatches   atomic.Uint64

	// applyMu serialises Apply callbacks and guards the flip of
	// closed: once Close has held it, no Apply is running and every
	// later Submit sees closed.
	applyMu sync.Mutex
	closed  atomic.Bool
}

// New builds a pipeline with the given watermarks.
func New(limits Limits) *Pipeline {
	return &Pipeline{limits: limits.withDefaults()}
}

// Limits reports the configured (defaulted) watermarks.
func (p *Pipeline) Limits() Limits { return p.limits }

// Reserve admits size bytes and one batch slot, or refuses. On
// success the reservation is held until the submitted job completes;
// a caller that reserves but never submits must call Unreserve.
//
// The add-then-check-then-subtract discipline makes the bound exact
// under concurrency: the counters may transiently overshoot inside
// this function, but a batch only keeps its reservation if the
// post-add totals are within the watermarks, so admitted bytes never
// exceed MaxBytesInFlight.
func (p *Pipeline) Reserve(size int64) error {
	if size > p.limits.MaxBatchBytes {
		p.rejectedBatches.Add(1)
		return fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, size, p.limits.MaxBatchBytes)
	}
	if p.closed.Load() {
		return ErrClosed
	}
	b := p.bytesInFlight.Add(size)
	n := p.batchesInFlight.Add(1)
	if b > p.limits.MaxBytesInFlight || n > p.limits.MaxBatchesInFlight {
		p.bytesInFlight.Add(-size)
		p.batchesInFlight.Add(-1)
		p.shedBatches.Add(1)
		return ErrOverloaded
	}
	atomicMax(&p.peakBytes, b)
	atomicMax(&p.peakBatches, n)
	p.admittedBatches.Add(1)
	p.admittedBytes.Add(uint64(size))
	return nil
}

// Unreserve returns a reservation that will not be submitted (e.g.
// the body read failed after admission).
func (p *Pipeline) Unreserve(size int64) {
	p.bytesInFlight.Add(-size)
	p.batchesInFlight.Add(-1)
	// The batch never travelled, so back out its admission counters'
	// effect on shed/applied accounting by counting it failed.
	p.failedBatches.Add(1)
}

// Submit decodes an admitted job on the calling goroutine, then
// applies it, one batch at a time, blocking until the batch is fully
// applied (or fails). size must be the value passed to the matching
// Reserve. Returns the number of records applied.
func (p *Pipeline) Submit(job *Job, size int64) (int, error) {
	job.reservation = size
	start := time.Now()
	d, err := Decode(job.Kind, job.ContentType, job.Data)
	job.DecodeTime = time.Since(start)
	job.Data = nil // decoded; let the raw bytes go before apply waits
	if err != nil {
		p.release(job, 0, err)
		return 0, err
	}
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if p.closed.Load() {
		p.Unreserve(size)
		return 0, ErrClosed
	}
	start = time.Now()
	err = job.Apply(d)
	job.ApplyTime = time.Since(start)
	p.release(job, d.Records(), err)
	if err != nil {
		return 0, err
	}
	return d.Records(), nil
}

// release counts a finished batch, applied (with its records) or
// failed, and returns its reservation.
func (p *Pipeline) release(job *Job, records int, err error) {
	if err != nil {
		p.failedBatches.Add(1)
	} else {
		p.appliedBatches.Add(1)
		p.appliedRecords.Add(uint64(records))
	}
	p.bytesInFlight.Add(-job.reservation)
	p.batchesInFlight.Add(-1)
}

// Close stops intake: it waits for the batch being applied, and
// Reserve/Submit afterwards return ErrClosed. Safe to call more than
// once.
func (p *Pipeline) Close() {
	p.applyMu.Lock()
	p.closed.Store(true)
	p.applyMu.Unlock()
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		AdmittedBatches:     p.admittedBatches.Load(),
		AdmittedBytes:       p.admittedBytes.Load(),
		ShedBatches:         p.shedBatches.Load(),
		RejectedBatches:     p.rejectedBatches.Load(),
		AppliedBatches:      p.appliedBatches.Load(),
		AppliedRecords:      p.appliedRecords.Load(),
		FailedBatches:       p.failedBatches.Load(),
		BytesInFlight:       p.bytesInFlight.Load(),
		BatchesInFlight:     p.batchesInFlight.Load(),
		PeakBytesInFlight:   p.peakBytes.Load(),
		PeakBatchesInFlight: p.peakBatches.Load(),
	}
}

// Decode turns one batch body into typed records. Exposed so tests
// and offline tools can reuse the exact wire decoding the pipeline
// applies. The packets go through the wire format's one parser, payload
// checks included, and only their headers are kept.
func Decode(kind Kind, contentType string, data []byte) (Decoded, error) {
	if kind != KindPacket {
		return Decoded{}, fmt.Errorf("ingest: unknown kind %d", kind)
	}
	var packets []trace.Packet
	var err error
	switch contentType {
	case ContentTypeNDJSON:
		packets, err = trace.ParsePacketsNDJSON(data)
	case ContentTypeDPTR:
		packets, err = trace.ParsePacketsDPTR(data)
	default:
		return Decoded{}, fmt.Errorf("ingest: unsupported content type %q", contentType)
	}
	if err != nil {
		return Decoded{}, err
	}
	return Decoded{Headers: trace.Headers(packets)}, nil
}

// atomicMax raises *a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
