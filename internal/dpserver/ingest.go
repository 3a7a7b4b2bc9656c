package dpserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/obs/qlog"
)

// This file is the server side of live trace ingestion:
// POST /v1/ingest/{dataset} feeds the bounded pipeline in
// internal/ingest, which appends batches into hosted datasets under
// the same lock discipline queries snapshot against. The privacy
// invariants it preserves:
//
//   - Snapshot consistency: every dataset's records live in an
//     append-only core.Log of fixed-capacity segments. A query takes
//     one view of it — the segment list and a length — under s.mu's
//     read lock, and runs against that frozen snapshot. An append
//     copies the batch in above the log's length under the write
//     lock, never moving or rewriting a record the log holds, so for
//     any fixed snapshot the query's ε-charges and noise draws are
//     byte-identical to a run against a static dataset with the same
//     contents. A batch is either fully visible to a snapshot or not
//     at all, and an append costs the batch's own copy, however large
//     the dataset has grown.
//   - At-most-once apply within one server lifetime: a batch carrying
//     a (source, seq) identity goes through the idempotency table keyed
//     on it — a retried batch replays the stored ACK instead of
//     appending twice. The ACK is not journaled or replicated
//     (ingestReply): the records live in memory only, so after a
//     restart or a failover the same batch is appended again.
//   - Durable before ACK: the standing windows a batch closes are
//     staged in the journal as they happen and made durable by ONE
//     commit (Server.settle) before the ACK leaves and before the
//     windows' results reach list/long-poll readers.
//   - Fail-closed composition with degraded mode: while the ledger
//     refuses spends (frozen or degraded), ingest refuses too — the
//     dataset must not drift while ε-accounting cannot be journaled —
//     and the read path keeps serving.
//
// Overload sheds at the edge: watermark admission (bytes + batches in
// flight) answers 429 + Retry-After before the body is read, a
// too-large batch answers 413, and a draining server answers 503.

// WithIngestLimits configures the ingestion pipeline's watermarks
// (see ingest.Limits; zero fields take defaults).
func WithIngestLimits(l ingest.Limits) ServerOption {
	return func(s *Server) { s.ingest = ingest.New(l) }
}

// IngestStats snapshots the pipeline counters.
func (s *Server) IngestStats() ingest.Stats { return s.ingest.Stats() }

// ingestApplied is what one applied batch did to its dataset.
type ingestApplied struct {
	records int
	total   int
	batches uint64
}

// ingestTarget resolves a dataset name to an apply function, which
// appends a decoded batch to the dataset's log under s.mu's write lock.
func (s *Server) ingestTarget(name string) (func(ingest.Decoded) ingestApplied, bool) {
	d, ok := s.lookup(name)
	if !ok {
		return nil, false
	}
	return func(dec ingest.Decoded) ingestApplied {
		s.mu.Lock()
		d.packets.Append(dec.Packets)
		n := len(dec.Packets)
		d.watermark += uint64(n)
		d.ingestedBatches++
		applied := ingestApplied{n, int(d.watermark), d.ingestedBatches}
		mark := d.watermark
		s.mu.Unlock()
		// Standing windows fire here, under the pipeline's apply mutex,
		// after the batch is visible and before it is ACKed:
		// window execution order is the batch apply order, so the same
		// record sequence produces the same results regardless of how
		// batches chunk it. Their journal records are staged; the
		// request's commit (settle) makes them durable and publishes the
		// results.
		s.standing.Stage(name, mark)
		return applied
	}, true
}

// ingestContentType normalizes the Content-Type header: parameters
// like charset dropped, and lowercased, since media types match
// case-insensitively (RFC 9110 §8.3.1).
func ingestContentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// ingestShed emits the shed event + counter for one refused batch.
func (s *Server) ingestShed(dataset, reason string) {
	s.metrics.Counter("dp_ingest_shed_total", "dataset", dataset, "reason", reason).Inc()
	s.events.Log(qlog.Warn, "ingest_shed",
		qlog.F("dataset", dataset), qlog.F("reason", reason))
}

// handleIngest is POST /v1/ingest/{dataset}.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	ct := ingestContentType(r)
	if ct != api.ContentTypeNDJSON && ct != api.ContentTypeDPTR {
		writeError(w, http.StatusUnsupportedMediaType, apiError{
			Code: codeBadRequest,
			Message: fmt.Sprintf("unsupported content type %q (want %s or %s)",
				ct, api.ContentTypeNDJSON, api.ContentTypeDPTR),
		})
		return
	}
	apply, ok := s.ingestTarget(name)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{
			Code: codeNotFound, Message: fmt.Sprintf("unknown dataset %q", name)})
		return
	}
	source := r.Header.Get(api.BatchSourceHeader)
	seq := r.Header.Get(api.BatchSeqHeader)
	if (source == "") != (seq == "") {
		writeError(w, http.StatusBadRequest, apiError{
			Code: codeBadRequest,
			Message: fmt.Sprintf("%s and %s must be sent together",
				api.BatchSourceHeader, api.BatchSeqHeader)})
		return
	}

	// Ingest mutates protected state, so it shares the spend path's
	// lifecycle gates: drain refusal (with in-flight tracking so
	// Shutdown waits for admitted batches) and fail-closed degraded
	// mode. It does NOT share the query concurrency semaphore — its
	// own watermarks bound it.
	if !s.enter() {
		s.ingestShed(name, "shutting_down")
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})
		return
	}
	defer s.inflight.Done()
	s.noteDegraded(s.ledger.Refusing())
	if cause := s.spendRefusal(); cause != nil {
		code, msg := shedCodeFor(cause)
		s.ingestShed(name, code)
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: code, Message: msg, Retryable: true})
		return
	}

	// At-most-once: (source, seq) rides the idempotency table like a
	// query's idempotency key — the endpoint path (which embeds the
	// dataset) scopes it, source takes the analyst slot — but in this
	// process only (ingestReply). Only the applied ACK is cached;
	// refusals and errors re-execute on retry.
	var key string
	if source != "" {
		key = source + "\x00" + seq
	}
	s.serveIdempotent(w, r, name, source, key,
		func(ctx context.Context) execResult {
			return s.executeIngest(w, r, name, ct, source, seq, apply)
		})
}

// executeIngest admits, reads, and applies one batch. It may set the
// Retry-After header on w (written when serveIdempotent flushes the
// returned status). Only a 200 ACK is cacheable; the ACK and the
// batch's "ingest" wide event wait for settle's commit.
func (s *Server) executeIngest(w http.ResponseWriter, r *http.Request, name, ct, source, seq string,
	apply func(ingest.Decoded) ingestApplied) execResult {
	start := time.Now()
	pipe := s.ingest

	// Admission before the body read when Content-Length is declared:
	// an overloaded server refuses without buffering the batch.
	// Chunked senders are read first (bounded by the per-batch cap)
	// and admitted on actual size.
	size := r.ContentLength
	var body []byte
	if size >= 0 {
		if err := pipe.Reserve(size); err != nil {
			return s.ingestRefusal(w, name, err)
		}
		// The length is known and admitted: one exact buffer, not
		// ReadAll's doublings. A byte beyond it means the length lied.
		body = make([]byte, size)
		_, err := io.ReadFull(r.Body, body)
		over, _ := io.ReadFull(r.Body, make([]byte, 1))
		if err != nil || over > 0 {
			pipe.Unreserve(size)
			return execResult{status: http.StatusBadRequest, body: marshalJSON(apiError{
				Code: codeBadRequest, Message: "body read failed or short"})}
		}
	} else {
		max := pipe.Limits().MaxBatchBytes
		b, err := io.ReadAll(io.LimitReader(r.Body, max+1))
		if err != nil {
			return execResult{status: http.StatusBadRequest, body: marshalJSON(apiError{
				Code: codeBadRequest, Message: "body read failed: " + err.Error()})}
		}
		if int64(len(b)) > max {
			s.ingestShed(name, "too_large")
			return execResult{status: http.StatusRequestEntityTooLarge, body: marshalJSON(apiError{
				Code:    codeTooLarge,
				Message: fmt.Sprintf("batch exceeds %d byte limit", max)})}
		}
		size = int64(len(b))
		if err := pipe.Reserve(size); err != nil {
			return s.ingestRefusal(w, name, err)
		}
		body = b
	}

	var applied ingestApplied
	job := &ingest.Job{
		Kind: ingest.KindPacket, ContentType: ct, Data: body,
		Apply: func(d ingest.Decoded) error {
			applied = apply(d)
			return nil
		},
	}
	if _, err := pipe.Submit(job, size); err != nil {
		if errors.Is(err, ingest.ErrClosed) {
			return s.ingestRefusal(w, name, err)
		}
		s.metrics.Counter("dp_ingest_batches_total", "dataset", name, "outcome", "error").Inc()
		s.events.Log(qlog.Warn, "ingest",
			qlog.F("dataset", name), qlog.F("source", source), qlog.F("seq", seq),
			qlog.F("outcome", "error"), qlog.F("bytes", size),
			qlog.F("error", err.Error()),
			qlog.F("decode_ms", durationMs(job.DecodeTime)),
			qlog.F("apply_ms", durationMs(job.ApplyTime)),
			qlog.F("duration_ms", durationMs(time.Since(start))))
		return execResult{status: http.StatusBadRequest, body: marshalJSON(apiError{
			Code: codeBadRequest, Message: "bad batch: " + err.Error()})}
	}

	s.metrics.Counter("dp_ingest_batches_total", "dataset", name, "outcome", "ok").Inc()
	s.metrics.Counter("dp_ingest_records_total", "dataset", name).Add(float64(applied.records))
	s.metrics.Counter("dp_ingest_bytes_total", "dataset", name).Add(float64(size))
	return execResult{
		status: http.StatusOK, cacheable: true,
		body: marshalJSON(api.IngestResponse{
			Dataset: name, Records: applied.records, TotalRecords: applied.total,
			Batches: applied.batches, Source: source, Seq: seq,
		}),
		finish: func(status int, js journalStats) {
			outcome := "ok"
			if status != http.StatusOK {
				// Applied in memory, but the commit failed: the ACK is
				// withheld and the sender will retry.
				outcome = "unacked"
			}
			s.events.Log(qlog.Info, "ingest", append([]qlog.Field{
				qlog.F("dataset", name), qlog.F("source", source), qlog.F("seq", seq),
				qlog.F("outcome", outcome), qlog.F("records", applied.records),
				qlog.F("total_records", applied.total), qlog.F("bytes", size),
				qlog.F("idempotency", idemStatus(source)),
				qlog.F("decode_ms", durationMs(job.DecodeTime)),
				qlog.F("apply_ms", durationMs(job.ApplyTime)),
				qlog.F("duration_ms", durationMs(time.Since(start))),
			}, js.fields()...)...)
		},
	}
}

// ingestRefusal maps a Reserve error to its response: 429 for
// watermark sheds (retryable, with Retry-After), 413 for an oversized
// batch (a retry cannot succeed), 503 when the pipeline is closed.
func (s *Server) ingestRefusal(w http.ResponseWriter, name string, err error) execResult {
	switch {
	case errors.Is(err, ingest.ErrTooLarge):
		s.ingestShed(name, "too_large")
		return execResult{status: http.StatusRequestEntityTooLarge, body: marshalJSON(apiError{
			Code: codeTooLarge, Message: err.Error()})}
	case errors.Is(err, ingest.ErrClosed):
		s.ingestShed(name, "shutting_down")
		w.Header().Set("Retry-After", retryAfter)
		return execResult{status: http.StatusServiceUnavailable, body: marshalJSON(apiError{
			Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})}
	default:
		s.ingestShed(name, "overloaded")
		w.Header().Set("Retry-After", retryAfter)
		return execResult{status: http.StatusTooManyRequests, body: marshalJSON(apiError{
			Code: codeOverloaded, Message: "ingest pipeline overloaded; retry later", Retryable: true})}
	}
}
