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
//   - Snapshot consistency: a query captures its record slice once,
//     under s.mu's read lock, and runs against that frozen snapshot.
//     Appends replace the slice wholesale under the write lock, so
//     for any fixed snapshot the query's ε-charges and noise draws
//     are byte-identical to a run against a static dataset with the
//     same contents. A batch is either fully visible to a snapshot or
//     not at all.
//   - At-most-once apply: a batch carrying a (source, seq) identity
//     goes through the PR3 idempotency cache keyed on it — a retried
//     batch replays the stored ACK instead of appending twice.
//   - Durable before ACK: the standing windows a batch closes and its
//     keyed reply are staged in the journal as they happen and made
//     durable by ONE commit (Server.settle) before the ACK leaves and
//     before the windows' results reach list/long-poll readers.
//   - Fail-closed composition with degraded mode: while the ledger
//     refuses spends (frozen or degraded), ingest refuses too — the
//     dataset must not drift while ε-accounting cannot be journaled —
//     and the read path keeps serving.
//
// Overload sheds at the edge: watermark admission (bytes + batches in
// flight) answers 429 + Retry-After before the body is read, a
// too-large batch answers 413, and a draining server answers 503.

// WithIngestLimits configures the ingestion pipeline's watermarks and
// decoder parallelism (see ingest.Limits; zero fields take defaults).
func WithIngestLimits(l ingest.Limits) ServerOption {
	return func(s *Server) { s.ingestLimits = l }
}

// pipeline returns the ingest pipeline, starting it on first use so
// the many servers that never ingest don't pay its goroutines. Returns
// nil after closeIngest (post-drain): callers answer 503.
func (s *Server) pipeline() *ingest.Pipeline {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ingestPipe == nil && !s.ingestClosed {
		pipe := ingest.New(s.ingestLimits)
		s.ingestPipe = pipe
		s.metrics.GaugeFunc("dp_ingest_bytes_inflight", func() float64 {
			return float64(pipe.Stats().BytesInFlight)
		})
		s.metrics.GaugeFunc("dp_ingest_batches_inflight", func() float64 {
			return float64(pipe.Stats().BatchesInFlight)
		})
	}
	return s.ingestPipe
}

// closeIngest drains and stops the pipeline; Shutdown calls it after
// the in-flight drain so every admitted batch is applied first.
func (s *Server) closeIngest() {
	s.ingestMu.Lock()
	pipe := s.ingestPipe
	s.ingestClosed = true
	s.ingestMu.Unlock()
	if pipe != nil {
		pipe.Close()
	}
}

// IngestStats snapshots the pipeline counters (zero value before any
// ingest traffic).
func (s *Server) IngestStats() ingest.Stats {
	s.ingestMu.Lock()
	pipe := s.ingestPipe
	s.ingestMu.Unlock()
	if pipe == nil {
		return ingest.Stats{}
	}
	return pipe.Stats()
}

// ingestApplied is what one applied batch did to its dataset.
type ingestApplied struct {
	records int
	total   int
	batches uint64
}

// ingestTarget resolves a dataset name to its record kind and an
// apply function. The apply function validates then appends the
// decoded batch under s.mu's write lock — atomically: a batch that
// fails validation changes nothing.
func (s *Server) ingestTarget(name string) (ingest.Kind, func(ingest.Decoded) (ingestApplied, error), bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d := s.datasets[name]; d != nil {
		return ingest.KindPacket, func(dec ingest.Decoded) (ingestApplied, error) {
			s.mu.Lock()
			d.packets = append(d.packets, dec.Packets...)
			d.watermark += uint64(len(dec.Packets))
			d.ingestedBatches++
			applied := ingestApplied{len(dec.Packets), len(d.packets), d.ingestedBatches}
			mark := d.watermark
			s.mu.Unlock()
			// Standing windows fire here, on the pipeline's single
			// appender goroutine, after the batch is visible and before
			// it is ACKed: window execution order is the batch apply
			// order, so the same record sequence produces the same
			// results regardless of how batches chunk it. Their journal
			// records are staged; the request's commit (settle) makes
			// them durable and publishes the results.
			s.standing.Stage(name, mark)
			return applied, nil
		}, true
	}
	if d := s.linkSets[name]; d != nil {
		return ingest.KindLink, func(dec ingest.Decoded) (ingestApplied, error) {
			for _, x := range dec.Links {
				if int(x.Link) >= d.links || int(x.Bin) >= d.bins {
					return ingestApplied{}, fmt.Errorf("link sample (link=%d, bin=%d) outside dataset dims %dx%d",
						x.Link, x.Bin, d.links, d.bins)
				}
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			d.samples = append(d.samples, dec.Links...)
			d.ingestedBatches++
			return ingestApplied{len(dec.Links), len(d.samples), d.ingestedBatches}, nil
		}, true
	}
	if d := s.hopSets[name]; d != nil {
		return ingest.KindHop, func(dec ingest.Decoded) (ingestApplied, error) {
			for _, x := range dec.Hops {
				if int(x.Monitor) >= d.monitors {
					return ingestApplied{}, fmt.Errorf("hop record monitor %d outside dataset's %d monitors",
						x.Monitor, d.monitors)
				}
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			d.records = append(d.records, dec.Hops...)
			d.ingestedBatches++
			return ingestApplied{len(dec.Hops), len(d.records), d.ingestedBatches}, nil
		}, true
	}
	return 0, nil, false
}

// ingestContentType normalizes the Content-Type header (drops
// parameters like charset).
func ingestContentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// ingestShed emits the shed event + counter for one refused batch.
func (s *Server) ingestShed(dataset, reason string) {
	s.metrics.Counter("dp_ingest_shed_total", "dataset", dataset, "reason", reason).Inc()
	s.events.Log(qlog.Warn, "ingest_shed",
		qlog.F("dataset", dataset), qlog.F("reason", reason))
}

// handleIngest is POST /v1/ingest/{dataset}. Mounted v1-only: live
// ingestion has no legacy alias to honor.
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
	kind, apply, ok := s.ingestTarget(name)
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
		w.Header().Set("Retry-After", s.limits.retryAfter())
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})
		return
	}
	defer s.inflight.Done()
	s.noteDegraded(s.ledgerRefusal())
	if cause := s.spendRefusal(); cause != nil {
		code, msg := shedCodeFor(cause)
		s.ingestShed(name, code)
		w.Header().Set("Retry-After", s.limits.retryAfter())
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: code, Message: msg, Retryable: true})
		return
	}

	// At-most-once: (source, seq) rides the idempotency cache exactly
	// like a query's idempotency key — the endpoint path (which embeds
	// the dataset) scopes it, source takes the analyst slot. Only the
	// applied ACK is cached; refusals and errors re-execute on retry.
	var key string
	if source != "" {
		key = source + "\x00" + seq
	}
	s.serveIdempotent(w, r, name, source, key,
		func(ctx context.Context) execResult {
			return s.executeIngest(w, r, name, kind, ct, source, seq, apply)
		})
}

// executeIngest admits, reads, and applies one batch. It may set the
// Retry-After header on w (written when serveIdempotent flushes the
// returned status). Only a 200 ACK is cacheable; the ACK and the
// batch's "ingest" wide event wait for settle's commit.
func (s *Server) executeIngest(w http.ResponseWriter, r *http.Request, name string, kind ingest.Kind,
	ct, source, seq string, apply func(ingest.Decoded) (ingestApplied, error)) execResult {
	start := time.Now()
	pipe := s.pipeline()
	if pipe == nil {
		s.ingestShed(name, "shutting_down")
		w.Header().Set("Retry-After", s.limits.retryAfter())
		return execResult{status: http.StatusServiceUnavailable, body: marshalJSON(apiError{
			Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})}
	}

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
		Kind: kind, ContentType: ct, Data: body,
		Apply: func(d ingest.Decoded) error {
			a, err := apply(d)
			if err != nil {
				return err
			}
			applied = a
			return nil
		},
	}
	if _, err := pipe.Submit(job, size); err != nil {
		if errors.Is(err, ingest.ErrClosed) {
			s.ingestShed(name, "shutting_down")
			w.Header().Set("Retry-After", s.limits.retryAfter())
			return execResult{status: http.StatusServiceUnavailable, body: marshalJSON(apiError{
				Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})}
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
		w.Header().Set("Retry-After", s.limits.retryAfter())
		return execResult{status: http.StatusServiceUnavailable, body: marshalJSON(apiError{
			Code: codeShuttingDown, Message: "server is shutting down", Retryable: true})}
	default:
		s.ingestShed(name, "overloaded")
		w.Header().Set("Retry-After", s.limits.retryAfter())
		return execResult{status: http.StatusTooManyRequests, body: marshalJSON(apiError{
			Code: codeOverloaded, Message: "ingest pipeline overloaded; retry later", Retryable: true})}
	}
}
