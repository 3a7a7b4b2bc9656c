package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/trace"
)

// ingestSize is the ingest-standing section's batch counts per phase.
type ingestSize struct {
	seedPackets        int
	ndjsonWarm, ndjson int
	dptrWarm, dptr     int
}

const (
	batchRecords = 1000
	// batchPool is how many distinct pre-encoded batches a phase cycles
	// through at most; the server never looks at record identity, only
	// at the (source, seq) of a batch, which is always fresh.
	batchPool = 40
)

// standingSpecs are the four standing queries of the section, each
// tumbling at exactly one batch, each under its own analyst.
var standingSpecs = []api.StandingRequest{
	{Query: "count", Filter: &api.Filter{DstPort: intp(443)}},
	{Query: "count"},
	{Query: "distinctsrc"},
	{Query: "lenquantile", Fraction: 0.5},
}

// encodeBatches pre-encodes pool batches of size records each, so that
// the sender's loop does nothing but POST.
func encodeBatches(packets []trace.Packet, size int, ndjson bool) ([][]byte, error) {
	var out [][]byte
	for off := 0; off+size <= len(packets); off += size {
		chunk := packets[off : off+size]
		if ndjson {
			out = append(out, trace.MarshalPacketsNDJSON(chunk))
			continue
		}
		var buf bytes.Buffer
		if err := trace.WritePackets(&buf, chunk); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// postBatch is dpclient.IngestBatch for an already-encoded body (the
// client offers no such entry point): same path, same headers, same
// ACK type, no retries.
func postBatch(hc *http.Client, base, contentType, source string, seq int, body []byte) (*api.IngestResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+api.IngestPath(dataset), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(api.BatchSourceHeader, source)
	req.Header.Set(api.BatchSeqHeader, strconv.Itoa(seq))
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var ack api.IngestResponse
	if err := json.Unmarshal(out, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// registerStanding registers specs (window = width records, tumbling)
// and returns the registrations in order.
func registerStanding(h *host, specs []api.StandingRequest, eps float64, width int) ([]api.StandingInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	var infos []api.StandingInfo
	for i, spec := range specs {
		spec.Epsilon = eps
		// Generous: the section measures firing cost, not exhaustion.
		spec.Reservation = eps * 1e6
		spec.Window = api.StandingWindow{Width: uint64(width)}
		// A fixed ID keeps the result digest free of server-minted names.
		spec.ID = fmt.Sprintf("sq-%02d", i)
		info, err := h.client(fmt.Sprintf("standing-%02d", i), 0).RegisterStanding(ctx, dataset, spec)
		if err != nil {
			return nil, fmt.Errorf("register standing %d: %w", i, err)
		}
		infos = append(infos, *info)
	}
	return infos, nil
}

// windowWatcher long-polls one standing query's results on the second
// connection and records when each window's result came back.
type windowWatcher struct {
	mu      sync.Mutex
	arrived map[uint64]time.Time
	err     error
	stop    context.CancelFunc
	done    chan struct{}
}

func watchWindows(c *dpclient.Client, id string) *windowWatcher {
	ctx, cancel := context.WithCancel(context.Background())
	w := &windowWatcher{arrived: map[uint64]time.Time{}, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var after uint64
		for ctx.Err() == nil {
			res, err := c.StandingResults(ctx, dataset, id, after, 2000)
			now := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					w.mu.Lock()
					w.err = err
					w.mu.Unlock()
				}
				return
			}
			w.mu.Lock()
			for i := after; i < res.NextWindow; i++ {
				w.arrived[i] = now
			}
			w.mu.Unlock()
			after = res.NextWindow
		}
	}()
	return w
}

// wait blocks until window idx has arrived (or the watcher failed).
func (w *windowWatcher) wait(idx uint64) error {
	deadline := time.Now().Add(callTimeout)
	for {
		w.mu.Lock()
		_, ok := w.arrived[idx]
		err := w.err
		w.mu.Unlock()
		switch {
		case ok:
			return nil
		case err != nil:
			return fmt.Errorf("standing long-poll: %w", err)
		case time.Now().After(deadline):
			return fmt.Errorf("standing window %d never arrived", idx)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *windowWatcher) close() {
	w.stop()
	<-w.done
}

// ingestPhase is one codec's phase of the ingest-standing section.
type ingestPhase struct {
	name, contentType, pps string
	ndjson                 bool
}

var ingestPhases = []ingestPhase{
	{"ndjson", api.ContentTypeNDJSON, "ingest_ndjson_pps", true},
	{"dptr", api.ContentTypeDPTR, "ingest_dptr_pps", false},
}

// ingestPart is one phase of the ingest-standing section: the write
// path only — codec, ingest pipeline, single appender, standing fires
// and their standing_window WAL events — with no analyst. A fresh
// server, one closed-loop sender on the first connection, one
// long-poller on the second. The two phases of a run are two parts
// sharing one section.
type ingestPart struct {
	rc      *runCtx
	s       *section
	ph      ingestPhase
	warm, n int
	seed    []trace.Packet // the dataset the server starts with
	pool    []trace.Packet // what the batches are cut from

	h       *host
	infos   []api.StandingInfo
	watcher *windowWatcher
	bodies  [][]byte
	sent    []time.Time
	acks    latencies
	wall    time.Duration
	pps     []float64 // per slice: records ACKed over the slice's wall time
}

func newIngestParts(rc *runCtx, sz ingestSize) (*section, []part) {
	s := newSection(wIngest, true)
	seed := rc.seed*4 + 2
	var packets []trace.Packet
	_ = timed(&s.setup, func() error {
		pool := min(batchPool, sz.dptrWarm+sz.dptr)
		packets = hotspotPackets(seed, sz.seedPackets+pool*batchRecords)
		return nil
	})
	return s, []part{
		&ingestPart{rc: rc, s: s, ph: ingestPhases[0], warm: sz.ndjsonWarm, n: sz.ndjson, seed: packets[:sz.seedPackets:sz.seedPackets], pool: packets[sz.seedPackets:]},
		&ingestPart{rc: rc, s: s, ph: ingestPhases[1], warm: sz.dptrWarm, n: sz.dptr, seed: packets[:sz.seedPackets:sz.seedPackets], pool: packets[sz.seedPackets:]},
	}
}

// send posts the next batch. traced wraps it in a span.
func (p *ingestPart) send(traced bool) (time.Duration, bool) {
	seq := len(p.sent)
	var span int
	if traced {
		span = p.rc.tr.open(fmt.Sprintf("%s/%s#%d", p.s.name, p.ph.name, seq), "e2e.ingest_"+p.ph.name, 0)
	}
	t0 := time.Now()
	p.sent = append(p.sent, t0)
	_, err := postBatch(p.h.conns[0], p.h.url, p.ph.contentType, "bench-"+p.ph.name, seq, p.bodies[seq%len(p.bodies)])
	d := time.Since(t0)
	if traced {
		p.rc.tr.end(span, batchRecords)
	}
	p.s.attempted++
	if err != nil {
		p.s.failed++
		return 0, false
	}
	return d, true
}

func (p *ingestPart) setup() error {
	err := timed(&p.s.setup, func() error {
		seed := p.rc.seed*4 + 2
		var err error
		if p.bodies, err = encodeBatches(p.pool, batchRecords, p.ph.ndjson); err != nil {
			return err
		}
		if p.h, err = newHost(p.rc.root, "ingest-"+p.ph.name, seed, ledgerWAL, false, p.seed); err != nil {
			return err
		}
		if p.infos, err = registerStanding(p.h, standingSpecs, seededEpsilon(seed), batchRecords); err != nil {
			return err
		}
		p.watcher = watchWindows(p.h.client(p.infos[0].Analyst, 1), p.infos[0].ID)
		for i := 0; i < p.warm; i++ {
			p.send(false)
		}
		if p.warm > 0 {
			return p.watcher.wait(uint64(p.warm) - 1)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ingest-standing/%s: %w", p.ph.name, err)
	}
	return nil
}

func (p *ingestPart) measure(yield func()) error {
	for _, n := range sliceCounts(p.n) {
		p.acks.cut()
		acked := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			// On a traced run every second batch carries a span.
			traced := p.rc.tr != nil && i%2 == 1
			if d, ok := p.send(traced); ok {
				p.acks.plain = append(p.acks.plain, d)
				acked++
			}
		}
		wall := time.Since(t0)
		p.wall += wall
		p.pps = append(p.pps, float64(acked*batchRecords)/wall.Seconds())
		yield()
	}
	p.s.measured += p.wall
	return nil
}

func (p *ingestPart) finish() error {
	defer p.h.close()
	defer p.watcher.close()
	s, h, name := p.s, p.h, p.ph.name
	fail := func(err error) error { return fmt.Errorf("ingest-standing/%s: %w", name, err) }
	if len(p.acks.plain) == 0 {
		return fail(fmt.Errorf("no batch ACKed out of %d", p.n))
	}
	// The mean of the slices' throughputs, as the latencies: see overSlices.
	s.metrics[p.ph.pps] = measurement{Value: overSlices(p.pps), Unit: "records/s", Samples: len(p.acks.plain)}
	total := len(p.sent)
	if err := p.watcher.wait(uint64(total) - 1); err != nil {
		return fail(err)
	}
	if p.ph.ndjson {
		if err := p.acks.report(s, "ingest_ack_p50_ms"); err != nil {
			return err
		}
		// From the POST of the batch that closes a window to the moment
		// the long-poll returned that window's result.
		lags := make([]time.Duration, 0, total-p.warm)
		p.watcher.mu.Lock()
		for i := p.warm; i < total; i++ {
			lags = append(lags, p.watcher.arrived[uint64(i)].Sub(p.sent[i]))
		}
		p.watcher.mu.Unlock()
		s.latency("standing_lag_p50_ms", lags, p.acks.cuts)
	}
	p.watcher.close()

	// Output checks: nothing shed or failed in the pipeline, every
	// window of every standing query fired, and the standing charges
	// reconcile with the budget surfaces.
	st := h.srv.IngestStats()
	s.check(st.ShedBatches == 0 && st.FailedBatches == 0 && st.AppliedBatches == uint64(total),
		"%s: pipeline applied %d of %d batches (shed %d, failed %d)", name, st.AppliedBatches, total, st.ShedBatches, st.FailedBatches)
	stand := h.srv.StandingStats()
	s.check(stand.Windows == uint64(total*len(standingSpecs)),
		"%s: %d standing windows fired, want %d", name, stand.Windows, total*len(standingSpecs))
	if p.ph.ndjson && p.rc.tr != nil {
		var err error
		if s.walShapes, err = walShapes(h.ledDir); err != nil {
			return fail(fmt.Errorf("read back WAL: %w", err))
		}
	}
	if p.ph.ndjson {
		s.diag["ingest.peak_batches_inflight"] = measurement{Value: float64(st.PeakBatchesInFlight), Unit: "count"}
		s.diag["standing.fires"] = measurement{Value: float64(stand.Windows), Unit: "count"}
		s.diag["standing.fire_p50_us"] = measurement{Value: micros(stand.FireP50), Unit: "us"}
	}

	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	for _, info := range p.infos {
		if err := digestStanding(ctx, s.digest, h.client("auditor", 0), info.ID); err != nil {
			return fail(err)
		}
	}
	s.audit(h, name+": ", nil, p.infos)
	return nil
}

// digestStanding folds the retained window results of one standing
// query into the digest — everything but the wall-clock fire time.
func digestStanding(ctx context.Context, d *digest, c *dpclient.Client, id string) error {
	out, err := c.StandingResults(ctx, dataset, id, 0, 0)
	if err != nil {
		return err
	}
	results, err := out.Decoded()
	if err != nil {
		return err
	}
	for _, r := range results {
		d.str(r.ID)
		d.str(r.Outcome)
		d.ints(int64(r.Window), int64(r.Start), int64(r.End), int64(len(r.Values)))
		d.floats(r.Values...)
		d.floats(r.Charged, r.Spent, r.NoiseStd)
	}
	return nil
}
