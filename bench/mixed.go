package main

import (
	"fmt"
	"time"

	"dptrace/internal/dpserver/api"
)

// mixedSize is the mixed-live section's schedule: batches posted at a
// fixed interval, after warm rounds of the analyst's two queries.
type mixedSize struct {
	seedPackets int
	warm        int // analyst warm-up rounds (count + hosts) and sender warm-up batches
	batches     int
}

const (
	mixedInterval     = 10 * time.Millisecond
	mixedBatchRecords = 250
	// A batch the generator itself sent this long after it could have
	// (after both its due time and the previous ACK) is late: the load
	// generator, which shares the two cores with the server, was the
	// bottleneck. Two intervals, because the Go scheduler only preempts a
	// running goroutine after 10 ms: with both cores in a long query and
	// a GC worker, a 10 ms wait for a P is the scheduler's normal worst
	// case, not a stalled generator. Late batches are reported (their
	// latency, timed from the due time, stands); more than
	// mixedLateShare of them invalidates the run.
	mixedLateLimit = 2 * mixedInterval
	mixedLateShare = 0.05
)

// mixedStanding are the section's two standing queries, tumbling every
// four batches.
var mixedStanding = []api.StandingRequest{
	{Query: "count", Filter: &api.Filter{DstPort: intp(443)}},
	{Query: "lenquantile", Fraction: 0.5},
}

// mixedPart is the mixed-live section: reads beside writes on one
// dataset. An OPEN-loop sender posts a small NDJSON batch every 10 ms on
// the first connection, each timed from the moment it was due, while
// one closed-loop analyst alternates count and hosts on the second. The
// dataset grows on a fixed schedule, so query cost is comparable across
// runs; a gain for ingest that costs queries (or the reverse) shows.
type mixedPart struct {
	rc *runCtx
	s  *section
	sz mixedSize

	h      *host
	infos  []api.StandingInfo
	q      *querier
	eps    float64
	bodies [][]byte
	seq    int

	lat         []latencies // per analyst kind
	acks        latencies
	late        []time.Duration
	sendFailed  int
	lateBatches int
	queries     int
}

// mixedKinds are the analyst's two queries: count{dstPort=443}, hosts.
var mixedKinds = scanKinds[:2]

func newMixedPart(rc *runCtx, sz mixedSize) *mixedPart {
	return &mixedPart{rc: rc, s: newSection(wMixed, false), sz: sz, lat: make([]latencies, len(mixedKinds))}
}

func (p *mixedPart) post() error {
	_, err := postBatch(p.h.conns[0], p.h.url, api.ContentTypeNDJSON, "bench-mixed", p.seq, p.bodies[p.seq%len(p.bodies)])
	p.seq++
	return err
}

func (p *mixedPart) setup() error {
	err := timed(&p.s.setup, func() error {
		seed := p.rc.seed*4 + 3
		pool := min(batchPool, p.sz.batches)
		packets := hotspotPackets(seed, p.sz.seedPackets+pool*mixedBatchRecords)
		var err error
		if p.bodies, err = encodeBatches(packets[p.sz.seedPackets:], mixedBatchRecords, true); err != nil {
			return err
		}
		if p.h, err = newHost(p.rc.root, "mixed", seed, ledgerWAL, false, packets[:p.sz.seedPackets:p.sz.seedPackets]); err != nil {
			return err
		}
		p.eps = seededEpsilon(seed)
		if p.infos, err = registerStanding(p.h, mixedStanding, p.eps, 4*mixedBatchRecords); err != nil {
			return err
		}
		p.q = newQuerier(p.rc, p.s, p.h, "analyst-mixed", 1)
		for i := 0; i < p.sz.warm; i++ {
			for _, k := range mixedKinds {
				p.q.do(k.req(p.eps), false)
			}
			if err := p.post(); err != nil {
				return fmt.Errorf("warm-up batch: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mixed-live: %w", err)
	}
	return nil
}

// measure runs the schedule in slices; within a slice the analyst runs
// beside the sender and stops when the slice's last batch is ACKed.
func (p *mixedPart) measure(yield func()) error {
	for _, n := range sliceCounts(p.sz.batches) {
		_ = timed(&p.s.measured, func() error { p.slice(n); return nil })
		yield()
	}
	return nil
}

func (p *mixedPart) slice(batches int) {
	p.acks.cut()
	for i := range p.lat {
		p.lat[i].cut()
	}
	stop := make(chan struct{})
	analystDone := make(chan struct{})
	go func() {
		defer close(analystDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := p.queries % len(mixedKinds)
			// On a traced run every second pair of queries is traced.
			traced := p.q.tr != nil && p.queries/len(mixedKinds)%2 == 1
			p.queries++
			if d, ok := p.q.do(mixedKinds[i].req(p.eps), traced); ok {
				if traced {
					p.lat[i].traced = append(p.lat[i].traced, d)
				} else {
					p.lat[i].plain = append(p.lat[i].plain, d)
				}
			}
		}
	}()

	// The sender has one connection, so a batch waits for the previous
	// ACK: that wait is queueing in the open-loop system and counts in
	// the batch's latency (timed from its due time). What the generator
	// itself adds — waking after both the due time and the previous ACK
	// — is its lateness.
	start := time.Now()
	free := start
	for i := 0; i < batches; i++ {
		due := start.Add(time.Duration(i) * mixedInterval)
		time.Sleep(time.Until(due))
		ready := due
		if free.After(ready) {
			ready = free
		}
		lag := time.Since(ready)
		p.late = append(p.late, lag)
		if lag > mixedLateLimit {
			p.lateBatches++
		}
		err := p.post()
		free = time.Now()
		if err != nil {
			p.sendFailed++
			continue
		}
		p.acks.plain = append(p.acks.plain, free.Sub(due))
	}
	close(stop)
	<-analystDone
}

func (p *mixedPart) finish() error {
	defer p.h.close()
	s, h := p.s, p.h
	sent := p.sz.batches
	s.attempted += sent
	s.failed += p.sendFailed
	// (Not at smoke scale: the harness's own tests run beside other
	// packages' tests under the race detector and measure nothing.)
	if !p.rc.smoke() && float64(p.lateBatches) > mixedLateShare*float64(sent) {
		return fmt.Errorf("mixed-live: run invalid: the open-loop generator itself sent %d of %d batches more than %v late",
			p.lateBatches, sent, mixedLateLimit)
	}
	if err := p.acks.report(s, "ingest_ack_p50_ms"); err != nil {
		return err
	}
	for i, k := range mixedKinds {
		if err := p.lat[i].report(s, k.metric); err != nil {
			return err
		}
	}
	s.diag["gen.late_p50_ms"] = measurement{Value: median(ms(p.late)), Unit: "ms", Samples: len(p.late)}
	s.diag["gen.late_batches"] = measurement{Value: float64(p.lateBatches), Unit: "count", Samples: sent}

	st := h.srv.IngestStats()
	s.check(st.ShedBatches == 0 && st.FailedBatches == 0 && st.AppliedBatches == uint64(p.seq),
		"pipeline applied %d of %d batches (shed %d, failed %d)", st.AppliedBatches, p.seq, st.ShedBatches, st.FailedBatches)
	s.audit(h, "", []spendTracker{p.q.sp}, p.infos)
	return nil
}
