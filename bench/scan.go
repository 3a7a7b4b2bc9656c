package main

import (
	"context"
	"fmt"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver/api"
)

// scanSize is the scan section's dataset size, per query kind the
// warm-up and measured query counts, and the first kind it runs: on
// mixed-live count and hosts come from the mixed section, and the scan
// section leaves them out.
type scanSize struct {
	packets, warm, rounds int
	from                  int
}

// scanKind is one query kind of the scan round with the one filter and
// parameter set its latency metric is defined over (design rule 4: one
// kind, one filter, one dataset size per latency metric).
type scanKind struct {
	metric string
	// weight multiplies the kind's query count: the cheap kinds get more
	// queries, so that every kind is measured for a comparable time.
	weight int
	req    func(eps float64) api.QueryRequest
}

var scanKinds = []scanKind{
	{"count_p50_ms", 4, func(eps float64) api.QueryRequest {
		return api.QueryRequest{Dataset: dataset, Query: "count", Epsilon: eps, Filter: &api.Filter{DstPort: intp(443)}}
	}},
	{"hosts_p50_ms", 1, func(eps float64) api.QueryRequest {
		return api.QueryRequest{Dataset: dataset, Query: "hosts", Epsilon: eps, MinBytes: 1024}
	}},
	{"lencdf_p50_ms", 1, func(eps float64) api.QueryRequest {
		return api.QueryRequest{Dataset: dataset, Query: "lencdf", Epsilon: eps, BucketStep: 16}
	}},
	{"lenquantile_p50_ms", 2, func(eps float64) api.QueryRequest {
		return api.QueryRequest{Dataset: dataset, Query: "lenquantile", Epsilon: eps, Fraction: 0.5}
	}},
	{"distinctsrc_p50_ms", 1, func(eps float64) api.QueryRequest {
		return api.QueryRequest{Dataset: dataset, Query: "distinctsrc", Epsilon: eps}
	}},
}

// querier issues one analyst's queries for a section and accounts for
// them: attempted/failed on the section, the ACKed spend for the budget
// audit, the response on the digest. A failed query contributes no
// latency sample.
type querier struct {
	s  *section
	c  *dpclient.Client
	sp spendTracker
	tr *tracer // nil on untraced runs
	// after, when set, runs after every query (counter sampling).
	after func()
}

func newQuerier(rc *runCtx, s *section, h *host, analyst string, conn int) *querier {
	return &querier{s: s, c: h.client(analyst, conn), sp: spendTracker{analyst: analyst, clean: true}, tr: rc.tr}
}

// do sends one query. traced asks for what a traced run adds to a
// request: a span under the request's identifier and X-DP-Explain, whose
// profile gives the share of the latency the engine's operators account
// for.
func (q *querier) do(req api.QueryRequest, traced bool) (time.Duration, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	q.s.attempted++
	var res *dpclient.Result
	var err error
	var d time.Duration
	if traced {
		id := q.tr.open(fmt.Sprintf("%s/%s#%d", q.s.name, req.Query, q.s.attempted), "e2e."+req.Query, 0)
		t0 := time.Now()
		res, err = q.c.Explain(ctx, req)
		d = time.Since(t0)
		q.tr.end(id, 1)
	} else {
		t0 := time.Now()
		res, err = q.c.Query(ctx, req)
		d = time.Since(t0)
	}
	if q.after != nil {
		q.after()
	}
	if err != nil {
		q.s.failed++
		q.sp.clean = false
		return 0, false
	}
	q.sp.acked = res.Spent
	if q.s.digest != nil {
		q.s.digest.result(res)
	}
	if traced && res.Profile != nil {
		var ns int64
		for _, op := range res.Profile.Ops {
			ns += op.DurationNs
		}
		for _, agg := range res.Profile.Aggs {
			ns += agg.DurationNs
		}
		q.s.explainShare[req.Query] = append(q.s.explainShare[req.Query], float64(ns)/float64(d))
	}
	return d, true
}

// sample sends req n times and appends the latencies to lat, which
// finish turns into metric. On a traced run every second request is
// traced and only the untraced ones feed the end-to-end metric —
// end-to-end numbers are always taken with tracing and X-DP-Explain
// off — while the traced ones are kept for the tracing overhead.
// (Alternating, not halves: latency drifts over a server's lifetime,
// and halves would read that drift as overhead.)
func (q *querier) sample(lat *latencies, req api.QueryRequest, n int) {
	for i := 0; i < n; i++ {
		traced := q.tr != nil && len(lat.plain) > len(lat.traced)
		if d, ok := q.do(req, traced); ok {
			if traced {
				lat.traced = append(lat.traced, d)
			} else {
				lat.plain = append(lat.plain, d)
			}
		}
	}
}

// latencies are one metric's samples over a part's slices; cuts holds
// where in plain each slice starts.
type latencies struct {
	plain, traced []time.Duration
	cuts          []int
}

// cut starts a new slice.
func (lat *latencies) cut() { lat.cuts = append(lat.cuts, len(lat.plain)) }

// report turns the samples into the section's metric.
func (lat *latencies) report(s *section, metric string) error {
	if len(lat.plain) == 0 {
		return fmt.Errorf("%s: no successful %s sample", s.name, metric)
	}
	s.latency(metric, lat.plain, lat.cuts)
	if len(lat.traced) > 0 {
		// Plain medians on both sides: the tracing overhead compares like
		// with like, not a traced median with a calm quartile.
		s.tracedP50[metric] = median(ms(lat.traced))
		s.plainP50[metric] = median(ms(lat.plain))
	}
	return nil
}

// scanPart is the scan-large section: one closed-loop analyst running
// the five scan kinds over a static dataset behind a durable ledger. On
// the workload of the same name the dataset is large, and internal/core,
// internal/sketch and analyses/packetdist do nearly all the work; HTTP,
// ledger and recorders are noise there.
type scanPart struct {
	rc  *runCtx
	s   *section
	sz  scanSize
	h   *host
	q   *querier
	eps float64
	lat []latencies
}

func newScanPart(rc *runCtx, sz scanSize) *scanPart {
	return &scanPart{rc: rc, s: newSection(wScan, true), sz: sz, lat: make([]latencies, len(scanKinds))}
}

func (p *scanPart) setup() error {
	return timed(&p.s.setup, func() error {
		seed := p.rc.seed*4 + 0
		p.s.packets = hotspotPackets(seed, p.sz.packets)
		h, err := newHost(p.rc.root, "scan", seed, ledgerWAL, false, p.s.packets)
		if err != nil {
			return fmt.Errorf("scan-large: %w", err)
		}
		p.h = h
		p.q = newQuerier(p.rc, p.s, h, "analyst-scan", 0)
		p.eps = seededEpsilon(seed)
		for _, k := range scanKinds[p.sz.from:] {
			for r := 0; r < p.sz.warm; r++ {
				p.q.do(k.req(p.eps), false)
			}
		}
		return nil
	})
}

// measure runs, per slice, a block of each kind. Blocks, not a cycle of
// single queries: a cycle allocates a fixed volume, so the collector
// phase-locks with it and lands on the same kind every round for a whole
// run, and on another kind in the next run (count_p50_ms read 9.5 or
// 19 ms on one seed that way).
func (p *scanPart) measure(yield func()) error {
	for _, rounds := range sliceCounts(p.sz.rounds) {
		_ = timed(&p.s.measured, func() error {
			for i, k := range scanKinds {
				if i < p.sz.from {
					continue
				}
				p.lat[i].cut()
				p.q.sample(&p.lat[i], k.req(p.eps), k.weight*rounds)
			}
			return nil
		})
		yield()
	}
	return nil
}

func (p *scanPart) finish() error {
	defer p.h.close()
	for i, k := range scanKinds {
		if i < p.sz.from {
			continue
		}
		if err := p.lat[i].report(p.s, k.metric); err != nil {
			return err
		}
	}
	p.s.audit(p.h, "", []spendTracker{p.q.sp}, nil)
	return nil
}
