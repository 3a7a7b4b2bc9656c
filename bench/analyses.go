package main

import (
	"fmt"
	"time"

	"dptrace/internal/experiments"
)

// analysesSize is the paper-analyses section's pass count. A light
// pass leaves out the two analyses that need the large datasets (their
// set-up alone costs 4 s); an untraced run makes light passes, a traced
// run one full pass, so that every analysis has its per-layer time. The
// analyses work on fixed datasets and do not scale down, so a smoke
// pass (the harness's own tests) keeps only the cheapest.
type analysesSize struct {
	passes int
	light  bool
	smoke  bool
}

func (sz analysesSize) skips(a analysis, measured bool) bool {
	switch {
	case sz.smoke:
		return a.name != "itemsets"
	case sz.light && a.heavy:
		return true
	}
	// The unmeasured set-up pass leaves out table5, whose own small
	// dataset costs a hundredth of its run.
	return !measured && a.name == "table5"
}

// analysis is one experiment of the paper's evaluation. Those that
// take an ε run at the pass's privacy level; the others sweep the three
// levels themselves.
type analysis struct {
	name  string
	layer string // per-layer metric the traced run reports it under
	heavy bool
	run   func(seed uint64, eps float64) fmt.Stringer
}

var analyses = []analysis{
	{"fig1", "toolkit.cdf_ms", false, func(s uint64, e float64) fmt.Stringer { return experiments.RunFig1(s, e) }},
	{"fig2", "analyses.packetdist_ms", false, func(s uint64, _ float64) fmt.Stringer { return experiments.RunFig2(s) }},
	{"worm", "analyses.wormfp_ms", false, func(s uint64, _ float64) fmt.Stringer { return experiments.RunWorm(s) }},
	{"fig3", "analyses.flowstats_ms", false, func(s uint64, _ float64) fmt.Stringer { return experiments.RunFig3(s) }},
	{"table5", "analyses.steppingstone_ms", true, func(s uint64, _ float64) fmt.Stringer { return experiments.RunTable5(s) }},
	{"fig4", "analyses.anomaly_ms", true, func(s uint64, _ float64) fmt.Stringer { return experiments.RunFig4(s) }},
	{"fig5", "analyses.topology_ms", false, func(s uint64, _ float64) fmt.Stringer { return experiments.RunFig5(s) }},
	{"itemsets", "toolkit.itemsets_ms", false, func(s uint64, e float64) fmt.Stringer { return experiments.RunItemsets(s, e) }},
}

// analysesPart is the paper-analyses section: no server, the paper's own
// evaluation driven through internal/experiments. It reaches core's
// Join/GroupBy/Partition/SelectMany/Distinct, toolkit and linalg, which
// no server query kind does, and every server layer does nothing — the
// control for server-side changes.
//
// Set-up generates the datasets: internal/experiments builds them on
// first use, so set-up is one unmeasured pass. Measured pass i runs at
// ε = Epsilons[i mod 3]; the analyses of all passes are dealt out over
// the slices in order.
type analysesPart struct {
	rc   *runCtx
	s    *section
	sz   analysesSize
	seed uint64
	secs []float64 // per pass
}

func newAnalysesPart(rc *runCtx, sz analysesSize) *analysesPart {
	return &analysesPart{rc: rc, s: newSection(wAnalyses, true), sz: sz, seed: rc.seed*4 + 3, secs: make([]float64, sz.passes)}
}

func (p *analysesPart) run(a analysis, pass int, measured bool) {
	eps := experiments.Epsilons[pass%len(experiments.Epsilons)]
	var span int
	if measured && p.rc.tr != nil {
		span = p.rc.tr.open(fmt.Sprintf("%s/%s#%d", p.s.name, a.name, pass), "e2e.analysis_"+a.name, 0)
	}
	t0 := time.Now()
	out := a.run(p.seed, eps).String()
	d := time.Since(t0)
	if span != 0 {
		p.rc.tr.end(span, 1)
	}
	p.s.attempted++
	if measured {
		p.secs[pass] += d.Seconds()
		p.s.measured += d
		p.s.digest.str(out)
		p.s.diag[a.layer] = measurement{Value: millis(d), Unit: "ms"}
	}
}

func (p *analysesPart) setup() error {
	return timed(&p.s.setup, func() error {
		for _, a := range analyses {
			if !p.sz.skips(a, false) {
				p.run(a, 0, false)
			}
		}
		return nil
	})
}

func (p *analysesPart) measure(yield func()) error {
	type job struct {
		a    analysis
		pass int
	}
	var jobs []job
	for pass := 0; pass < p.sz.passes; pass++ {
		for _, a := range analyses {
			if !p.sz.skips(a, true) {
				jobs = append(jobs, job{a, pass})
			}
		}
	}
	next := 0
	for _, n := range sliceCounts(len(jobs)) {
		for _, j := range jobs[next : next+n] {
			p.run(j.a, j.pass, true)
		}
		next += n
		yield()
	}
	return nil
}

func (p *analysesPart) finish() error {
	if p.sz.smoke {
		// A smoke pass skipped these; their per-layer entries read 0.
		for _, a := range analyses {
			if _, ok := p.s.diag[a.layer]; !ok {
				p.s.diag[a.layer] = measurement{Unit: "ms"}
			}
		}
	}
	// A pass is this section's slice.
	p.s.metrics["analyses_s"] = measurement{Value: overSlices(p.secs), Unit: "s", Samples: len(p.secs)}
	return nil
}
