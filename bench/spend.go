package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/trace"
	"dptrace/internal/vfs"
)

// spendSize is the op counts of one spend-small phase.
type spendSize struct {
	warm, n int
}

// spendPhase is one cell of the {memory, fsync, fsync+follower} matrix.
type spendPhase struct {
	name   string
	mode   ledgerMode
	metric string
}

var spendPhases = []spendPhase{
	{"mem", ledgerNone, "spend_mem_p50_ms"},
	{"wal", ledgerWAL, "spend_wal_p50_ms"},
	{"repl", ledgerRepl, "spend_repl_p50_ms"},
}

// spendPackets is the dataset size of the spend section, small so that
// the per-request path — api decode, admission, recorders, audit, WAL
// appends, quorum wait, encode — carries the latency rather than the
// scan.
const spendPackets = 10_000

// appendTypes are the WAL events one spending query causes.
var appendTypes = []string{ledger.EventCharge, ledger.EventAudit, ledger.EventIdemReply}

// spendPart is one phase of the spend-small section: a fresh server in
// one ledger mode and a closed loop of keyed count queries on one
// connection. The three phases of a run are three parts sharing one
// section.
type spendPart struct {
	rc      *runCtx
	s       *section
	ph      spendPhase
	sz      spendSize
	packets []trace.Packet
	req     api.QueryRequest

	h        *host
	q        *querier
	lat      latencies
	syncs0   int
	bytes0   int64
	appends0 map[string]float64
	lagMax   uint64
}

const spendAnalyst = "analyst-spend"

// newSpendParts builds the section's three parts over one generated
// trace and one request.
func newSpendParts(rc *runCtx, sz spendSize) (*section, []part) {
	s := newSection(wSpend, true)
	seed := rc.seed*4 + 1
	var packets []trace.Packet
	_ = timed(&s.setup, func() error { packets = hotspotPackets(seed, spendPackets); return nil })
	s.packets = packets
	req := api.QueryRequest{
		Dataset: dataset, Query: "count",
		Epsilon: seededEpsilon(seed),
		Filter:  &api.Filter{DstPort: intp(443)},
	}
	var parts []part
	for _, ph := range spendPhases {
		parts = append(parts, &spendPart{rc: rc, s: s, ph: ph, sz: sz, packets: packets, req: req})
	}
	return s, parts
}

func (p *spendPart) counters() bool { return p.ph.mode == ledgerWAL }

func (p *spendPart) setup() error {
	return timed(&p.s.setup, func() error {
		h, err := newHost(p.rc.root, "spend-"+p.ph.name, p.rc.seed*4+1, p.ph.mode, p.counters(), p.packets)
		if err != nil {
			return fmt.Errorf("spend-small/%s: %w", p.ph.name, err)
		}
		p.h = h
		p.q = newQuerier(p.rc, p.s, h, spendAnalyst, 0)
		for i := 0; i < p.sz.warm; i++ {
			p.q.do(p.req, false)
		}
		if p.counters() {
			p.syncs0 = h.ffs.Counts()[vfs.OpSync]
			p.bytes0 = h.walBytes.Load()
			p.appends0 = map[string]float64{}
			for _, typ := range appendTypes {
				p.appends0[typ] = h.srv.Metrics().Counter("dp_ledger_appends_total", "type", typ).Value()
			}
		}
		if h.fol != nil {
			p.q.after = func() {
				if lag := h.fol.Lag(); lag > p.lagMax {
					p.lagMax = lag
				}
			}
		}
		return nil
	})
}

func (p *spendPart) measure(yield func()) error {
	for _, n := range sliceCounts(p.sz.n) {
		_ = timed(&p.s.measured, func() error {
			p.lat.cut()
			p.q.sample(&p.lat, p.req, n)
			return nil
		})
		yield()
	}
	return nil
}

func (p *spendPart) finish() error {
	defer p.h.close()
	s, h, name := p.s, p.h, p.ph.name
	if err := p.lat.report(s, p.ph.metric); err != nil {
		return err
	}
	n := p.sz.n
	if p.counters() {
		syncs := h.ffs.Counts()[vfs.OpSync] - p.syncs0
		s.metrics["fsyncs_per_spend"] = measurement{Value: float64(syncs) / float64(n), Unit: "1", Samples: n}
		s.metrics["wal_bytes_per_spend"] = measurement{Value: float64(h.walBytes.Load()-p.bytes0) / float64(n), Unit: "B", Samples: n}
		for _, typ := range appendTypes {
			d := h.srv.Metrics().Counter("dp_ledger_appends_total", "type", typ).Value() - p.appends0[typ]
			s.diag["ledger.appends_per_spend."+typ] = measurement{Value: d / float64(n), Unit: "1", Samples: n}
		}
		if p.rc.tr != nil {
			// Before the snapshot below compacts the segments away.
			var err error
			if s.walShapes, err = walShapes(h.ledDir); err != nil {
				return fmt.Errorf("spend-small/%s: read back WAL: %w", name, err)
			}
		}
		// What a snapshot of this phase's state costs, and how much it
		// writes: the state carries every unexpired keyed reply.
		t0 := time.Now()
		if err := h.led.Snapshot(); err != nil {
			return fmt.Errorf("spend-small/%s: snapshot: %w", name, err)
		}
		s.diag["ledger.snapshot_ms"] = measurement{Value: millis(time.Since(t0)), Unit: "ms"}
		s.diag["ledger.snapshot_bytes"] = measurement{Value: float64(newestSnapshotBytes(h.ledDir)), Unit: "B"}
	}
	if h.fol != nil {
		// Synchronous replication: an ACK means the follower has the
		// spend durably, so between two requests it is never behind.
		s.check(p.lagMax == 0, "repl: follower was %d events behind after an ACKed spend", p.lagMax)
	}

	s.audit(h, name+": ", []spendTracker{p.q.sp}, nil)
	h.close()

	switch p.ph.mode {
	case ledgerWAL:
		// Durability: the directory, replayed cold, holds every ACKed
		// spend exactly once — the analyst's replayed total is the ACKed
		// total, and every keyed reply is stored under its own key.
		st, _, err := ledger.Replay(h.ledDir, 0)
		if err != nil {
			return fmt.Errorf("spend-small/%s: replay: %w", name, err)
		}
		ds := st.Datasets[dataset]
		s.check(ds != nil && math.Abs(ds.Spent[spendAnalyst]-p.q.sp.acked) <= 1e-9,
			"wal: replayed spend differs from ACKed %.9f", p.q.sp.acked)
		s.check(len(st.Idem) == p.sz.warm+n,
			"wal: replay holds %d keyed replies, %d were ACKed", len(st.Idem), p.sz.warm+n)
		// Recovery: what reopening the directory this phase produced costs.
		led, err := ledger.Open(ledger.Options{Dir: h.ledDir, Fsync: ledger.FsyncAlways})
		if err != nil {
			return fmt.Errorf("spend-small/%s: reopen: %w", name, err)
		}
		s.diag["ledger.recovery_ms"] = measurement{Value: millis(led.Recovery().Duration), Unit: "ms"}
		led.Close()
	case ledgerRepl:
		rep, err := ledger.Diff(h.ledDir, h.folDir, 0)
		if err != nil {
			return fmt.Errorf("spend-small/%s: diff: %w", name, err)
		}
		s.check(rep.Clean() && rep.OnlyA == 0 && rep.OnlyB == 0 && rep.MaxSpentDelta() == 0,
			"repl: primary and follower ledgers differ (onlyA=%d onlyB=%d Δε=%g)", rep.OnlyA, rep.OnlyB, rep.MaxSpentDelta())
	}
	return nil
}

// newestSnapshotBytes is the size of the newest snapshot file in dir
// (0 if there is none).
func newestSnapshotBytes(dir string) int64 {
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	sort.Strings(snaps)
	if len(snaps) == 0 {
		return 0
	}
	info, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		return 0
	}
	return info.Size()
}

// seededEpsilon draws a section's per-query ε from the seed: a query
// parameter the server has not seen before, always three significant
// digits so that the journaled bytes per spend do not depend on how
// the seed happens to print.
func seededEpsilon(seed uint64) float64 {
	return float64(11+seed%8+10*(seed/8%4)) / 1000
}

func intp(v int) *int { return &v }
