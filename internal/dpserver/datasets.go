package dpserver

import (
	"fmt"
	"net/http"
	"path"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/trace"
)

// This file hosts the paper's three dataset kinds — packet traces,
// de-aggregated link traces (IspTraffic-shaped) and hop-count traces
// (IPscatter-shaped) — in one map, and routes the two extraction
// queries the link and hop analyses start from into the one envelope.

// dataset is one hosted dataset of any kind: its kind, its budget
// policy, its counters and the append-only log of its kind's records
// (the other two logs are nil). Ingest appends under s.mu's write lock,
// never moving a record a log holds; queries take a view of the log
// once under the read lock and run against that immutable snapshot
// (see snapshot).
type dataset struct {
	kind    ingest.Kind // kindPacket, kindLink or kindHop
	policy  *core.AnalystPolicy
	packets *core.Log[trace.Packet]
	samples *core.Log[trace.LinkSample]
	hops    *core.Log[trace.HopRecord]
	// links × bins bound a link dataset's samples and monitors a hop
	// dataset's records: public dimensions, checked at ingest.
	links, bins, monitors int
	// ingestedBatches counts batches applied via /v1/ingest (guarded by
	// s.mu like the log).
	ingestedBatches uint64
	// watermark is the dataset's monotonic record-sequence counter: the
	// registration records plus every ingested record, advanced exactly
	// once per batch at ingest apply (guarded by s.mu). It is the single
	// clock standing-query windows and the /v1/datasets record count
	// read — on the live server it always equals the log's length, but
	// the watermark is the contractual stream position while the log's
	// length is an implementation detail.
	watermark uint64
}

// AddPacketTrace registers a copy of a packet trace under name with
// the given total and per-analyst privacy budgets: the dataset's log
// holds its own records, so ingest never writes into the caller's
// slice. It refuses (ErrDatasetExists) if the name is taken by any
// dataset kind: replacement would reset the spent-budget ledger and
// let analysts re-spend against the same records.
func (s *Server) AddPacketTrace(name string, packets []trace.Packet, totalBudget, perAnalystBudget float64) error {
	return s.addDataset(name, &dataset{kind: kindPacket, packets: core.NewLog(packets),
		watermark: uint64(len(packets))}, totalBudget, perAnalystBudget)
}

// AddLinkTrace registers a copy of a de-aggregated link trace with the
// given positive dimensions and budgets (see AddPacketTrace).
func (s *Server) AddLinkTrace(name string, samples []trace.LinkSample, links, bins int, totalBudget, perAnalystBudget float64) error {
	if links <= 0 || bins <= 0 {
		return fmt.Errorf("dpserver: link dataset %q needs positive dimensions, got %d links x %d bins", name, links, bins)
	}
	return s.addDataset(name, &dataset{kind: kindLink, samples: core.NewLog(samples), links: links, bins: bins,
		watermark: uint64(len(samples))}, totalBudget, perAnalystBudget)
}

// AddHopTrace registers a copy of a hop-count trace with a positive
// monitor count and budgets (see AddPacketTrace).
func (s *Server) AddHopTrace(name string, records []trace.HopRecord, monitors int, totalBudget, perAnalystBudget float64) error {
	if monitors <= 0 {
		return fmt.Errorf("dpserver: hop dataset %q needs a positive monitor count, got %d", name, monitors)
	}
	return s.addDataset(name, &dataset{kind: kindHop, hops: core.NewLog(records), monitors: monitors,
		watermark: uint64(len(records))}, totalBudget, perAnalystBudget)
}

// addDataset is the one registration path: refuse a taken name, give
// d its policy, restore or journal it in the ledger, and host it.
func (s *Server) addDataset(name string, d *dataset, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.datasets[name]; taken {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d.policy = core.NewAnalystPolicy(totalBudget, perAnalystBudget)
	if err := s.registerDataset(name, d.kind.String(), d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.datasets[name] = d
	// A follower does not schedule standing queries — it cannot spend.
	// The replication stream keeps the ledger's standing state current,
	// and Promote installs it fresh into the scheduler.
	if s.replFollowerHandle() == nil {
		s.restoreStanding(name)
	}
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

// append validates a decoded batch against d's dimensions and appends
// it to d's log, returning its record count; a batch that fails
// validation changes nothing. Callers hold s.mu's write lock.
func (d *dataset) append(dec ingest.Decoded) (int, error) {
	switch d.kind {
	case kindLink:
		for _, x := range dec.Links {
			if int(x.Link) >= d.links || int(x.Bin) >= d.bins {
				return 0, fmt.Errorf("link sample (link=%d, bin=%d) outside dataset dims %dx%d",
					x.Link, x.Bin, d.links, d.bins)
			}
		}
		d.samples.Append(dec.Links)
		return len(dec.Links), nil
	case kindHop:
		for _, x := range dec.Hops {
			if int(x.Monitor) >= d.monitors {
				return 0, fmt.Errorf("hop record monitor %d outside dataset's %d monitors",
					x.Monitor, d.monitors)
			}
		}
		d.hops.Append(dec.Hops)
		return len(dec.Hops), nil
	}
	d.packets.Append(dec.Packets)
	return len(dec.Packets), nil
}

// handleLoadMatrix serves POST /v1/query/loadmatrix. Each extraction
// route serves the kind its last path element names.
func (s *Server) handleLoadMatrix(w http.ResponseWriter, r *http.Request) {
	var req api.MatrixRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	s.serveQuery(w, r, kindLink, request{QueryRequest: &QueryRequest{
		Analyst: req.Analyst, Dataset: req.Dataset, Query: path.Base(r.URL.Path),
		Epsilon: req.Epsilon, IdempotencyKey: req.IdempotencyKey,
	}})
}

// handleMonitorAverages serves POST /v1/query/monitoravgs.
func (s *Server) handleMonitorAverages(w http.ResponseWriter, r *http.Request) {
	var req api.HopAveragesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	s.serveQuery(w, r, kindHop, request{QueryRequest: &QueryRequest{
		Analyst: req.Analyst, Dataset: req.Dataset, Query: path.Base(r.URL.Path),
		Epsilon: req.Epsilon, IdempotencyKey: req.IdempotencyKey,
	}, maxHops: req.MaxHops})
}
