package dpserver

import (
	"fmt"

	"dptrace/internal/core"
	"dptrace/internal/trace"
)

// This file hosts the datasets: packet traces, each under its own
// name, budget policy and append-only log, in one map.

// dataset is one hosted packet trace: its budget policy, its counters
// and the append-only log of its records. Ingest appends under s.mu's
// write lock, never moving a record the log holds; queries take a view
// of the log once under the read lock and run against that immutable
// snapshot (see snapshot).
type dataset struct {
	policy  *core.AnalystPolicy
	packets *core.Log[trace.Packet]
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
// slice. It refuses (ErrDatasetExists) if the name is taken:
// replacement would reset the spent-budget ledger and let analysts
// re-spend against the same records. It restores the dataset's spends
// from the ledger or journals its registration.
func (s *Server) AddPacketTrace(name string, packets []trace.Packet, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.datasets[name]; taken {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &dataset{
		policy:    core.NewAnalystPolicy(totalBudget, perAnalystBudget),
		packets:   core.NewLog(packets),
		watermark: uint64(len(packets)),
	}
	if err := s.registerDataset(name, d.policy, totalBudget, perAnalystBudget); err != nil {
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
