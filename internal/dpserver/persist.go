package dpserver

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
)

// This file wires the durable budget ledger (internal/ledger) through
// the server: dataset registrations, every acknowledged ε-charge, the
// audit trail, and keyed idempotent responses are journaled, and a
// restarted server rebuilds all of them before serving. Without a
// ledger the server keeps its original in-memory-only behavior.
//
// The privacy invariant is durable-before-release: a charge is
// journaled when core accepts it (core.SpendJournal stages the record,
// in acceptance order), and everything a request journaled is made
// durable — one fsync, one quorum wait — before a byte that depends on
// it leaves the server (Server.settle), so no crash can forget a
// spend whose answer was seen; and a ledger that cannot be fully
// replayed freezes, which refuses all new charges (fail closed) while
// read-only endpoints stay up for inspection.

// packetKind is the record kind every dataset_created event this
// server journals names. A ledger written by an older server may also
// name "link" or "hop" datasets; registering a packet trace under such
// a name is refused (ErrLedgerMismatch).
const packetKind = "packet"

// ErrLedgerMismatch is returned when a dataset is re-registered with a
// kind or budget bounds different from its persisted ledger: silently
// adopting the new bounds would rewrite the spend history's terms.
var ErrLedgerMismatch = errors.New("dpserver: registration conflicts with persisted ledger")

// WithLedger attaches a durable budget ledger (opened by the caller;
// see ledger.Open). The ledger's fold is then the server's audit
// trail, and its stored idempotent responses are restored immediately;
// per-dataset budgets are restored as datasets are re-registered via
// AddPacketTrace.
func WithLedger(led *ledger.Ledger) ServerOption {
	return func(s *Server) { s.ledger = led }
}

// spendRefusal reports why budget-spending endpoints must shed, or
// nil when spending is possible: the node is a replication follower
// (read-only until promoted), the primary lacks its synchronous
// quorum or has been fenced by a newer epoch, or the ledger itself
// refuses appends (frozen on corrupt history, degraded after a
// runtime journal I/O failure). Without a ledger there is nothing to
// refuse.
func (s *Server) spendRefusal() error {
	if err := s.replGate(); err != nil {
		return err
	}
	return s.ledgerRefusal()
}

// ledgerRefusal is spendRefusal minus the replication role: only the
// ledger's own frozen/degraded state. Health surfaces use it so a
// healthy follower does not read as damaged.
func (s *Server) ledgerRefusal() error {
	if s.ledger == nil {
		return nil
	}
	return s.ledger.Refusing()
}

// restoreFromLedger runs once in New, after options: exports ledger
// metrics and restores the idempotency cache from the recovered
// state's stored replies.
func (s *Server) restoreFromLedger() {
	led := s.ledger
	led.AttachMetrics(s.metrics)
	led.AttachEvents(s.events)
	if cause := led.Refusing(); cause != nil {
		// The recovered history could not be fully replayed (or the
		// journal already failed): the server comes up frozen, shedding
		// every spend until the operator intervenes. Say so loudly —
		// this is the first thing to look for when queries 503.
		s.events.Log(qlog.Error, "ledger_frozen", qlog.F("cause", cause.Error()))
		s.degradedNoted.Store(true)
	}
	s.restoreReplies()
}

// registerDataset is the ledger half of AddPacketTrace (callers hold s.mu):
// a dataset already in the recovered state gets its spends restored
// and no new event; a new dataset is journaled durably before
// registration is acknowledged. Either way the policy's future charges
// flow through the ledger. With no ledger attached it does nothing.
func (s *Server) registerDataset(name string, policy *core.AnalystPolicy, totalBudget, perAnalystBudget float64) error {
	if s.ledger == nil {
		return nil
	}
	if ds, ok := s.ledger.Dataset(name); ok {
		if ds.Kind != packetKind ||
			ds.Total != ledger.EncodeBudget(totalBudget) ||
			ds.PerAnalyst != ledger.EncodeBudget(perAnalystBudget) {
			return fmt.Errorf("%w: %q is persisted as kind=%s total=%v perAnalyst=%v",
				ErrLedgerMismatch, name, ds.Kind,
				ledger.DecodeBudget(ds.Total), ledger.DecodeBudget(ds.PerAnalyst))
		}
		policy.RestoreSpent(ds.Spent, ds.TotalSpent)
	} else {
		err := s.journalAppend(ledger.Event{
			Type: ledger.EventDatasetCreated, Dataset: name, Kind: packetKind,
			Total:      ledger.EncodeBudget(totalBudget),
			PerAnalyst: ledger.EncodeBudget(perAnalystBudget),
		})
		if err == nil {
			err = s.journalCommit(&journalStats{})
		}
		if err != nil {
			if s.ledger.Refusing() == nil && !errors.Is(err, errNotPrimary) {
				return fmt.Errorf("dpserver: journal dataset registration: %w", err)
			}
			// The ledger cannot journal the registration — it is
			// frozen or degraded, or this node is a follower — but in
			// every such state it also refuses every charge, so
			// hosting the dataset keeps the invariant (no ε can move
			// without a journaled record) while the read-only surface
			// stays up. A healthy restart re-registers and journals
			// normally; a promoted follower journals it during resync.
			s.events.Log(qlog.Warn, "registration_unjournaled",
				qlog.F("dataset", name), qlog.F("kind", packetKind),
				qlog.F("error", err.Error()))
		}
	}
	policy.SetSpendJournal(
		func(analyst string, epsilon float64) error {
			return s.journalAppend(ledger.Event{
				Type: ledger.EventCharge, Dataset: name,
				Analyst: analyst, Epsilon: epsilon,
			})
		},
		func(analyst string, epsilon float64) {
			// A rollback that fails to journal leaves the ledger
			// over-counting the spend — conservative, so best-effort.
			_ = s.journalAppend(ledger.Event{
				Type: ledger.EventRollback, Dataset: name,
				Analyst: analyst, Epsilon: epsilon,
			})
		})
	return nil
}

// recordAudit stages one audit entry in the journal (refusals under
// their own event type, per the ledger's schema), charging the time to
// o.stage; the ledger's fold is then the trail /v1/audit serves. The
// append is best-effort: the charge events are the ε ground truth, the
// audit trail is the owner's activity record. Without a ledger the
// entry goes to the server's own trail.
func (s *Server) recordAudit(o *queryOutcome, e AuditEntry) {
	if s.ledger == nil {
		s.audit.add(ledger.AuditRecord{
			Time: time.Now().UnixNano(), Analyst: e.Analyst,
			Dataset: e.Dataset, Query: e.Query, Epsilon: e.Epsilon,
			Charged: e.Charged, Outcome: e.Outcome,
		})
		return
	}
	start := time.Now()
	typ := ledger.EventAudit
	if e.Outcome == "refused" {
		typ = ledger.EventRefusal
	}
	_ = s.journalAppend(ledger.Event{
		Type: typ, Dataset: e.Dataset, Analyst: e.Analyst,
		Query: e.Query, Epsilon: e.Epsilon, Charged: e.Charged,
		Outcome: e.Outcome,
	})
	o.stage += time.Since(start)
}

// ingestReply reports whether a keyed reply answers an ingest path.
// Such a reply lives in the process's idempotency cache only: the
// records an ingest ACK acknowledges are held in memory, so a journaled
// ACK would outlive them, and a sender re-sending the batch after a
// restart or a failover would be told it was applied while nothing is
// appended. settle does not journal it, and restore and follower
// warm-up skip the ones older ledgers hold. The unversioned spelling
// covers replies journaled while the API had a second mount.
func ingestReply(endpoint string) bool {
	return strings.HasPrefix(strings.TrimPrefix(endpoint, "/v1"), "/ingest/")
}

// recordIdemReply stages one stored idempotent response in the journal
// so retries across a restart replay bytes instead of re-charging ε.
// It follows the request's charge and audit records in the WAL: a
// crash can keep a charge without its reply, never the reverse.
func (s *Server) recordIdemReply(k idemKey, status int, body []byte, expires time.Time) {
	if s.ledger == nil {
		return
	}
	_ = s.journalAppend(ledger.Event{
		Type: ledger.EventIdemReply, Endpoint: k.endpoint,
		Dataset: k.dataset, Analyst: k.analyst, Key: k.key,
		Status: status, Body: body, Expires: expires.UnixNano(),
	})
}
