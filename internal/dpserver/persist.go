package dpserver

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/vfs"
)

// This file wires the budget ledger (internal/ledger) through the
// server: dataset registrations, every acknowledged ε-charge, the audit
// trail, and keyed idempotent responses are journaled, and a restarted
// server rebuilds all of them before serving. Every server has a
// ledger: WithLedger attaches a durable one, and without it the server
// folds the same records through a ledger over vfs.Discard, which
// stores nothing (budgets are then lost on restart).
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
// see ledger.Open) in place of the in-memory one every server has
// otherwise. Its stored idempotent responses replay from its fold;
// per-dataset budgets are restored as datasets are re-registered via
// AddPacketTrace. Only a server built with it can replicate.
func WithLedger(led *ledger.Ledger) ServerOption {
	return func(s *Server) { s.ledger, s.durable = led, true }
}

// memoryLedger opens the ledger of a server built without WithLedger:
// the same fold, accessors and metrics as a durable one, over an FS
// that keeps no bytes. Opening an empty Discard FS cannot fail but by
// a bug, so an error panics.
func memoryLedger() *ledger.Ledger {
	led, err := ledger.Open(ledger.Options{Dir: "memory", FS: vfs.Discard})
	if err != nil {
		panic("dpserver: open the in-memory ledger: " + err.Error())
	}
	return led
}

// spendRefusal reports why budget-spending endpoints must shed, or
// nil when spending is possible: the node is a replication follower
// (read-only until promoted), the primary lacks its synchronous
// quorum or has been fenced by a newer epoch, or the ledger itself
// refuses appends (frozen on corrupt history, degraded after a
// runtime journal I/O failure). Health surfaces read the ledger's own
// Refusing alone, so a healthy follower does not read as damaged.
func (s *Server) spendRefusal() error {
	if err := s.replGate(); err != nil {
		return err
	}
	return s.ledger.Refusing()
}

// attachLedger runs once in New, after options: exports ledger
// metrics and events, and reports a ledger that recovered frozen.
func (s *Server) attachLedger() {
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
}

// registerDataset is the ledger half of AddPacketTrace (callers hold s.mu):
// a dataset already in the recovered state gets its spends restored
// and no new event; a new dataset is journaled and committed before
// registration is acknowledged. Either way the policy's future charges
// flow through the ledger.
func (s *Server) registerDataset(name string, policy *core.AnalystPolicy, totalBudget, perAnalystBudget float64) error {
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

// recordAudit stages o's audit record in the journal (refusals under
// their own event type, per the ledger's schema), charging the time to
// o.stage; the ledger's fold is then the trail /v1/audit serves. The
// append is best-effort: the charge events are the ε ground truth, the
// audit trail is the owner's activity record.
func (s *Server) recordAudit(o *queryOutcome) {
	start := time.Now()
	typ := ledger.EventAudit
	if o.outcome == "refused" {
		typ = ledger.EventRefusal
	}
	_ = s.journalAppend(ledger.Event{
		Type: typ, Dataset: o.dataset, Analyst: o.analyst,
		Query: o.query, Epsilon: o.epsilon, Charged: o.charged,
		Outcome: o.outcome,
	})
	o.stage += time.Since(start)
}

// ingestReply reports whether a keyed reply answers an ingest path.
// Such a reply lives in the process's idempotency table only: the
// records an ingest ACK acknowledges are held in memory, so a journaled
// ACK would outlive them, and a sender re-sending the batch after a
// restart or a failover would be told it was applied while nothing is
// appended. settle does not journal it, and the table never reads one
// from the ledger, where older builds journaled some. The unversioned
// spelling covers replies journaled while the API had a second mount.
func ingestReply(endpoint string) bool {
	return strings.HasPrefix(strings.TrimPrefix(endpoint, "/v1"), "/ingest/")
}

// recordIdemReply stages one stored idempotent response in the journal
// so retries across a restart replay bytes instead of re-charging ε.
// It follows the request's charge and audit records in the WAL: a
// crash can keep a charge without its reply, never the reverse.
func (s *Server) recordIdemReply(k idemKey, status int, body []byte, expires time.Time) {
	_ = s.journalFollow(ledger.Event{
		Type: ledger.EventIdemReply, Endpoint: k.endpoint,
		Dataset: k.dataset, Analyst: k.analyst, Key: k.key,
		Status: status, Body: body, Expires: expires.UnixNano(),
	})
}
