package dpserver

// This file wires ledger replication (internal/repl) through the
// server. A server is exactly one of:
//
//   - standalone: no replication; spends journal straight to the
//     ledger (durable or in-memory);
//   - primary: every journaled event additionally streams to
//     connected followers, and — with MinSync > 0 — a spend is not
//     acknowledged until that many followers have it durably;
//   - follower: a warm read-only standby. The follower's ledger is a
//     byte-identical copy of the primary's WAL, its in-memory policy
//     state tracks the stream live, and every spending endpoint sheds
//     with code "not_primary" until Promote flips it into a primary
//     at exactly the replayed refusal boundary.
//
// The single seam is journalAppend + journalCommit: every record the
// server journals (charges, rollbacks, registrations, audit, idempotent
// replies, standing events) is staged through the first, and every
// answer that depends on one is released only after the second, so
// the replication role is enforced at the same choke point the
// durability invariant already flows through. See DESIGN.md §S35 for
// the contract.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/repl"
	"dptrace/internal/standing"
)

// errNotPrimary refuses a spend on a follower: only the primary may
// journal budget movement. Clients see api.CodeNotPrimary.
var errNotPrimary = errors.New("dpserver: node is a replication follower (read-only)")

// errNotFollower refuses Promote on a node that is not a follower.
var errNotFollower = errors.New("dpserver: node is not a replication follower")

// errReplRetired refuses spends after CloseReplication: a node that
// held a replication role must not silently fall back to unreplicated
// standalone journaling — the synchronous-ack guarantee its clients
// were given would evaporate mid-flight.
var errReplRetired = errors.New("dpserver: replication closed (node retired from its role)")

// ReplicationConfig configures the server's role in ledger
// replication (see StartReplication). Exactly one role is active at a
// time: a non-empty Follow makes the node a follower; otherwise a
// non-nil Listen makes it a primary. A follower may carry a Listen
// too — it stays idle until Promote, when the new primary starts
// accepting its own followers on it (chained failover).
type ReplicationConfig struct {
	// Listen accepts follower subscriptions (primary role, or held
	// for promotion when Follow is also set). The server owns the
	// listener once replication starts.
	Listen net.Listener
	// Follow is the primary's replication address (follower role).
	Follow string
	// Name identifies this node in handshakes and events.
	Name string
	// MinSync, when > 0, refuses spends unless at least that many
	// followers are connected, and holds each acknowledgement until
	// they have the event durably (see repl.PrimaryConfig).
	MinSync int
	// AckTimeout bounds the synchronous wait (0 = repl default).
	AckTimeout time.Duration
}

// replState is the server's replication handle. role transitions are
// rare (StartReplication, Promote, fencing) and guarded by s.mu's
// sibling replMu inside the struct; handlers read through accessors.
type replState struct {
	cfg      *ReplicationConfig
	primary  *repl.Primary
	follower *repl.Follower
	// closed is set by CloseReplication: the node held a role and
	// retired it, so spends refuse instead of downgrading to
	// unreplicated standalone appends.
	closed bool
}

// replFollowerHandle returns the live follower, or nil.
func (s *Server) replFollowerHandle() *repl.Follower {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.repl.follower
}

// replPrimaryHandle returns the live primary, or nil.
func (s *Server) replPrimaryHandle() *repl.Primary {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.repl.primary
}

// StartReplication starts the server's replication role. Order
// matters relative to Add*Trace: a primary starts AFTER hosting its
// datasets (followers then stream a settled history), while a
// follower starts BEFORE — with the role set, a hosted dataset's
// registration is not journaled locally (it arrives through the
// stream as the primary's exact bytes; journaling it here would fork
// the WAL). Requires a durable ledger (WithLedger): the in-memory one
// keeps no segments to catch a follower up from. Starting twice is an
// error.
func (s *Server) StartReplication(cfg ReplicationConfig) error {
	if !s.durable {
		return errors.New("dpserver: replication requires WithLedger")
	}
	if cfg.Follow == "" && cfg.Listen == nil {
		return errors.New("dpserver: replication config names no role (set Follow or Listen)")
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.repl.cfg != nil {
		return errors.New("dpserver: replication already started")
	}
	s.repl.cfg = &cfg

	if cfg.Follow != "" {
		f, err := repl.NewFollower(s.ledger, repl.FollowerConfig{
			Primary: cfg.Follow,
			Name:    cfg.Name,
			Events:  s.events,
			OnApply: s.applyReplicated,
			OnReset: s.resyncSpends,
		})
		if err != nil {
			s.repl.cfg = nil
			return fmt.Errorf("dpserver: start follower: %w", err)
		}
		s.repl.follower = f
		f.Start()
	} else {
		s.repl.primary = s.newPrimaryLocked(s.repl.cfg)
	}
	s.registerReplGauges()
	return nil
}

// newPrimaryLocked builds and serves a primary on cfg.Listen. Callers
// hold s.replMu.
func (s *Server) newPrimaryLocked(cfg *ReplicationConfig) *repl.Primary {
	p := repl.NewPrimary(s.ledger, repl.PrimaryConfig{
		Name:       cfg.Name,
		MinSync:    cfg.MinSync,
		AckTimeout: cfg.AckTimeout,
		Events:     s.events,
		OnFenced: func(err error) {
			// A higher epoch exists somewhere: a follower was promoted
			// while we were alive. Every further spend sheds (see
			// spendRefusal); the WAL gains nothing a diff would flag.
			s.events.Log(qlog.Error, "repl_self_fenced", qlog.F("cause", err.Error()))
		},
	})
	go p.Serve(cfg.Listen)
	return p
}

// journalAppend is the staging half of the single seam between the
// server and its ledger: every event the server journals goes through
// here, so the replication role gates all budget movement at one choke
// point. On a follower it refuses (errNotPrimary); on a primary the
// quorum gate runs first (nothing unreplicatable is journaled). The
// record is then written to the WAL in arrival order and folded into
// the ledger's state, but it is NOT durable yet: whatever depends on it
// is released only after journalCommit.
func (s *Server) journalAppend(ev ledger.Event) error {
	if err := s.replGate(); err != nil {
		return err
	}
	_, err := s.ledger.Stage(ev)
	return err
}

// replRole reads the replication role once: the live primary (nil
// when the node is not one), and the refusal the role gives anything
// that would journal — errNotPrimary on a follower, errReplRetired
// after CloseReplication.
func (s *Server) replRole() (*repl.Primary, error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	switch {
	case s.repl.follower != nil:
		return nil, errNotPrimary
	case s.repl.primary == nil && s.repl.closed:
		return nil, errReplRetired
	}
	return s.repl.primary, nil
}

// replGate is replRole's refusal plus, on a primary, its quorum gate:
// nil when the role lets a spend be journaled now.
func (s *Server) replGate() error {
	p, err := s.replRole()
	if err == nil && p != nil {
		err = p.SyncGate()
	}
	return err
}

// journalStats is what one request's journaling cost: staging its
// records, the commit's fsync (or the wait for a concurrent request's
// fsync that covered it), and the follower quorum wait.
type journalStats struct {
	stage, fsync, quorum time.Duration
}

// fields renders the stats for the request's own wide event.
func (j journalStats) fields() []qlog.Field {
	return append([]qlog.Field{qlog.F("stage_ms", durationMs(j.stage))}, j.commitFields()...)
}

// commitFields renders the commit's share alone — for the events of
// records that were staged elsewhere (standing windows carry their own
// stage_ms) and made durable by this request's commit.
func (j journalStats) commitFields() []qlog.Field {
	return []qlog.Field{
		qlog.F("commit_fsync_ms", durationMs(j.fsync)),
		qlog.F("quorum_wait_ms", durationMs(j.quorum)),
	}
}

// journalCommit is the release half of the seam, called once at the
// point where a request's answer would leave the server: it makes
// everything staged so far durable (one fsync) and, on a primary with
// MinSync > 0, waits once for the followers' cumulative ack. Only then
// may the result, a stored reply, an ingest ACK or a standing window's
// result be released; standing results staged before the commit are
// published here. An error means the answer must be withheld — the
// charges stand in memory and possibly on disk (an over-count).
func (s *Server) journalCommit(js *journalStats) error {
	// Every window result staged by now was journaled before this
	// commit begins, so a successful commit covers it.
	windows := s.standing.Staged()
	p, err := s.replRole()
	if err != nil {
		return err
	}
	seq := s.ledger.StagedSeq()
	start := time.Now()
	err = s.ledger.Commit(seq)
	js.fsync = time.Since(start)
	if err == nil && p != nil {
		start = time.Now()
		err = p.WaitSynced(seq)
		js.quorum = time.Since(start)
	}
	if err != nil {
		return err
	}
	s.standing.Publish(windows, func(res standing.Result) {
		fields, _ := res.Note.([]qlog.Field)
		s.events.Log(qlog.Info, "standing_window", append(fields, js.commitFields()...)...)
	})
	return nil
}

// shedCodeFor picks the error envelope for a spendRefusal cause: a
// replication-role refusal (follower, or a fenced ex-primary) answers
// not_primary — the client should fail over — while ledger damage and
// quorum loss stay ledger_refused (retryable here once healed).
func shedCodeFor(cause error) (code, message string) {
	if errors.Is(cause, errNotPrimary) || errors.Is(cause, errReplRetired) ||
		errors.Is(cause, repl.ErrFenced) || errors.Is(cause, repl.ErrClosed) {
		return api.CodeNotPrimary, "not the primary: " + cause.Error()
	}
	return api.CodeLedgerRefused, "ledger refusing spends: " + cause.Error()
}

// applyReplicated is the follower's warm-state bridge, called by the
// replication stream in seq order after each event is durable in the
// local WAL (and already folded into the ledger's replayed state).
// It keeps the hosted datasets' policy spend counters hot, so
// promotion serves the first request at the exact boundary the stream
// reached. Nothing else needs warming: the audit trail and the stored
// replies are read from the ledger's fold.
func (s *Server) applyReplicated(ev ledger.Event) {
	switch ev.Type {
	case ledger.EventCharge, ledger.EventRollback, ledger.EventStandingWindow:
		s.warmPolicy(ev.Dataset)
	}
}

// warmPolicy re-syncs one hosted dataset's in-memory spend counters
// from the ledger's replayed state (the ground truth on a follower).
// Unhosted datasets are skipped — their state lives in the ledger and
// warms at registration.
func (s *Server) warmPolicy(name string) {
	ds, ok := s.ledger.Dataset(name)
	if !ok {
		return
	}
	if d, ok := s.lookup(name); ok {
		d.policy.RestoreSpent(ds.Spent, ds.TotalSpent)
	}
}

// resyncSpends re-syncs every hosted dataset's spend counters from the
// ledger: when the follower installs a full snapshot (empty follower
// behind the primary's compaction horizon), and on promotion.
func (s *Server) resyncSpends() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, d := range s.datasets {
		if ds, ok := s.ledger.Dataset(name); ok {
			d.policy.RestoreSpent(ds.Spent, ds.TotalSpent)
		}
	}
}

// Promote turns a follower into a primary: the replication stream is
// sealed, the local WAL tail is fsynced and re-verified against a
// full replay (bit-exact spend sums), the fencing epoch is bumped
// durably, and the warm state is re-synced — all before the first
// spend is accepted. Returns the new epoch. If the sealed follower's
// config carries a Listen, the new primary starts accepting its own
// followers on it.
func (s *Server) Promote() (uint64, error) {
	s.replMu.Lock()
	f, cfg := s.repl.follower, s.repl.cfg
	s.replMu.Unlock()
	if f == nil {
		return 0, errNotFollower
	}
	epoch, err := f.Promote()
	if err != nil {
		return 0, err
	}
	// The stream is sealed and the role still sheds every spend, so
	// the ledger holds still: settle the spend counters now, before a
	// spend can move them. Stored replies need nothing: a retried key
	// reads them from the ledger's fold.
	s.resyncSpends()
	// Then flip the role: the resync below journals registrations for
	// hosted-but-never-persisted datasets, which must not bounce off
	// the follower refusal.
	s.replMu.Lock()
	s.repl.follower = nil
	if cfg.Listen != nil {
		s.repl.primary = s.newPrimaryLocked(cfg)
	}
	s.replMu.Unlock()
	s.resyncAfterPromote()
	s.events.Log(qlog.Info, "promoted",
		qlog.F("node", cfg.Name), qlog.F("epoch", epoch),
		qlog.F("seq", s.ledger.CommittedSeq()))
	return epoch, nil
}

// resyncAfterPromote finishes what needs the primary role: datasets
// hosted here but never persisted get their registration journaled (it
// could not be while following), and standing queries are
// re-installed so the scheduler resumes firing windows.
func (s *Server) resyncAfterPromote() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, d := range s.datasets {
		if _, ok := s.ledger.Dataset(name); !ok {
			total, perAnalyst := d.policy.Budgets()
			// Direct append, not journalAppend: a fresh primary with
			// MinSync > 0 has no followers yet, and registrations are
			// this node's own catch-up, not client-acked spends.
			if err := s.ledger.Append(ledger.Event{
				Type: ledger.EventDatasetCreated, Dataset: name, Kind: packetKind,
				Total:      ledger.EncodeBudget(total),
				PerAnalyst: ledger.EncodeBudget(perAnalyst),
			}); err != nil {
				s.events.Log(qlog.Warn, "registration_unjournaled",
					qlog.F("dataset", name), qlog.F("kind", packetKind),
					qlog.F("error", err.Error()))
			}
		}
		s.restoreStanding(name)
	}
}

// handlePromote serves POST /v1/admin/promote. It bypasses the
// admission lifecycle (admit sheds everything on a follower — promote
// is how the shedding ends). Promotion is idempotent in effect: a
// second call answers not_follower.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, err := s.Promote()
	if err != nil {
		switch {
		case errors.Is(err, errNotFollower):
			writeError(w, http.StatusConflict, apiError{
				Code: api.CodeNotFollower, Message: err.Error(),
			})
		default:
			// Seal/verify failed: the node refuses to serve spends it
			// cannot prove. This is divergence or local corruption —
			// run dpledger diff against the old primary and re-seed.
			s.events.Log(qlog.Error, "promote_failed", qlog.F("error", err.Error()))
			writeError(w, http.StatusInternalServerError, apiError{
				Code: api.CodeInternal, Message: "promote failed: " + err.Error(),
			})
		}
		return
	}
	writeJSON(w, http.StatusOK, api.PromoteResult{Role: "primary", Epoch: epoch})
}

// replReadyStatus describes the replication role for /readyz, or nil
// when the server does not replicate.
func (s *Server) replReadyStatus() *api.ReplStatus {
	s.replMu.Lock()
	p, f := s.repl.primary, s.repl.follower
	s.replMu.Unlock()
	switch {
	case f != nil:
		return &api.ReplStatus{
			Role: "follower", Connected: f.Connected(),
			LagSeq: f.Lag(), Epoch: s.ledger.Epoch(),
		}
	case p != nil:
		return &api.ReplStatus{
			Role: "primary", Connected: p.Connected() > 0,
			LagSeq: p.MaxLag(), Epoch: s.ledger.Epoch(),
			Followers: p.Connected(),
		}
	}
	return nil
}

// registerReplGauges exports the replication health surface. Called
// once from StartReplication (under s.replMu); the gauge funcs read
// the live handles so they survive promotion.
func (s *Server) registerReplGauges() {
	// Replication position gap: on a follower, committed seqs not yet
	// applied locally; on a primary, the slowest connected follower's
	// un-acked backlog. Alert when it grows.
	s.metrics.GaugeFunc("dp_repl_lag_seq", func() float64 {
		if f := s.replFollowerHandle(); f != nil {
			return float64(f.Lag())
		}
		if p := s.replPrimaryHandle(); p != nil {
			return float64(p.MaxLag())
		}
		return 0
	})
	// Peer count: connected followers on a primary; 1/0 on a
	// follower for its upstream link.
	s.metrics.GaugeFunc("dp_repl_connected", func() float64 {
		if f := s.replFollowerHandle(); f != nil {
			if f.Connected() {
				return 1
			}
			return 0
		}
		if p := s.replPrimaryHandle(); p != nil {
			return float64(p.Connected())
		}
		return 0
	})
	// The durable fencing epoch — bumps exactly once per promotion,
	// so a step in this gauge marks a failover.
	s.metrics.GaugeFunc("dp_repl_epoch", func() float64 {
		return float64(s.ledger.Epoch())
	})
}

// CloseReplication stops the replication role (tests and shutdown
// paths; a process exit works too — followers resync from their
// durable position). A node that held a role stays refusing spends
// afterwards: silently reverting to unreplicated standalone appends
// would let a request racing the close earn a 200 no follower ever
// saw. No-op on a server that never replicated.
func (s *Server) CloseReplication() {
	s.replMu.Lock()
	p, f := s.repl.primary, s.repl.follower
	s.repl.primary, s.repl.follower = nil, nil
	if s.repl.cfg != nil {
		s.repl.closed = true
	}
	s.replMu.Unlock()
	if p != nil {
		p.Close()
	}
	if f != nil {
		f.Close()
	}
}
