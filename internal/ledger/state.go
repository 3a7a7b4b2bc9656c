package ledger

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dptrace/internal/standing"
)

// State is the fold of a ledger's event history: everything a
// restarted server needs to pick up exactly where the crashed one
// stopped. Snapshots are a serialized State; recovery loads the newest
// valid snapshot and replays the WAL tail through Apply.
//
// Budgets inside State use the wire sentinel (-1 == +Inf); decode with
// DecodeBudget at the consumer boundary.
type State struct {
	// Seq is the sequence number of the last applied event.
	Seq uint64 `json:"seq"`
	// LastCRC is the payload CRC of the record at Seq, which a snapshot
	// vouches for after compaction deletes it; 0 when unknown (a
	// snapshot from before the field, and no record since).
	LastCRC  uint32                   `json:"lastCRC,omitempty"`
	Datasets map[string]*DatasetState `json:"datasets,omitempty"`
	// Audit is the persisted audit trail, oldest first, bounded by
	// AuditCap through appendAudit.
	Audit []AuditRecord `json:"audit,omitempty"`
	// Idem maps idemKeyString() to stored idempotent replies.
	Idem map[string]*IdemRecord `json:"idem,omitempty"`
	// Standing maps StandingKeyString() to standing-query state:
	// registration, window cursor, cumulative standing spend, and the
	// bounded ring of recent window results.
	Standing map[string]*StandingState `json:"standing,omitempty"`
}

// DatasetState is one dataset's durable budget ledger.
type DatasetState struct {
	Kind string `json:"kind"`
	// Total and PerAnalyst are the registered budget bounds (wire
	// sentinel form).
	Total      float64 `json:"total"`
	PerAnalyst float64 `json:"perAnalyst"`
	// TotalSpent is the shared budget's cumulative draw, accumulated in
	// event order so replay reproduces the live run's float sum
	// bit-for-bit (and therefore the exact same refusal boundary).
	TotalSpent float64 `json:"totalSpent"`
	// Spent is each analyst's cumulative draw, same in-order property.
	Spent map[string]float64 `json:"spent,omitempty"`
}

// AuditRecord is the persisted form of one audit-trail entry.
type AuditRecord struct {
	Time    int64   `json:"time"`
	Analyst string  `json:"analyst"`
	Dataset string  `json:"dataset"`
	Query   string  `json:"query"`
	Epsilon float64 `json:"epsilon"`
	Charged float64 `json:"charged"`
	Outcome string  `json:"outcome"`
}

// IdemRecord is one stored idempotent reply.
type IdemRecord struct {
	Endpoint string `json:"endpoint"`
	Dataset  string `json:"dataset"`
	Analyst  string `json:"analyst"`
	Key      string `json:"key"`
	Status   int    `json:"status"`
	Body     []byte `json:"body"`
	Expires  int64  `json:"expires"`
}

// IdemKeyString is the State.Idem map key for one logical request.
func IdemKeyString(endpoint, dataset, analyst, key string) string {
	return endpoint + "\x00" + dataset + "\x00" + analyst + "\x00" + key
}

// StandingState is one standing query's durable state: everything a
// restarted server needs to resume the window schedule exactly where
// the crashed one stopped — never re-firing a charged window, never
// skipping an uncharged one.
type StandingState struct {
	// Seq is the registration event's sequence number. Restores replay
	// registrations in Seq order so the scheduler's deterministic
	// firing order (registration order) survives restarts.
	Seq         uint64  `json:"seq"`
	Dataset     string  `json:"dataset"`
	Analyst     string  `json:"analyst"`
	ID          string  `json:"id"`
	Kind        string  `json:"kind"`
	Epsilon     float64 `json:"epsilon"`
	Reservation float64 `json:"reservation"`
	Width       uint64  `json:"width,omitempty"`
	Stride      uint64  `json:"stride,omitempty"`
	EveryMs     int64   `json:"everyMs,omitempty"`
	Base        uint64  `json:"base"`
	// Request is the full registration request body (wire JSON), kept
	// so the restarted server can rebuild the executable query.
	Request []byte `json:"request,omitempty"`

	// Spent is the cumulative standing ε drawn by fired windows, the
	// in-order sum of standing_window Charged values.
	Spent float64 `json:"spent"`
	// NextWindow is the cursor: the index of the next window to fire.
	NextWindow uint64 `json:"nextWindow"`
	// LastMark is the end watermark of the last fired window.
	LastMark uint64 `json:"lastMark"`
	// LastFireNS is the wall time of the last fired window (Unix
	// nanoseconds) — the replayed deadline for wall-clock windows.
	LastFireNS int64 `json:"lastFireNs,omitempty"`
	// Status is "active", "exhausted", or "canceled".
	Status string `json:"status"`
	// Windows is the bounded ring of recent window results, oldest
	// first, capped at standing.RingCap like the live ring.
	Windows []StandingWindowRecord `json:"windows,omitempty"`
}

// StandingWindowRecord is the persisted form of one fired window.
type StandingWindowRecord struct {
	Window  uint64  `json:"window"`
	Start   uint64  `json:"start"`
	End     uint64  `json:"end"`
	Charged float64 `json:"charged"`
	Outcome string  `json:"outcome"`
	Body    []byte  `json:"body,omitempty"`
	Time    int64   `json:"time"`
}

// StandingKeyString is the State.Standing map key for one query.
func StandingKeyString(dataset, id string) string {
	return dataset + "\x00" + id
}

// Standing statuses persisted in StandingState.Status.
const (
	StandingActive    = "active"
	StandingExhausted = "exhausted"
	StandingCanceled  = "canceled"
)

// AuditCap bounds the audit trail the fold keeps: past it, the oldest
// half is dropped.
const AuditCap = 10000

// appendAudit appends rec to trail, first dropping the oldest half when
// the trail holds AuditCap entries. The kept half moves to a new array,
// so an appended entry is never overwritten: a slice of the trail taken
// earlier stays readable beside later appends (see Ledger.Audit).
func appendAudit(trail []AuditRecord, rec AuditRecord) []AuditRecord {
	if len(trail) >= AuditCap {
		trail = append(make([]AuditRecord, 0, AuditCap), trail[len(trail)-AuditCap/2:]...)
	}
	return append(trail, rec)
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Datasets: make(map[string]*DatasetState),
		Idem:     make(map[string]*IdemRecord),
	}
}

// Apply folds one event into the state. Events must arrive in strictly
// sequential order (seq = Seq+1); any violation, reference to an
// unknown dataset, or unknown event type means the history is not the
// one that was written — the caller must fail closed.
func (s *State) Apply(ev *Event) error {
	if ev.Seq != s.Seq+1 {
		return fmt.Errorf("%w: sequence gap: have %d, next event is %d", ErrCorrupt, s.Seq, ev.Seq)
	}
	switch ev.Type {
	case EventDatasetCreated:
		if ev.Dataset == "" {
			return fmt.Errorf("%w: dataset_created without a name (seq %d)", ErrCorrupt, ev.Seq)
		}
		if _, ok := s.Datasets[ev.Dataset]; ok {
			return fmt.Errorf("%w: dataset %q created twice (seq %d)", ErrCorrupt, ev.Dataset, ev.Seq)
		}
		s.Datasets[ev.Dataset] = &DatasetState{
			Kind:       ev.Kind,
			Total:      ev.Total,
			PerAnalyst: ev.PerAnalyst,
			Spent:      make(map[string]float64),
		}

	case EventCharge:
		ds, err := s.dataset(ev)
		if err != nil {
			return err
		}
		ds.Spent[ev.Analyst] += ev.Epsilon
		ds.TotalSpent += ev.Epsilon

	case EventRollback:
		ds, err := s.dataset(ev)
		if err != nil {
			return err
		}
		// Mirror the live agents' clamp-at-zero rollback semantics.
		ds.Spent[ev.Analyst] -= ev.Epsilon
		if ds.Spent[ev.Analyst] < 0 {
			ds.Spent[ev.Analyst] = 0
		}
		ds.TotalSpent -= ev.Epsilon
		if ds.TotalSpent < 0 {
			ds.TotalSpent = 0
		}

	case EventRefusal, EventAudit:
		s.Audit = appendAudit(s.Audit, AuditRecord{
			Time: ev.Time, Analyst: ev.Analyst, Dataset: ev.Dataset,
			Query: ev.Query, Epsilon: ev.Epsilon, Charged: ev.Charged,
			Outcome: ev.Outcome,
		})

	case EventIdemReply:
		if s.Idem == nil {
			s.Idem = make(map[string]*IdemRecord)
		}
		s.Idem[IdemKeyString(ev.Endpoint, ev.Dataset, ev.Analyst, ev.Key)] = &IdemRecord{
			Endpoint: ev.Endpoint, Dataset: ev.Dataset, Analyst: ev.Analyst,
			Key: ev.Key, Status: ev.Status, Body: ev.Body, Expires: ev.Expires,
		}

	case EventStandingRegistered:
		if _, err := s.dataset(ev); err != nil {
			return err
		}
		if ev.Standing == "" {
			return fmt.Errorf("%w: standing_registered without an id (seq %d)", ErrCorrupt, ev.Seq)
		}
		key := StandingKeyString(ev.Dataset, ev.Standing)
		if s.Standing == nil {
			s.Standing = make(map[string]*StandingState)
		}
		if _, ok := s.Standing[key]; ok {
			return fmt.Errorf("%w: standing query %q registered twice on %q (seq %d)",
				ErrCorrupt, ev.Standing, ev.Dataset, ev.Seq)
		}
		s.Standing[key] = &StandingState{
			Seq: ev.Seq, Dataset: ev.Dataset, Analyst: ev.Analyst,
			ID: ev.Standing, Kind: ev.Query,
			Epsilon: ev.Epsilon, Reservation: ev.Reservation,
			Width: ev.Width, Stride: ev.Stride, EveryMs: ev.EveryMs,
			Base: ev.Base, LastMark: ev.Base, Request: ev.Body,
			Status: StandingActive,
		}

	case EventStandingWindow:
		st, err := s.standing(ev)
		if err != nil {
			return err
		}
		// Cursor and charge move together: this one event both advances
		// the window cursor and folds the window's ε into the dataset's
		// spends, mirroring the live run's silent in-memory charge.
		if ev.Charged != 0 {
			ds, err := s.dataset(ev)
			if err != nil {
				return err
			}
			ds.Spent[st.Analyst] += ev.Charged
			ds.TotalSpent += ev.Charged
		}
		st.Spent += ev.Charged
		st.NextWindow = ev.Window + 1
		st.LastMark = ev.Watermark
		st.LastFireNS = ev.Time
		if ev.Outcome == StandingExhausted {
			st.Status = StandingExhausted
		}
		if len(st.Windows) >= standing.RingCap {
			copy(st.Windows, st.Windows[1:])
			st.Windows = st.Windows[:len(st.Windows)-1]
		}
		st.Windows = append(st.Windows, StandingWindowRecord{
			Window: ev.Window, Start: ev.WindowStart, End: ev.Watermark,
			Charged: ev.Charged, Outcome: ev.Outcome, Body: ev.Body,
			Time: ev.Time,
		})

	case EventStandingCanceled:
		st, err := s.standing(ev)
		if err != nil {
			return err
		}
		st.Status = StandingCanceled

	default:
		return fmt.Errorf("%w: unknown event type %q (seq %d)", ErrCorrupt, ev.Type, ev.Seq)
	}
	s.Seq = ev.Seq
	return nil
}

// fold applies ev, decoded from rec (a whole record: header, then
// payload), and notes the record's CRC.
func (s *State) fold(ev *Event, rec []byte) error {
	if err := s.Apply(ev); err != nil {
		return err
	}
	s.LastCRC = binary.LittleEndian.Uint32(rec[4:recordHeaderSize])
	return nil
}

// pruneIdem drops replies that expired before now (Unix nanoseconds).
func (s *State) pruneIdem(now int64) {
	for k, rec := range s.Idem {
		if rec.expired(now) {
			delete(s.Idem, k)
		}
	}
}

// expired reports whether the reply expired before now (Unix
// nanoseconds); one without an expiry never does.
func (r *IdemRecord) expired(now int64) bool {
	return r.Expires != 0 && r.Expires < now
}

// dataset resolves the event's dataset, failing closed on references
// to datasets the history never created.
func (s *State) dataset(ev *Event) (*DatasetState, error) {
	ds, ok := s.Datasets[ev.Dataset]
	if !ok {
		return nil, fmt.Errorf("%w: %s for unknown dataset %q (seq %d)", ErrCorrupt, ev.Type, ev.Dataset, ev.Seq)
	}
	return ds, nil
}

// standing resolves the event's standing query, failing closed on
// references to queries the history never registered.
func (s *State) standing(ev *Event) (*StandingState, error) {
	st, ok := s.Standing[StandingKeyString(ev.Dataset, ev.Standing)]
	if !ok {
		return nil, fmt.Errorf("%w: %s for unknown standing query %q on %q (seq %d)",
			ErrCorrupt, ev.Type, ev.Standing, ev.Dataset, ev.Seq)
	}
	return st, nil
}

// DatasetNames lists the datasets in the state, sorted.
func (s *State) DatasetNames() []string {
	names := make([]string, 0, len(s.Datasets))
	for name := range s.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
