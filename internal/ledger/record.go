// Package ledger is the durable privacy-budget ledger: an append-only,
// checksummed write-ahead log of budget events with periodic snapshots,
// log compaction, and crash recovery.
//
// Differential privacy is a stateful guarantee — the budget-agent tree
// (paper §2, PINQ semantics) only protects the trace if cumulative
// ε-spend is never forgotten. Without this package a dpserver restart
// resets every analyst's spend to zero and silently re-opens the full
// budget. The ledger makes the spend history durable: every charge is
// staged in the WAL as it is accepted and committed (fsynced) *before*
// the answer it paid for is released, so a charge whose answer anyone
// saw survives a crash or power loss; recovery replays snapshot + WAL tail, tolerating a torn final
// record (truncate-and-warn) but refusing corrupt history (fail closed:
// a ledger that cannot be fully replayed refuses all new appends, which
// in turn refuses all new charges upstream).
//
// On-disk layout (all under one directory, owned exclusively by the
// ledger):
//
//	wal-<startseq>.wal    segments of length-prefixed, CRC32C-checked
//	                      records, JSON payloads, strictly increasing seq
//	snap-<seq>.snap       a checkpoint of the folded State through seq,
//	                      same record envelope, atomically renamed in
//
// Record envelope (little-endian):
//
//	uint32  payload length
//	uint32  CRC32C (Castagnoli) of the payload
//	[]byte  payload (JSON-encoded Event)
//
// Budgets may be +Inf, which JSON cannot carry; on the wire and in
// snapshots +Inf is the sentinel -1 (see EncodeBudget/DecodeBudget).
package ledger

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Event types. The ledger is a budget journal, not a data store: events
// carry spending metadata and replayable response bytes, never records.
const (
	// EventDatasetCreated registers a dataset's name, kind, and budget
	// bounds so a restarted server can match re-registrations against
	// the persisted ledger instead of starting a fresh budget.
	EventDatasetCreated = "dataset_created"
	// EventCharge is one acknowledged ε-spend by one analyst. Appended
	// by the core SpendJournal hook before the charge is acked.
	EventCharge = "charge"
	// EventRollback undoes a prior charge of the same ε (atomic
	// multi-parent spends that failed on a later parent).
	EventRollback = "rollback"
	// EventRefusal records a budget-refused query attempt: no ε moves,
	// but the owner's audit trail must survive restarts too.
	EventRefusal = "refusal"
	// EventAudit records a completed (ok / error / canceled) query for
	// the audit trail; its ε-movement is carried by charge events.
	EventAudit = "audit"
	// EventIdemReply stores a keyed idempotent response so a retry
	// across a restart replays bytes instead of re-charging ε.
	EventIdemReply = "idem_reply"
	// EventStandingRegistered registers a standing (continual) query:
	// its identity, window spec, per-window ε, and total reservation.
	// Body carries the full registration request so a restarted server
	// can rebuild the executable query.
	EventStandingRegistered = "standing_registered"
	// EventStandingWindow is one fired standing-query window — the
	// atomic charge-plus-cursor record. Charged is folded into the
	// dataset's per-analyst and total spends (window executions charge
	// the policy in memory only, bypassing the per-charge journal; see
	// core.AnalystPolicy.SilentAgentFor) and Window advances the
	// query's cursor, so no crash can charge a window without advancing
	// past it or advance past a window without its charge. Body carries
	// the result bytes replayed into the bounded result ring.
	EventStandingWindow = "standing_window"
	// EventStandingCanceled marks a standing query canceled: its
	// cursor stops, its spend history and result ring remain.
	EventStandingCanceled = "standing_canceled"
)

// Event is one ledger record. Fields are a union across event types;
// unused fields stay zero and are omitted from the wire encoding.
type Event struct {
	// Seq is the strictly-increasing event number, assigned by Append.
	Seq uint64 `json:"seq"`
	// Time is the append wall time in Unix nanoseconds.
	Time int64 `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`

	Dataset string  `json:"dataset,omitempty"`
	Analyst string  `json:"analyst,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`

	// dataset_created fields. Budgets use the -1 == +Inf sentinel.
	Kind       string  `json:"kind,omitempty"`
	Total      float64 `json:"total,omitempty"`
	PerAnalyst float64 `json:"perAnalyst,omitempty"`

	// refusal / audit fields.
	Query   string  `json:"query,omitempty"`
	Charged float64 `json:"charged,omitempty"`
	Outcome string  `json:"outcome,omitempty"`

	// idem_reply fields. Body is shared with the standing_* events
	// (registration request / window result bytes).
	Endpoint string `json:"endpoint,omitempty"`
	Key      string `json:"key,omitempty"`
	Status   int    `json:"status,omitempty"`
	Body     []byte `json:"body,omitempty"`

	// standing_* fields. Window boundaries are record-sequence
	// positions on the dataset's monotonic watermark; index 0 is a
	// valid window, distinguished by Type (only standing_window events
	// carry a window index at all).
	Standing    string  `json:"standing,omitempty"`    // standing query id
	Window      uint64  `json:"window,omitempty"`      // fired window index
	WindowStart uint64  `json:"windowStart,omitempty"` // window start (inclusive)
	Watermark   uint64  `json:"watermark,omitempty"`   // window end (exclusive)
	Width       uint64  `json:"width,omitempty"`       // record-count window width
	Stride      uint64  `json:"stride,omitempty"`      // sliding stride (== width: tumbling)
	EveryMs     int64   `json:"everyMs,omitempty"`     // wall-clock window period
	Reservation float64 `json:"reservation,omitempty"` // total standing ε reservation
	Base        uint64  `json:"base,omitempty"`        // watermark at registration
	// Expires is the replay-cache expiry in Unix nanoseconds; expired
	// entries are dropped during recovery and snapshotting.
	Expires int64 `json:"expires,omitempty"`
}

// EncodeBudget maps a budget to its wire form: +Inf (unlimited)
// becomes the sentinel -1, everything else passes through.
func EncodeBudget(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// DecodeBudget is the inverse of EncodeBudget.
func DecodeBudget(v float64) float64 {
	if v < 0 {
		return math.Inf(1)
	}
	return v
}

const recordHeaderSize = 8

// maxRecordSize bounds one payload; a larger length prefix is
// corruption, not a real record (idem bodies are response-sized). A
// snapshot is one record too, so this also bounds the state that can
// be checkpointed. A variable only so a test can lower it.
var maxRecordSize = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTornRecord means the buffer ends mid-record — the
// legitimate shape of a crash during the final append, recovered by
// truncation. ErrCorrupt means bytes that were durably written no
// longer decode — history cannot be trusted and replay must fail
// closed.
var (
	ErrTornRecord = errors.New("ledger: torn record")
	ErrCorrupt    = errors.New("ledger: corrupt record")
)

// EncodeRecord appends the wire encoding of ev to dst and returns the
// extended slice.
func EncodeRecord(dst []byte, ev *Event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return dst, fmt.Errorf("ledger: encode event: %w", err)
	}
	if len(payload) > maxRecordSize {
		return dst, fmt.Errorf("ledger: event too large (%d bytes)", len(payload))
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// DecodeRecord decodes the record at the start of b, returning the
// event and the number of bytes consumed. A buffer that ends mid-record
// yields ErrTornRecord; a complete record whose checksum or payload is
// invalid yields ErrCorrupt (possibly wrapped with detail).
func DecodeRecord(b []byte) (Event, int, error) {
	var ev Event
	if len(b) < recordHeaderSize {
		return ev, 0, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if int64(n) > int64(maxRecordSize) {
		return ev, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	if len(b) < recordHeaderSize+int(n) {
		return ev, 0, ErrTornRecord
	}
	payload := b[recordHeaderSize : recordHeaderSize+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return ev, 0, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	if err := json.Unmarshal(payload, &ev); err != nil {
		return ev, 0, fmt.Errorf("%w: bad payload: %v", ErrCorrupt, err)
	}
	return ev, recordHeaderSize + int(n), nil
}
