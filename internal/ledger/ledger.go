package ledger

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/vfs"
)

// Errors returned by Stage, Commit and Append.
var (
	// ErrFrozen means recovery found corrupt history: the ledger
	// refuses all new appends, which upstream refuses all new charges
	// (fail closed — see the package comment).
	ErrFrozen = errors.New("ledger: frozen (corrupt history, fail closed)")
	// ErrDegraded means a journal I/O operation failed at runtime (EIO,
	// ENOSPC, a failed fsync). The ledger permanently refuses all new
	// appends for the rest of the process lifetime — without touching
	// the disk again, so a full disk cannot error-loop. Two rules force
	// this design:
	//
	//   - fsyncgate: after a failed fsync the kernel may have dropped
	//     the dirty pages AND marked them clean, so retrying the sync
	//     can report success without the data being durable. The only
	//     honest response is to stop trusting the segment.
	//   - seq collision: rotating past a failed write and continuing
	//     could put two different records with the same seq on disk; a
	//     surviving phantom would shadow the real record at replay.
	//
	// A record whose write succeeded but whose sync failed may still
	// reach the disk; recovery then over-counts spend, which is the
	// conservative (privacy-safe) direction. Restart the process to
	// reopen the ledger once the disk is fixed.
	ErrDegraded = errors.New("ledger: degraded (journal I/O failure, fail closed)")
	// ErrClosed means the ledger has been Closed.
	ErrClosed = errors.New("ledger: closed")
)

// Options configures Open.
type Options struct {
	// Dir is the ledger directory, created if missing. The ledger owns
	// it exclusively.
	Dir string
	// Fsync is kept for the frozen bench/ directory only (see
	// benchforwards.go): every Commit fsyncs, and Open refuses any value
	// but "" and FsyncAlways.
	Fsync FsyncPolicy
	// SnapshotEvery snapshots + compacts after this many appended
	// events. 0 means the 4096 default; negative disables automatic
	// snapshots (Snapshot can still be called explicitly).
	SnapshotEvery int
	// Logf receives recovery warnings (torn-tail truncations, skipped
	// snapshots). Nil discards them.
	Logf func(format string, args ...any)
	// FS is the filesystem the ledger runs on; nil means the real OS.
	// Tests substitute vfs.FaultFS to exercise every I/O failure path.
	FS vfs.FS

	now func() time.Time // test seam
}

// defaultSnapshotEvery balances WAL replay length against snapshot
// write amplification.
const defaultSnapshotEvery = 4096

// Recovery describes what Open (or Replay) reconstructed.
type Recovery struct {
	// SnapshotSeq is the seq of the snapshot recovery started from
	// (0 = no snapshot).
	SnapshotSeq uint64
	// Events is the number of WAL-tail events replayed on top.
	Events int
	// Segments is the number of WAL segments visited.
	Segments int
	// TornBytes is the size of the torn final record truncated away
	// (0 = clean shutdown).
	TornBytes int64
	// Duration is the wall time recovery took.
	Duration time.Duration
	// Err is non-nil when the history is corrupt; the ledger is then
	// frozen and the state partial.
	Err error
}

// Ledger is an open budget ledger. All methods are safe for concurrent
// use.
type Ledger struct {
	// syncMu serializes everything that makes staged records durable or
	// replaces the active segment: Commit, Sync, Snapshot, Close. It is
	// taken before mu, and Commit keeps it (but not mu) across the fsync
	// — so records keep being staged while one sync runs, and the
	// committers queued behind it find their seq already covered (group
	// commit).
	syncMu sync.Mutex

	mu          sync.Mutex
	dir         string
	opts        Options
	fs          vfs.FS
	state       *State
	active      vfs.File
	activeSize  int64
	activeStart uint64
	sinceSnap   int
	dirty       bool // bytes written to the active segment and not yet synced
	// staged holds the records written and folded into state but not yet
	// published (commit hook not fired), in seq order; durable is the seq
	// of the newest published record.
	staged     []stagedRecord
	durable    uint64
	frozen     error
	degraded   error
	syncFailed bool // an fsync of the WAL failed: it is never synced again
	closed     bool
	rec        Recovery
	now        func() time.Time
	epoch      uint64
	commitHook func(seq uint64, payload []byte)

	metricsMu sync.Mutex
	metrics   *obs.Registry
	events    *qlog.Logger
}

// stagedRecord is one record awaiting its commit.
type stagedRecord struct {
	seq     uint64
	payload []byte
}

const (
	walMagic  = "dpwal01\n"
	snapMagic = "dpsnap1\n"
	magicSize = 8
)

// Open opens (creating if needed) the ledger in opts.Dir and runs
// crash recovery. A torn final record is truncated with a warning; any
// deeper corruption leaves the ledger frozen: Open still returns it
// (so operators can inspect state and serve read-only traffic) but
// every Append fails with ErrFrozen. Check Recovery().Err.
func Open(opts Options) (*Ledger, error) {
	if opts.Dir == "" {
		return nil, errors.New("ledger: Options.Dir is required")
	}
	if opts.Fsync != "" && opts.Fsync != FsyncAlways {
		return nil, fmt.Errorf("ledger: fsync mode %q is not supported: every commit fsyncs", opts.Fsync)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	now := opts.now
	if now == nil {
		now = time.Now
	}

	l := &Ledger{dir: opts.Dir, opts: opts, fs: opts.FS, now: now}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.loadEpoch(); err != nil {
		return nil, err
	}
	return l, nil
}

// logf emits a recovery/operations warning.
func (l *Ledger) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// degrade marks the ledger permanently degraded (first cause wins) and
// returns the error Append should surface. Must hold l.mu.
func (l *Ledger) degrade(cause error) error {
	if l.degraded == nil {
		l.degraded = cause
		l.logf("ledger: DEGRADED, refusing all new appends (fail closed): %v", cause)
	}
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// recover loads the newest valid snapshot, replays the WAL tail, and
// opens the active segment for appending.
func (l *Ledger) recover() error {
	start := time.Now()
	state, rec, segs, torn := replay(l.fs, l.dir, l.logf)
	l.state = state
	l.durable = state.Seq
	l.rec = rec
	l.rec.Duration = time.Since(start)
	l.state.pruneIdem(l.now().UnixNano())

	if rec.Err != nil {
		l.frozen = rec.Err
		l.logf("ledger: RECOVERY FAILED, freezing (no new charges will be accepted): %v", rec.Err)
		return nil
	}
	if torn.path != "" {
		l.logf("ledger: truncating torn tail of %s (%d bytes) after seq %d",
			filepath.Base(torn.path), rec.TornBytes, state.Seq)
		if torn.keep < magicSize {
			// The tear hit the segment header itself: the file holds no
			// records, so drop it and let rotation start a clean one.
			if err := l.fs.Remove(torn.path); err != nil {
				return fmt.Errorf("ledger: remove torn segment: %w", err)
			}
			segs = segs[:len(segs)-1]
		} else if err := l.fs.Truncate(torn.path, int64(torn.keep)); err != nil {
			return fmt.Errorf("ledger: truncate torn tail: %w", err)
		}
	}

	// Open the last segment for appending, or start the first one.
	if len(segs) == 0 {
		return l.rotateLocked()
	}
	last := segs[len(segs)-1]
	f, err := l.fs.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: open active segment: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("ledger: seek active segment: %w", err)
	}
	l.active, l.activeSize, l.activeStart = f, size, last.seq
	return nil
}

// tornTail is the torn final record recovery truncates: the segment
// and the length to keep (path "" = a clean end).
type tornTail struct {
	path string
	keep int
}

// replay reconstructs state from dir without modifying anything on
// disk: the newest loadable snapshot, then the WAL records after it,
// read through the one scanner. It returns the folded state, recovery
// stats, the WAL segments and the torn tail of the final one. rec.Err
// is set (and folding stops) on corrupt history.
func replay(fsys vfs.FS, dir string, logf func(string, ...any)) (*State, Recovery, []file, tornTail) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rec Recovery
	ls, err := list(fsys, dir)
	if err != nil {
		rec.Err = fmt.Errorf("ledger: read dir: %w", err)
		return NewState(), rec, nil, tornTail{}
	}
	seq, state, _ := newestSnapshot(fsys, ls, logf)
	if state == nil {
		state = NewState()
	}
	rec.SnapshotSeq = seq
	if len(ls.segs) == 0 {
		return state, rec, nil, tornTail{}
	}
	t := NewTailReader(fsys, dir, state.Seq)
	for {
		ev, _, err := t.scan()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrCompacted) {
			err = fmt.Errorf("%w: no WAL segment holds seq %d", ErrCorrupt, state.Seq+1)
		}
		if err == nil {
			err = state.Apply(&ev)
		}
		if err != nil {
			rec.Err, rec.Segments = err, t.segments
			return state, rec, ls.segs, tornTail{}
		}
		rec.Events++
	}
	torn, n := t.tail()
	rec.Segments, rec.TornBytes = t.segments, int64(n)
	return state, rec, ls.segs, torn
}

// Replay reconstructs the ledger state read-only (nothing on disk is
// modified, torn tails included) — the engine behind `dpledger verify`
// and `dpledger inspect`. auditCap must be 0: the audit trail is bounded
// by AuditCap (see benchforwards.go).
func Replay(dir string, auditCap int) (*State, Recovery, error) {
	if err := checkAuditCap(auditCap); err != nil {
		return NewState(), Recovery{Err: err}, err
	}
	start := time.Now()
	state, rec, _, _ := replay(vfs.OS{}, dir, nil)
	rec.Duration = time.Since(start)
	return state, rec, rec.Err
}

// decodeSnapshotState folds a decoded snapshot record into a State,
// normalizing maps JSON may have left nil.
func decodeSnapshotState(ev *Event) (*State, error) {
	if ev.Type != "snapshot" {
		return nil, fmt.Errorf("unexpected record type %q", ev.Type)
	}
	st := NewState()
	if err := json.Unmarshal(ev.Body, st); err != nil {
		return nil, err
	}
	if st.Seq != ev.Seq {
		return nil, fmt.Errorf("snapshot state seq %d, record seq %d", st.Seq, ev.Seq)
	}
	if st.Datasets == nil {
		st.Datasets = make(map[string]*DatasetState)
	}
	if st.Idem == nil {
		st.Idem = make(map[string]*IdemRecord)
	}
	for _, ds := range st.Datasets {
		if ds.Spent == nil {
			ds.Spent = make(map[string]float64)
		}
	}
	return st, nil
}

// State returns the ledger's folded state. The same object is updated
// in place by every append, so read it only where none can run (tools,
// tests, a sealed follower's promotion check); a server, whose spends
// and follower stream may run at any time, reads through the locked
// accessors below.
func (l *Ledger) State() *State { return l.state }

// Dataset returns a copy of one dataset's folded state, taken under
// the ledger lock, so it is safe beside concurrent appends.
func (l *Ledger) Dataset(name string) (DatasetState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ds, ok := l.state.Datasets[name]
	if !ok {
		return DatasetState{}, false
	}
	out := *ds
	out.Spent = maps.Clone(ds.Spent)
	return out, true
}

// Audit returns the folded audit trail, oldest first, taken under the
// ledger lock. appendAudit never overwrites an entry, so the slice
// shares the fold's array instead of copying up to AuditCap records,
// and stays valid beside later appends; callers must not modify it.
func (l *Ledger) Audit() []AuditRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clip(l.state.Audit)
}

// Reply returns a copy of one stored idempotent reply, taken under the
// ledger lock. A staged reply is found as soon as it is folded, before
// its commit; one past its expiry is absent, as the next snapshot or
// recovery would prune it. Callers must not modify the body.
func (l *Ledger) Reply(endpoint, dataset, analyst, key string) (IdemRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.state.Idem[IdemKeyString(endpoint, dataset, analyst, key)]
	if !ok || rec.expired(l.now().UnixNano()) {
		return IdemRecord{}, false
	}
	return *rec, true
}

// Standing returns copies of one dataset's standing-query states, taken
// under the ledger lock, in registration (Seq) order.
func (l *Ledger) Standing(dataset string) []StandingState {
	l.mu.Lock()
	var out []StandingState
	for _, st := range l.state.Standing {
		if st.Dataset == dataset {
			c := *st
			c.Windows = slices.Clone(st.Windows)
			out = append(out, c)
		}
	}
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b StandingState) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Recovery reports what Open reconstructed.
func (l *Ledger) Recovery() Recovery { return l.rec }

// Frozen reports the corruption that froze the ledger, or nil.
func (l *Ledger) Frozen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frozen
}

// Degraded reports the runtime I/O failure that degraded the ledger,
// or nil.
func (l *Ledger) Degraded() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Refusing reports why the ledger refuses appends (frozen or degraded),
// or nil when it is accepting. Servers use it to shed spending traffic
// before doing any work.
func (l *Ledger) Refusing() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen != nil {
		return fmt.Errorf("%w: %v", ErrFrozen, l.frozen)
	}
	if l.degraded != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, l.degraded)
	}
	return nil
}

// refusingLocked reports why the ledger takes no new records (frozen,
// degraded or closed), or nil. Must hold l.mu.
func (l *Ledger) refusingLocked() error {
	switch {
	case l.frozen != nil:
		return fmt.Errorf("%w: %v", ErrFrozen, l.frozen)
	case l.degraded != nil:
		return fmt.Errorf("%w: %v", ErrDegraded, l.degraded)
	case l.closed:
		return ErrClosed
	}
	return nil
}

// Append is Stage followed by Commit: on return with a nil error the
// event is in the WAL on stable storage. Any error means the event must
// be treated as NOT acknowledged; after a commit failure it may still
// survive on disk — recovery then over-counts spend, which is the safe
// (conservative) direction.
//
// A caller that journals several records for one answer stages each
// and commits once (see Stage); Append is for the single-record case.
func (l *Ledger) Append(ev Event) error {
	_, err := l.AppendSeq(ev)
	return err
}

// AppendSeq is Append, additionally returning the sequence number the
// event committed at — the handle replication waits on.
func (l *Ledger) AppendSeq(ev Event) (uint64, error) {
	seq, err := l.Stage(ev)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Stage journals one event without making it durable yet: the record
// is sequenced, written to the active segment and folded into State at
// once — WAL order is the order Stage calls arrive in — and becomes
// durable at the next Commit (or Sync, snapshot, Close) that covers its
// seq. The contract is durable-before-release: nothing that depends on
// a staged record (a result, a stored reply, an ACK) may leave the
// process before a Commit covering it has returned nil.
//
// An error means the event is NOT recorded and the charge must be
// refused. The first write error permanently degrades the ledger (see
// ErrDegraded): later calls refuse immediately without touching the
// disk.
func (l *Ledger) Stage(ev Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusingLocked(); err != nil {
		return 0, err
	}
	ev.Seq = l.state.Seq + 1
	if ev.Time == 0 {
		ev.Time = l.now().UnixNano()
	}
	buf, err := EncodeRecord(nil, &ev)
	if err != nil {
		return 0, err
	}
	if err := l.stageRecordLocked(&ev, buf); err != nil {
		return 0, err
	}
	return ev.Seq, nil
}

// stageRecordLocked writes one encoded record (buf = header+payload,
// ev its decoded form with ev.Seq == state.Seq+1), folds it into state
// and queues it for the commit that will publish it. Must hold l.mu.
func (l *Ledger) stageRecordLocked(ev *Event, buf []byte) error {
	if _, err := l.active.WriteAt(buf, l.activeSize); err != nil {
		// A partial write leaves a torn tail that the next recovery
		// truncates. Appending past it is NOT safe (a later successful
		// write would strand a corrupt record mid-history), so the
		// ledger degrades.
		return l.degrade(fmt.Errorf("append: %w", err))
	}
	l.dirty = true
	l.activeSize += int64(len(buf))
	if err := l.state.Apply(ev); err != nil {
		// Cannot happen for events this process built; fail closed if
		// it somehow does.
		l.frozen = err
		return err
	}
	l.countAppend(ev.Type)
	l.staged = append(l.staged, stagedRecord{seq: ev.Seq, payload: buf[recordHeaderSize:]})
	l.sinceSnap++
	return nil
}

// Commit makes every record staged so far durable with one fsync and
// publishes them to the commit hook in seq order. It returns nil once
// seq is covered, so a committer whose records an earlier Commit
// already covered returns without syncing: concurrent requests share
// fsyncs.
//
// A failed fsync degrades the ledger (fsyncgate: it is never retried
// and assumed durable). The records staged before it stay folded into
// State and may or may not be on disk — an over-count at worst — and
// are never published. A ledger degraded by a failed write, by
// contrast, still commits the records staged before that write.
func (l *Ledger) Commit(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.durable {
		return nil
	}
	if l.closed {
		return ErrClosed
	}
	// fsyncgate bars a second sync after a failed one. A failed WRITE
	// does not: the records staged before it are intact, so the requests
	// they belong to still get their commit (the torn bytes behind them
	// are recovery's torn tail) — only new records are refused.
	if l.syncFailed || l.active == nil {
		return fmt.Errorf("%w: %v", ErrDegraded, l.degraded)
	}
	// The fsync runs without l.mu: records keep being staged behind it,
	// and whoever holds syncMu next covers them all. Only the first n
	// staged records are known to precede this sync.
	n := len(l.staged)
	f := l.active
	l.dirty = false
	l.mu.Unlock()
	err := l.syncFile(f)
	l.mu.Lock()
	if err != nil {
		return l.syncFailedLocked("fsync", err)
	}
	l.publishLocked(n)
	if l.degraded == nil && l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery {
		// Best effort, already reported: the WAL still has everything.
		_ = l.snapshotLocked()
	}
	return nil
}

// syncFile fsyncs a WAL segment, timing it into the metrics — the one
// place WAL records are made durable.
func (l *Ledger) syncFile(f vfs.File) error {
	start := time.Now()
	err := f.Sync()
	l.observeFsync(time.Since(start))
	return err
}

// syncFailedLocked degrades the ledger after a failed WAL fsync and bars
// any further one (fsyncgate: the failed sync may have dropped the
// dirty pages and marked them clean — retrying could falsely report
// durability, so the segment is poisoned instead). Must hold l.mu.
func (l *Ledger) syncFailedLocked(what string, err error) error {
	l.syncFailed = true
	return l.degrade(fmt.Errorf("%s: %w", what, err))
}

// flushLocked syncs the active segment if it holds unsynced bytes and
// publishes everything staged: the implicit commit inside Sync,
// snapshot, rotation and Close. what names the caller in the degrade
// cause. Must hold l.syncMu and l.mu.
func (l *Ledger) flushLocked(what string) error {
	if l.dirty {
		if err := l.syncFile(l.active); err != nil {
			return l.syncFailedLocked(what, err)
		}
		l.dirty = false
	}
	l.publishLocked(len(l.staged))
	return nil
}

// publishLocked fires the commit hook for the first n staged records,
// in seq order, and advances the durable prefix past them. Must hold
// l.mu.
func (l *Ledger) publishLocked(n int) {
	if n == 0 {
		return
	}
	for _, r := range l.staged[:n] {
		if l.commitHook != nil {
			l.commitHook(r.seq, r.payload)
		}
	}
	l.durable = l.staged[n-1].seq
	l.staged = append(l.staged[:0], l.staged[n:]...)
	l.observeCommit(n)
}

// Sync makes everything staged so far durable and publishes it, for
// callers that hold no seq. A failure degrades the ledger (fsyncgate).
func (l *Ledger) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, l.degraded)
	}
	if l.closed || l.active == nil {
		return nil
	}
	return l.flushLocked("sync")
}

// Snapshot checkpoints the current state and compacts the WAL: older
// segments and snapshots are deleted once the new snapshot is durable.
func (l *Ledger) Snapshot() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusingLocked(); err != nil {
		return err
	}
	return l.snapshotLocked()
}

// snapshotLocked attempts one snapshot and reports a failure (log line,
// dp_ledger_snapshot_failures_total, one ledger_snapshot_failed event).
// Whatever happens, the next automatic attempt is a full SnapshotEvery
// away: a state too large to snapshot must not be re-marshalled on
// every append. Must hold l.syncMu and l.mu.
func (l *Ledger) snapshotLocked() error {
	l.sinceSnap = 0
	err := l.writeSnapshotLocked()
	if err != nil {
		// A failed snapshot is an operational problem, not a
		// correctness one: the WAL still has everything. (If the
		// failure implicated the WAL itself — a failed pre-sync or
		// rotation — the ledger is already degraded.)
		l.logf("ledger: snapshot failed (will retry): %v", err)
		l.noteSnapshotFailure(err)
	}
	return err
}

func (l *Ledger) writeSnapshotLocked() error {
	// The WAL must be durable through the snapshot seq before older
	// segments become deletable; a failure here is an append-path
	// failure (the WAL's durability is unknown), not a snapshot one.
	if err := l.flushLocked("pre-snapshot fsync"); err != nil {
		return err
	}
	l.state.pruneIdem(l.now().UnixNano())
	body, err := json.Marshal(l.state)
	if err != nil {
		return err
	}
	seq := l.state.Seq
	buf := append([]byte(nil), snapMagic...)
	buf, err = EncodeRecord(buf, &Event{Seq: seq, Time: l.now().UnixNano(), Type: "snapshot", Body: body})
	if err != nil {
		return err
	}
	final := filepath.Join(l.dir, snapshotName(seq))
	tmp := final + ".tmp"
	// Snapshot-file failures are best-effort: the WAL still holds every
	// event, so the ledger keeps appending and retries at the next
	// SnapshotEvery boundary.
	if err := writeFileSync(l.fs, tmp, buf); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(l.fs, l.dir)

	// Rotate to a fresh segment, then drop everything the snapshot
	// covers. A rotation failure leaves no active segment to append to,
	// so it degrades the ledger rather than leaving a nil file behind.
	if err := l.rotateLocked(); err != nil {
		return l.degrade(fmt.Errorf("rotate after snapshot: %w", err))
	}
	ls, err := list(l.fs, l.dir)
	if err != nil {
		return nil // compaction is best-effort
	}
	// Every segment starting at or before seq holds only records the
	// snapshot covers (rotation just started seq+1's); every other
	// snapshot is older.
	for _, f := range slices.Concat(ls.segs, ls.snaps) {
		if f.seq < seq || f.seq == seq && f.path != final {
			if err := l.fs.Remove(f.path); err != nil {
				l.logf("ledger: compaction: %v", err)
			}
		}
	}
	return nil
}

// rotateLocked closes the active segment — committing what it still
// holds staged — and starts a new one at the next sequence number.
func (l *Ledger) rotateLocked() error {
	if l.active != nil {
		if err := l.flushLocked("pre-rotate fsync"); err != nil {
			return err
		}
		l.active.Close()
		l.active = nil
	}
	start := l.state.Seq + 1
	path := filepath.Join(l.dir, segmentName(start))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: create segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
		f.Close()
		return fmt.Errorf("ledger: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ledger: sync segment header: %w", err)
	}
	syncDir(l.fs, l.dir)
	l.active, l.activeSize, l.activeStart = f, magicSize, start
	return nil
}

// Close syncs, publishes what the sync covered, and closes the ledger.
// Further Appends fail.
func (l *Ledger) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.active != nil {
		if l.degraded == nil {
			err = l.flushLocked("close fsync")
		}
		if cerr := l.active.Close(); err == nil && l.degraded == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(fsys vfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creations are durable.
// Best-effort: some platforms refuse directory syncs.
func syncDir(fsys vfs.FS, dir string) {
	_ = fsys.SyncDir(dir)
}

// --- metrics ---------------------------------------------------------

// AttachMetrics exports the ledger's telemetry into reg:
// dp_ledger_appends_total{type=...} (records staged),
// dp_ledger_fsync_seconds, dp_ledger_commit_records (records one commit
// published — made durable by one sync),
// dp_ledger_snapshot_failures_total, dp_ledger_recovery_events_total,
// dp_ledger_recovery_torn_bytes_total,
// dp_ledger_recovery_seconds, and the live gauges dp_ledger_seq,
// dp_ledger_frozen, and dp_ledger_degraded. Recovery totals are
// recorded once, at attach time.
func (l *Ledger) AttachMetrics(reg *obs.Registry) {
	l.metricsMu.Lock()
	l.metrics = reg
	l.metricsMu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("dp_ledger_recovery_events_total").Add(float64(l.rec.Events))
	reg.Counter("dp_ledger_recovery_torn_bytes_total").Add(float64(l.rec.TornBytes))
	reg.Counter("dp_ledger_recovery_seconds").Add(l.rec.Duration.Seconds())
	reg.GaugeFunc("dp_ledger_seq", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.state.Seq)
	})
	reg.GaugeFunc("dp_ledger_frozen", func() float64 {
		if l.Frozen() != nil {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("dp_ledger_degraded", func() float64 {
		if l.Degraded() != nil {
			return 1
		}
		return 0
	})
}

// AttachEvents directs the ledger's operational wide events — today
// one ledger_snapshot_failed warning per failed snapshot — at log (nil
// discards them).
func (l *Ledger) AttachEvents(log *qlog.Logger) {
	l.metricsMu.Lock()
	l.events = log
	l.metricsMu.Unlock()
}

func (l *Ledger) countAppend(typ string) {
	l.metricsMu.Lock()
	reg := l.metrics
	l.metricsMu.Unlock()
	if reg != nil {
		reg.Counter("dp_ledger_appends_total", "type", typ).Inc()
	}
}

func (l *Ledger) observeFsync(d time.Duration) {
	l.metricsMu.Lock()
	reg := l.metrics
	l.metricsMu.Unlock()
	if reg != nil {
		reg.Histogram("dp_ledger_fsync_seconds", obs.DurationBuckets()).Observe(d.Seconds())
	}
}

// commitRecordBuckets spans one record per commit (a lone Append) to a
// follower's catch-up burst.
var commitRecordBuckets = []float64{1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256}

func (l *Ledger) observeCommit(records int) {
	l.metricsMu.Lock()
	reg := l.metrics
	l.metricsMu.Unlock()
	if reg != nil {
		reg.Histogram("dp_ledger_commit_records", commitRecordBuckets).Observe(float64(records))
	}
}

func (l *Ledger) noteSnapshotFailure(err error) {
	l.metricsMu.Lock()
	reg, log := l.metrics, l.events
	l.metricsMu.Unlock()
	if reg != nil {
		reg.Counter("dp_ledger_snapshot_failures_total").Inc()
	}
	log.Log(qlog.Warn, "ledger_snapshot_failed",
		qlog.F("seq", l.state.Seq), qlog.F("error", err.Error()))
}
