// Replication seam: the pieces internal/repl builds on.
//
//   - A commit hook fires (under the ledger lock, after the fsync that
//     covers it under FsyncAlways) for every committed record with its
//     raw payload, in seq order, so a primary can fan events out
//     without re-reading the disk — and never ahead of its own durable
//     prefix.
//   - TailReader re-reads committed records from any seq, re-verifying
//     every CRC — the catch-up path for followers that are behind the
//     in-memory window, and the engine behind dpledger diff.
//   - StageReplica (and ReplicaAppend, its stage-plus-commit form) lets
//     a follower write the primary's records into its own WAL verbatim
//     (byte-identical segments, same refusal boundary on replay), and
//     InstallSnapshot seeds an empty follower that is behind the
//     primary's compaction horizon.
//   - A durable fencing epoch, stored next to the WAL, makes a deposed
//     primary's late appends rejectable after a promotion.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dptrace/internal/vfs"
)

// ErrCompacted means the requested events no longer exist on disk —
// compaction deleted the segments that held them. Followers recover by
// installing a snapshot (empty ledger) or re-seeding (non-empty).
var ErrCompacted = errors.New("ledger: requested events compacted away")

// Checksum is the ledger's record checksum (CRC32C) over a raw record
// payload — shared with the replication handshake's divergence check.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}

// SetCommitHook installs fn, called once per committed record (local
// and replicated alike) with the assigned seq and the raw payload
// bytes, in seq order, under the ledger lock, and only once the record
// is as durable as the fsync policy makes it (Commit, or any implicit
// sync that covered it) — fn must not block and must not call back
// into the ledger. Install before concurrent appends begin.
func (l *Ledger) SetCommitHook(fn func(seq uint64, payload []byte)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commitHook = fn
}

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.dir }

// FS returns the filesystem the ledger runs on — TailReaders over a
// live ledger must read through the same (possibly fault-injected)
// filesystem.
func (l *Ledger) FS() vfs.FS { return l.fs }

// CommittedSeq returns the seq of the newest committed event: the end
// of the prefix that has been made durable and published. Records
// staged past it are in State but not yet safe to act on.
func (l *Ledger) CommittedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// StagedSeq returns the seq of the newest staged event (>= CommittedSeq)
// — what a Commit issued now must cover.
func (l *Ledger) StagedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Seq
}

// --- fencing epoch ----------------------------------------------------

const epochFile = "epoch"

// loadEpoch reads the durable fencing epoch (missing file = epoch 0).
func (l *Ledger) loadEpoch() error {
	data, err := l.fs.ReadFile(filepath.Join(l.dir, epochFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			l.epoch = 0
			return nil
		}
		return fmt.Errorf("ledger: read epoch: %w", err)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: epoch file: %v", ErrCorrupt, err)
	}
	l.epoch = n
	return nil
}

// Epoch returns the ledger's durable fencing epoch. Streams tagged
// with a lower epoch come from a deposed primary and must be rejected.
func (l *Ledger) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// SetEpoch durably raises the fencing epoch (tmp + rename + dirsync).
// Lowering it is refused: a rollback would let a deposed primary's
// appends back in.
func (l *Ledger) SetEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e < l.epoch {
		return fmt.Errorf("ledger: epoch rollback (%d -> %d) refused", l.epoch, e)
	}
	if e == l.epoch {
		return nil
	}
	final := filepath.Join(l.dir, epochFile)
	tmp := final + ".tmp"
	if err := writeFileSync(l.fs, tmp, []byte(strconv.FormatUint(e, 10)+"\n")); err != nil {
		return fmt.Errorf("ledger: write epoch: %w", err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("ledger: rename epoch: %w", err)
	}
	syncDir(l.fs, l.dir)
	l.epoch = e
	return nil
}

// --- follower write path ----------------------------------------------

// ReplicaAppend is StageReplica followed by Commit: under FsyncAlways
// a nil return means the record is on stable storage and safe to ack.
func (l *Ledger) ReplicaAppend(seq uint64, payload []byte) error {
	if err := l.StageReplica(seq, payload); err != nil {
		return err
	}
	return l.Commit(seq)
}

// StageReplica stages a replicated record verbatim: payload must be
// the primary's raw record payload for exactly the next seq. The bytes
// written are identical to the primary's, so the two WALs replay to
// the same refusal boundary and compare clean under dpledger diff. A
// follower stages a burst of frames and Commits the last seq once
// before acking it.
func (l *Ledger) StageReplica(seq uint64, payload []byte) error {
	var ev Event
	if err := decodePayload(payload, &ev); err != nil {
		return err
	}
	if ev.Seq != seq {
		return fmt.Errorf("%w: payload seq %d, frame seq %d", ErrCorrupt, ev.Seq, seq)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusingLocked(); err != nil {
		return err
	}
	if seq != l.state.Seq+1 {
		return fmt.Errorf("ledger: replica append seq %d, want %d", seq, l.state.Seq+1)
	}
	buf := make([]byte, recordHeaderSize, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], Checksum(payload))
	buf = append(buf, payload...)
	return l.stageRecordLocked(&ev, buf)
}

// DecodeEventPayload re-verifies and decodes a raw record payload —
// the follower's view into the events it replicates.
func DecodeEventPayload(payload []byte, ev *Event) error {
	return decodePayload(payload, ev)
}

// decodePayload re-verifies and decodes a raw record payload.
func decodePayload(payload []byte, ev *Event) error {
	if len(payload) == 0 || len(payload) > maxRecordSize {
		return fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, len(payload))
	}
	rec := make([]byte, recordHeaderSize, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], Checksum(payload))
	rec = append(rec, payload...)
	decoded, _, err := DecodeRecord(rec)
	if err != nil {
		return err
	}
	*ev = decoded
	return nil
}

// InstallSnapshot seeds an EMPTY follower ledger from a primary
// snapshot record payload: the snapshot file lands byte-identical to
// the primary's, the state swaps to the checkpoint, and the WAL
// rotates to continue at the checkpoint seq + 1. A ledger that has
// already applied events refuses — mixing histories silently is how
// budgets drift; re-seed from a fresh directory instead.
func (l *Ledger) InstallSnapshot(payload []byte) error {
	var ev Event
	if err := decodePayload(payload, &ev); err != nil {
		return err
	}
	if ev.Seq == 0 {
		return fmt.Errorf("%w: snapshot at seq 0", ErrCorrupt)
	}
	st, err := decodeSnapshotState(&ev, l.opts.AuditCap)
	if err != nil {
		return fmt.Errorf("%w: snapshot state: %v", ErrCorrupt, err)
	}
	if st.Seq != ev.Seq {
		return fmt.Errorf("%w: snapshot state seq %d, record seq %d", ErrCorrupt, st.Seq, ev.Seq)
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusingLocked(); err != nil {
		return err
	}
	if l.state.Seq != 0 {
		return fmt.Errorf("ledger: snapshot install refused: ledger has history through seq %d", l.state.Seq)
	}

	buf := append([]byte(nil), snapMagic...)
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	final := filepath.Join(l.dir, snapshotName(ev.Seq))
	tmp := final + ".tmp"
	if err := writeFileSync(l.fs, tmp, buf); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(l.fs, l.dir)

	emptySeg := filepath.Join(l.dir, segmentName(l.activeStart))
	l.state = st
	l.durable = st.Seq
	l.sinceSnap = 0
	l.rec.SnapshotSeq = ev.Seq
	if err := l.rotateLocked(); err != nil {
		return l.degrade(fmt.Errorf("rotate after snapshot install: %w", err))
	}
	if emptySeg != filepath.Join(l.dir, segmentName(l.activeStart)) {
		if err := l.fs.Remove(emptySeg); err != nil {
			l.logf("ledger: snapshot install: remove empty segment: %v", err)
		}
	}
	return nil
}

// --- tail reading -----------------------------------------------------

// TailReader iterates committed WAL records from a given position,
// re-verifying every CRC, resuming across segment rotation, and
// tolerating concurrent appends (a partially-written tail reads as
// "no more yet"). It takes no ledger lock — it works off the on-disk
// bytes, exactly like recovery would — so over a live ledger it also
// sees records that are staged but not yet committed: a caller that
// must stay within the durable prefix (the replication primary) stops
// at CommittedSeq itself.
//
// Next returns io.EOF when it has delivered everything currently
// committed (call again after more commits), ErrCompacted when the
// wanted seq has been compacted away, and ErrCorrupt on damage.
type TailReader struct {
	fs    vfs.FS
	dir   string
	next  uint64 // seq the next call must deliver
	path  string // buffered segment ("" = none)
	start uint64
	buf   []byte
	off   int64
}

// NewTailReader returns a reader delivering the records after afterSeq
// (so afterSeq = 0 streams the whole retained history). A nil fsys
// reads the real filesystem.
func NewTailReader(fsys vfs.FS, dir string, afterSeq uint64) *TailReader {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	return &TailReader{fs: fsys, dir: dir, next: afterSeq + 1}
}

// Next returns the next committed record's seq and raw payload. The
// payload aliases an internal buffer valid until the following call.
func (t *TailReader) Next() (uint64, []byte, error) {
	for {
		for t.off < int64(len(t.buf)) {
			ev, n, err := DecodeRecord(t.buf[t.off:])
			if errors.Is(err, ErrTornRecord) {
				break // incomplete tail: refill below
			}
			if err != nil {
				return 0, nil, fmt.Errorf("%s at offset %d: %w", filepath.Base(t.path), t.off, err)
			}
			off := t.off
			t.off += int64(n)
			if ev.Seq < t.next {
				continue
			}
			if ev.Seq != t.next {
				return 0, nil, fmt.Errorf("%w: %s: seq %d where %d expected",
					ErrCorrupt, filepath.Base(t.path), ev.Seq, t.next)
			}
			t.next++
			return ev.Seq, t.buf[off+recordHeaderSize : off+int64(n)], nil
		}
		more, err := t.refill()
		if err != nil {
			return 0, nil, err
		}
		if !more {
			return 0, nil, io.EOF
		}
	}
}

// refill grows the buffered segment or advances to the one containing
// t.next. Returns false when everything committed has been delivered.
func (t *TailReader) refill() (bool, error) {
	if t.path != "" {
		data, err := t.fs.ReadFile(t.path)
		if err == nil && len(data) > len(t.buf) {
			t.buf = data
			return true, nil
		}
		// Shorter/missing (compacted beneath us) or unchanged: fall
		// through and re-locate against the live directory listing.
	}
	segs, err := listSegments(t.fs, t.dir)
	if err != nil {
		return false, err
	}
	var pick *segment
	for i := range segs {
		if segs[i].start <= t.next {
			pick = &segs[i]
		} else {
			break
		}
	}
	if pick == nil {
		if len(segs) == 0 && t.next == 1 {
			return false, nil // brand-new ledger, nothing committed yet
		}
		return false, ErrCompacted
	}
	if pick.path == t.path {
		return false, nil // same segment, no growth: caught up
	}
	data, err := t.fs.ReadFile(pick.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, ErrCompacted // raced with compaction
		}
		return false, err
	}
	if len(data) < magicSize {
		if pick.path == segs[len(segs)-1].path {
			return false, nil // header write still in flight
		}
		return false, fmt.Errorf("%w: %s: short header", ErrCorrupt, filepath.Base(pick.path))
	}
	if string(data[:magicSize]) != walMagic {
		return false, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(pick.path))
	}
	t.path, t.start, t.buf, t.off = pick.path, pick.start, data, magicSize
	return true, nil
}

// listSegments returns dir's WAL segments sorted by start seq.
func listSegments(fsys vfs.FS, dir string) ([]segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".wal"); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), start: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// RecordPayload reads the raw payload of the record at seq, CRC
// re-verified — the primary's side of the handshake divergence check.
func RecordPayload(fsys vfs.FS, dir string, seq uint64) ([]byte, error) {
	if seq == 0 {
		return nil, fmt.Errorf("ledger: no record at seq 0")
	}
	_, payload, err := NewTailReader(fsys, dir, seq-1).Next()
	if err == io.EOF {
		return nil, fmt.Errorf("ledger: no record at seq %d", seq)
	}
	return payload, err
}

// SnapshotPayload returns the newest on-disk snapshot's seq and raw
// record payload (CRC re-verified), or (0, nil, nil) when none exists.
func SnapshotPayload(fsys vfs.FS, dir string) (uint64, []byte, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, nil, err
	}
	var best uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && seq > best {
			best = seq
		}
	}
	if best == 0 {
		return 0, nil, nil
	}
	path := filepath.Join(dir, snapshotName(best))
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < magicSize || string(data[:magicSize]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	ev, n, err := DecodeRecord(data[magicSize:])
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if int64(magicSize+n) != int64(len(data)) {
		return 0, nil, fmt.Errorf("%w: %s: trailing bytes", ErrCorrupt, filepath.Base(path))
	}
	if ev.Seq != best {
		return 0, nil, fmt.Errorf("%w: %s: snapshot seq %d in record", ErrCorrupt, filepath.Base(path), ev.Seq)
	}
	return best, data[magicSize+recordHeaderSize:], nil
}
