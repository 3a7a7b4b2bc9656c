// Replication seam: the pieces internal/repl builds on.
//
//   - A commit hook fires (under the ledger lock, after the fsync that
//     covers it) for every committed record with its raw payload, in
//     seq order, so a primary can fan events out without re-reading
//     the disk — and never ahead of its own durable prefix.
//   - TailReader (disk.go) re-reads records from any seq, re-verifying
//     every CRC — the catch-up path for followers that are behind the
//     in-memory window, and the engine behind dpledger diff. It is the
//     scanner recovery and Events read through too, under the same
//     listing (list) and the same torn-tail rule: torn bytes ending the
//     final segment are the tail ("no more yet" to a live reader,
//     truncated by recovery), torn bytes anywhere else are ErrCorrupt.
//     OldestRetained and SnapshotPayload tell a primary whether a
//     follower can stream from the WAL or must first take the snapshot
//     recovery would load.
//   - StageReplica is the follower's one write path: it writes the
//     primary's records into the follower's WAL verbatim (byte-identical
//     segments, same refusal boundary on replay), and the follower makes
//     them durable with Commit. InstallSnapshot seeds an empty follower
//     that is behind the primary's compaction horizon.
//   - A durable fencing epoch, stored next to the WAL, makes a deposed
//     primary's late appends rejectable after a promotion.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"slices"
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
// bytes, in seq order, under the ledger lock, and only once an fsync
// has covered the record (Commit, or any implicit sync) — fn must not
// block and must not call back into the ledger. Install before
// concurrent appends begin.
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

// LastCRC returns the CRC of the newest staged record's payload, or the
// one the installed or recovered snapshot carries when none followed it
// (State.LastCRC).
func (l *Ledger) LastCRC() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.LastCRC
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

// StageReplica stages a replicated record verbatim: payload must be
// the primary's raw record payload for exactly the next seq. The bytes
// written are identical to the primary's, so the two WALs replay to
// the same refusal boundary and compare clean under dpledger diff. It
// returns the decoded event. A follower stages a burst of frames and
// Commits the last seq once before acking it.
func (l *Ledger) StageReplica(payload []byte) (Event, error) {
	buf, ev, err := wrapPayload(nil, payload)
	if err != nil {
		return Event{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusingLocked(); err != nil {
		return Event{}, err
	}
	if ev.Seq != l.state.Seq+1 {
		return Event{}, fmt.Errorf("ledger: replica append seq %d, want %d", ev.Seq, l.state.Seq+1)
	}
	if err := l.stageRecordLocked(&ev, buf); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// wrapPayload appends a replicated payload to dst as a whole record —
// header, then payload: the bytes a replica writes — and decodes the
// event it holds.
func wrapPayload(dst, payload []byte) ([]byte, Event, error) {
	var ev Event
	if len(payload) == 0 || len(payload) > maxRecordSize {
		return dst, ev, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, len(payload))
	}
	if err := decodePayload(payload, &ev); err != nil {
		return dst, ev, err
	}
	dst = slices.Grow(dst, recordHeaderSize+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...), ev, nil
}

// InstallSnapshot seeds an EMPTY follower ledger from a primary
// snapshot record payload: the snapshot file lands byte-identical to
// the primary's, the state swaps to the checkpoint, and the WAL
// rotates to continue at the checkpoint seq + 1. A ledger that has
// already applied events refuses — mixing histories silently is how
// budgets drift; re-seed from a fresh directory instead.
func (l *Ledger) InstallSnapshot(payload []byte) error {
	buf, ev, err := wrapPayload([]byte(snapMagic), payload)
	if err != nil {
		return err
	}
	if ev.Seq == 0 {
		return fmt.Errorf("%w: snapshot at seq 0", ErrCorrupt)
	}
	st, err := decodeSnapshotState(&ev)
	if err != nil {
		return fmt.Errorf("%w: snapshot state: %v", ErrCorrupt, err)
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
