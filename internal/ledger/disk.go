// Reading the on-disk ledger. Every reader of a ledger directory —
// recovery, compaction, Events, TailReader, SnapshotPayload and Diff —
// goes through two helpers, so they all agree on which history the
// directory holds:
//
//   - list is the one directory listing: WAL segments by start seq,
//     snapshots newest first.
//   - TailReader is the one segment scanner, with the one torn-tail
//     rule: bytes that do not hold a whole record at the end of the
//     final segment are the tail — recovery truncates them, a live
//     reader reads them as "no more yet" — and anywhere else they are
//     ErrCorrupt, once a re-read shows the segment did not grow.
//
// Snapshots are chosen by loadSnapshot's rule, for recovery and for
// the snapshot a primary seeds a follower with alike: the newest one
// that loads, with no trailing bytes and the seq its name carries.
package ledger

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"dptrace/internal/vfs"
)

func segmentName(startSeq uint64) string { return fmt.Sprintf("wal-%016d.wal", startSeq) }
func snapshotName(seq uint64) string     { return fmt.Sprintf("snap-%016d.snap", seq) }

// parseSeq extracts the sequence number from a wal-/snap- file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// file is one WAL segment (seq: its first record's) or snapshot (seq:
// the last record it covers) found on disk.
type file struct {
	path string
	seq  uint64
}

// listing is what one read of a ledger directory found.
type listing struct {
	segs  []file // by start seq
	snaps []file // newest first
}

// list reads dir — the package's only directory listing.
func list(fsys vfs.FS, dir string) (listing, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return listing{}, err
	}
	var ls listing
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".wal"); ok {
			ls.segs = append(ls.segs, file{filepath.Join(dir, e.Name()), seq})
		} else if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			ls.snaps = append(ls.snaps, file{filepath.Join(dir, e.Name()), seq})
		}
	}
	slices.SortFunc(ls.segs, func(a, b file) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortFunc(ls.snaps, func(a, b file) int { return cmp.Compare(b.seq, a.seq) })
	return ls, nil
}

// OldestRetained is the smallest seq still readable from dir's WAL
// segments, or head+1 when none is (an empty directory, or one whose
// only segment was rotated in and holds nothing yet). A follower that
// needs an older record must be seeded from a snapshot.
func OldestRetained(fsys vfs.FS, dir string, head uint64) (uint64, error) {
	ls, err := list(fsys, dir)
	if err != nil {
		return 0, err
	}
	if len(ls.segs) > 0 && ls.segs[0].seq <= head {
		return ls.segs[0].seq, nil
	}
	return head + 1, nil
}

// --- the segment scanner ----------------------------------------------

// TailReader is the one reader of WAL records: recovery, Events, Diff
// and the replication primary all read through it. It delivers the
// records from a given position in seq order, re-verifying every CRC,
// resuming across segment rotation, and tolerating concurrent appends
// (a partially-written final record reads as "no more yet"). It takes
// no ledger lock — it works off the on-disk bytes — so over a live
// ledger it also sees records that are staged but not yet committed: a
// caller that must stay within the durable prefix (the replication
// primary) stops at CommittedSeq itself.
//
// Next returns io.EOF when it has delivered every whole record on disk
// (call again after more commits), ErrCompacted when the wanted seq has
// been compacted away, and ErrCorrupt on damage.
type TailReader struct {
	fs       vfs.FS
	dir      string
	next     uint64 // seq the next delivered record must carry
	seg      file   // segment being read (path "" = none yet)
	buf      []byte // its bytes, as last read
	off      int    // offset of its next record in buf; 0 until the header checks out
	seq      uint64 // seq the record at off must carry
	segments int    // segments read, for Recovery.Segments
}

// NewTailReader returns a reader delivering the records after afterSeq
// (so afterSeq = 0 streams the whole history, if none is compacted). A
// nil fsys reads the real filesystem.
func NewTailReader(fsys vfs.FS, dir string, afterSeq uint64) *TailReader {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	return &TailReader{fs: fsys, dir: dir, next: afterSeq + 1}
}

// Next returns the next record's seq and raw payload. The payload
// aliases an internal buffer valid until the following call.
func (t *TailReader) Next() (uint64, []byte, error) {
	ev, rec, err := t.scan()
	if err != nil {
		return 0, nil, err
	}
	return ev.Seq, rec[recordHeaderSize:], nil
}

// scan returns the next record, decoded and as raw bytes (header and
// payload, aliasing buf), or io.EOF once every whole record on disk
// has been delivered.
func (t *TailReader) scan() (Event, []byte, error) {
	for {
		if ev, rec, err := t.decode(); rec != nil || err != nil {
			return ev, rec, err
		}
		more, err := t.advance()
		if err != nil {
			return Event{}, nil, err
		}
		if !more {
			return Event{}, nil, io.EOF
		}
	}
}

// decode returns the next wanted record in buf, or nil bytes when buf
// holds no further whole one.
func (t *TailReader) decode() (Event, []byte, error) {
	if t.seg.path == "" {
		return Event{}, nil, nil
	}
	if t.off == 0 {
		if len(t.buf) < magicSize {
			return Event{}, nil, nil
		}
		if string(t.buf[:magicSize]) != walMagic {
			return Event{}, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(t.seg.path))
		}
		t.off = magicSize
	}
	for t.off < len(t.buf) {
		ev, n, err := DecodeRecord(t.buf[t.off:])
		if errors.Is(err, ErrTornRecord) {
			return Event{}, nil, nil
		}
		if err == nil && ev.Seq != t.seq {
			err = fmt.Errorf("%w: seq %d where %d expected", ErrCorrupt, ev.Seq, t.seq)
		}
		if err != nil {
			return Event{}, nil, fmt.Errorf("%s at offset %d: %w", filepath.Base(t.seg.path), t.off, err)
		}
		rec := t.buf[t.off : t.off+n]
		t.off += n
		t.seq++
		if ev.Seq == t.next {
			t.next++
			return ev, rec, nil
		}
	}
	return Event{}, nil, nil
}

// advance runs when buf holds no further whole record. It lists the
// directory first and re-reads the segment after, so a segment the
// listing shows a successor for is read whole: bytes it still cannot
// decode are then corrupt, and otherwise the successor must start
// where it ended. It reports false when everything on disk has been
// delivered — the final segment's torn bytes, if any, are the tail.
func (t *TailReader) advance() (bool, error) {
	ls, err := list(t.fs, t.dir)
	if err != nil {
		return false, err
	}
	if t.seg.path != "" {
		data, err := t.fs.ReadFile(t.seg.path)
		if err == nil {
			if len(data) > len(t.buf) {
				t.buf = data
				return true, nil
			}
			i := slices.IndexFunc(ls.segs, func(s file) bool { return s.seq > t.seg.seq })
			if i < 0 {
				return false, nil
			}
			name := filepath.Base(t.seg.path)
			switch {
			case t.off == 0:
				return false, fmt.Errorf("%w: %s: short header with later history present", ErrCorrupt, name)
			case t.off < len(t.buf):
				return false, fmt.Errorf("%w: %s: torn record at offset %d with later history present", ErrCorrupt, name, t.off)
			case ls.segs[i].seq != t.seq:
				return false, fmt.Errorf("%w: %s ends before seq %d, %s follows it",
					ErrCorrupt, name, t.seq, filepath.Base(ls.segs[i].path))
			}
			return true, t.load(ls.segs[i])
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return false, err
		}
		// Compacted beneath us: locate t.next afresh.
	}
	i := slices.IndexFunc(ls.segs, func(s file) bool { return s.seq > t.next })
	if i < 0 {
		i = len(ls.segs)
	}
	if i == 0 {
		if len(ls.segs) == 0 && t.next == 1 {
			return false, nil // brand-new ledger, nothing written yet
		}
		return false, ErrCompacted
	}
	return true, t.load(ls.segs[i-1])
}

// load reads seg and positions the reader at its start.
func (t *TailReader) load(seg file) error {
	data, err := t.fs.ReadFile(seg.path)
	if errors.Is(err, fs.ErrNotExist) {
		return ErrCompacted // raced with compaction
	}
	if err != nil {
		return err
	}
	t.seg, t.buf, t.off, t.seq = seg, data, 0, seg.seq
	t.segments++
	return nil
}

// tail reports, after io.EOF, the torn bytes that end the final
// segment — where to cut and how many — or a zero tornTail when it ends
// cleanly. A keep below the header size means even the header is torn.
func (t *TailReader) tail() (tornTail, int) {
	if t.seg.path == "" || (t.off > 0 && t.off == len(t.buf)) {
		return tornTail{}, 0
	}
	return tornTail{t.seg.path, t.off}, len(t.buf) - t.off
}

// Events reads every event in dir's WAL segments in order, read-only,
// calling fn for each (including those a snapshot already covers, when
// their segments still exist). It stops at a torn tail and returns
// ErrCorrupt-wrapped errors on deeper damage — `dpledger inspect`.
func Events(dir string, fn func(Event) error) error {
	ls, err := list(vfs.OS{}, dir)
	if err != nil || len(ls.segs) == 0 {
		return err
	}
	t := NewTailReader(nil, dir, ls.segs[0].seq-1)
	for {
		ev, _, err := t.scan()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// --- snapshots ----------------------------------------------------------

// newestSnapshot loads the newest snapshot in ls that loadSnapshot
// accepts, warning past the others; seq 0 means none did.
func newestSnapshot(fsys vfs.FS, ls listing, logf func(string, ...any)) (uint64, *State, []byte) {
	for _, snap := range ls.snaps {
		st, payload, err := loadSnapshot(fsys, snap)
		if err != nil {
			logf("ledger: skipping unreadable snapshot %s: %v", filepath.Base(snap.path), err)
			continue
		}
		return snap.seq, st, payload
	}
	return 0, nil, nil
}

// loadSnapshot reads and verifies one snapshot file: one record after
// the magic, nothing trailing, at the seq its name carries. It returns
// the folded state and the record's raw payload.
func loadSnapshot(fsys vfs.FS, snap file) (*State, []byte, error) {
	data, err := fsys.ReadFile(snap.path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < magicSize || string(data[:magicSize]) != snapMagic {
		return nil, nil, errors.New("bad magic")
	}
	ev, n, err := DecodeRecord(data[magicSize:])
	if err != nil {
		return nil, nil, err
	}
	if magicSize+n != len(data) {
		return nil, nil, errors.New("trailing bytes after snapshot record")
	}
	if ev.Seq != snap.seq {
		return nil, nil, fmt.Errorf("%w: snapshot record at seq %d", ErrCorrupt, ev.Seq)
	}
	st, err := decodeSnapshotState(&ev)
	if err != nil {
		return nil, nil, err
	}
	return st, data[magicSize+recordHeaderSize:], nil
}

// SnapshotPayload returns the seq and raw record payload of the
// snapshot recovery would load from dir — the newest loadable one — and
// the CRC of the record at that seq it carries (State.LastCRC), or
// zeros when none loads.
func SnapshotPayload(fsys vfs.FS, dir string) (seq uint64, lastCRC uint32, payload []byte, err error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	ls, err := list(fsys, dir)
	if err != nil {
		return 0, 0, nil, err
	}
	seq, st, payload := newestSnapshot(fsys, ls, func(string, ...any) {})
	if st == nil {
		return 0, 0, nil, nil
	}
	return seq, st.LastCRC, payload, nil
}
