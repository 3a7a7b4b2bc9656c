package ledger

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestRecoveryAtEveryTruncationOffset is the crash harness the torn-
// tail contract is defined by: append N events, then for EVERY byte
// offset inside the final record, truncate the WAL there and recover.
// Recovery must always succeed (a torn tail is a legitimate crash
// shape), yield exactly N or N−1 events, and never a corrupt state.
func TestRecoveryAtEveryTruncationOffset(t *testing.T) {
	const n = 8
	master := t.TempDir()
	l, err := Open(Options{Dir: master, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(n)) // 1 dataset_created + n charges
	l.Close()

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// Locate the final record's start: walk the records once.
	lastStart := magicSize
	off := magicSize
	for off < len(full) {
		_, sz, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatalf("master WAL does not decode at %d: %v", off, err)
		}
		lastStart = off
		off += sz
	}
	total := n + 1 // dataset_created + n charges

	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		rec := l2.Recovery()
		if rec.Err != nil {
			t.Fatalf("cut=%d: recovery refused a torn tail: %v", cut, rec.Err)
		}
		st := l2.State()
		// Everything before the final record must survive; the final
		// record itself must be dropped whole (cut < len(full) always
		// tears it).
		if got, want := st.Seq, uint64(total-1); got != want {
			t.Fatalf("cut=%d: recovered seq %d, want %d", cut, got, want)
		}
		ds := st.Datasets["d"]
		if ds == nil {
			t.Fatalf("cut=%d: dataset lost", cut)
		}
		want := 0.0
		for i := 0; i < n-1; i++ {
			want += 0.1
		}
		if ds.Spent["alice"] != want {
			t.Fatalf("cut=%d: alice spent %v, want %v", cut, ds.Spent["alice"], want)
		}
		// The ledger must keep working after truncation: the next
		// append takes the torn record's sequence number.
		if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		if st.Seq != uint64(total) {
			t.Fatalf("cut=%d: seq %d after re-append, want %d", cut, st.Seq, total)
		}
		l2.Close()

		// And the re-healed ledger must recover cleanly once more.
		l3, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if rec := l3.Recovery(); rec.Err != nil || rec.TornBytes != 0 {
			t.Fatalf("cut=%d: second recovery not clean: err=%v torn=%d", cut, rec.Err, rec.TornBytes)
		}
		l3.Close()
	}

	// The untruncated file recovers all N events.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), full, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.State().Seq; got != uint64(total) {
		t.Fatalf("full file recovered seq %d, want %d", got, total)
	}
}

// TestTruncationInsideHeaderOfFreshSegment covers the narrowest tear:
// the crash hit while the segment header itself was being written.
func TestTruncationInsideHeaderOfFreshSegment(t *testing.T) {
	for cut := 0; cut < magicSize; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(walMagic)[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if rec := l.Recovery(); rec.Err != nil {
			t.Fatalf("cut=%d: torn header treated as corrupt: %v", cut, rec.Err)
		}
		if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 1, PerAnalyst: 1}); err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		l.Close()
	}
}

// TestTornRecordMidHistoryIsCorrupt: a truncation-shaped gap is only
// forgivable at the very end of history. The same gap with later
// segments present means durably-written records vanished — fail
// closed.
func TestTornRecordMidHistoryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// Two segments: force rotation via an explicit snapshot, then
	// delete the snapshot so recovery must rely on both segments.
	l, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(4))
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []Event{{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}})
	l.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, s := range snaps {
		os.Remove(s)
	}
	// Compaction removed the pre-snapshot segment, so recreate a torn
	// first segment: its name says it starts at seq 1, but it holds
	// only half a record.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want 1 remaining segment, got %v", segs)
	}
	buf, err := EncodeRecord([]byte(walMagic), &Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf[:len(buf)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); !errors.Is(rec.Err, ErrCorrupt) {
		t.Fatalf("mid-history tear recovered as %v, want ErrCorrupt", rec.Err)
	}
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append: %v, want ErrFrozen", err)
	}
}

// readAll runs the three readers of a ledger directory — Replay, Events
// and a TailReader after `after` — and returns what each delivered and
// the error it stopped with (nil for the reader's clean end).
func readAll(dir string, after uint64) (st *State, rec Recovery, replayErr error, events []uint64, eventsErr error, tail []uint64, tailErr error) {
	st, rec, replayErr = Replay(dir, 0)
	eventsErr = Events(dir, func(ev Event) error {
		events = append(events, ev.Seq)
		return nil
	})
	tr := NewTailReader(nil, dir, after)
	for {
		seq, _, err := tr.Next()
		if err != nil {
			if err != io.EOF {
				tailErr = err
			}
			break
		}
		tail = append(tail, seq)
	}
	return
}

// TestReadersAgreeOnDamagedHistory: recovery, Events, a TailReader and
// SnapshotPayload read a directory through one listing, one scanner and
// one snapshot rule, so they agree on which history a damaged directory
// holds.
func TestReadersAgreeOnDamagedHistory(t *testing.T) {
	t.Run("torn non-final segment", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, chargeEvents(5)) // seqs 1..6 in the first segment
		l.Close()
		next, err := EncodeRecord(nil, &Event{Seq: 7, Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		// Half of seq 7 ends the first segment, and a later segment
		// holds seq 7 whole: the tear is mid-history.
		first := filepath.Join(dir, segmentName(1))
		data, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(first, append(data, next[:len(next)/2]...), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(7)), append([]byte(walMagic), next...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, replayErr, _, eventsErr, tail, tailErr := readAll(dir, 0)
		for name, err := range map[string]error{"Replay": replayErr, "Events": eventsErr, "TailReader": tailErr} {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %v, want ErrCorrupt", name, err)
			}
		}
		if len(tail) != 6 {
			t.Errorf("TailReader delivered %v before refusing", tail)
		}
	})

	t.Run("newest snapshot unreadable", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, chargeEvents(2)) // seqs 1..3
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, chargeEvents(3)[1:]) // seqs 4..6
		// Keep what the second snapshot compacts away: snap-3 and the
		// segment holding seqs 4..6.
		kept := map[string][]byte{}
		for _, name := range []string{snapshotName(3), segmentName(4)} {
			if kept[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		for name, data := range kept {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		newest := filepath.Join(dir, snapshotName(6))
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, rec, err := Replay(dir, 0)
		if err != nil || rec.SnapshotSeq != 3 || st.Seq != 6 {
			t.Fatalf("Replay: snapshot %d, seq %d, err %v; want snapshot 3, seq 6", rec.SnapshotSeq, st.Seq, err)
		}
		seq, _, payload, err := SnapshotPayload(nil, dir)
		if err != nil || seq != rec.SnapshotSeq {
			t.Fatalf("SnapshotPayload: seq %d, err %v; recovery loaded snapshot %d", seq, err, rec.SnapshotSeq)
		}
		var ev Event
		if err := decodePayload(payload, &ev); err != nil || ev.Seq != seq {
			t.Fatalf("SnapshotPayload's payload: seq %d, err %v", ev.Seq, err)
		}
	})

	t.Run("compacted with a torn final record", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, chargeEvents(9)) // seqs 1..10; snapshots at 4 and 8
		l.Close()
		last := filepath.Join(dir, segmentName(9))
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil { // tear seq 10
			t.Fatal(err)
		}
		st, rec, replayErr, events, eventsErr, tail, tailErr := readAll(dir, 8)
		if replayErr != nil || eventsErr != nil || tailErr != nil {
			t.Fatalf("errors: Replay %v, Events %v, TailReader %v", replayErr, eventsErr, tailErr)
		}
		if rec.SnapshotSeq != 8 || rec.TornBytes == 0 {
			t.Fatalf("Replay: snapshot %d, %d torn bytes; want snapshot 8 and a torn tail", rec.SnapshotSeq, rec.TornBytes)
		}
		want := []uint64{9}
		if !slices.Equal(events, want) || !slices.Equal(tail, want) || st.Seq != want[len(want)-1] {
			t.Fatalf("Events %v, TailReader %v, Replay through seq %d; want %v", events, tail, st.Seq, want)
		}
	})
}
