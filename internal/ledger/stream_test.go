package ledger

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drain reads every available record, returning seqs and payloads.
func drain(t *testing.T, tr *TailReader) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	for {
		seq, p, err := tr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("TailReader.Next: %v", err)
		}
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

// replicaAppend stages a replicated payload and commits it, as a
// follower does for a burst of one.
func replicaAppend(l *Ledger, seq uint64, payload []byte) error {
	if _, _, err := l.StageReplica(payload); err != nil {
		return err
	}
	return l.Commit(seq)
}

func TestTailReaderStreamsAndResumes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, chargeEvents(9)) // seqs 1..10

	tr := NewTailReader(nil, dir, 0)
	seqs, _ := drain(t, tr)
	if len(seqs) != 10 || seqs[0] != 1 || seqs[9] != 10 {
		t.Fatalf("full stream seqs = %v", seqs)
	}

	// New appends become visible to the same reader (live tail).
	appendAll(t, l, []Event{{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}})
	seqs, _ = drain(t, tr)
	if len(seqs) != 1 || seqs[0] != 11 {
		t.Fatalf("live tail seqs = %v, want [11]", seqs)
	}

	// Resume from the middle.
	mid := NewTailReader(nil, dir, 6)
	seqs, _ = drain(t, mid)
	if len(seqs) != 5 || seqs[0] != 7 {
		t.Fatalf("resume seqs = %v, want 7..11", seqs)
	}
}

func TestTailReaderAcrossRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr := NewTailReader(nil, dir, 0)
	appendAll(t, l, chargeEvents(2)) // seqs 1..3
	seqs, _ := drain(t, tr)
	if len(seqs) != 3 {
		t.Fatalf("pre-rotation seqs = %v", seqs)
	}
	// Crossing SnapshotEvery (at seq 4) snapshots, rotates, and
	// compacts the old segment — including seq 4's own record. A
	// reader that had only reached seq 3 therefore finds its next
	// record gone and must fall back to a snapshot.
	appendAll(t, l, chargeEvents(3)[1:]) // seqs 4..6, snapshot at 4
	if _, _, err := tr.Next(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("reader behind compaction err = %v, want ErrCompacted", err)
	}

	// A reader starting at the snapshot boundary streams the retained
	// tail from the rotated segment.
	fresh := NewTailReader(nil, dir, 4)
	seqs, _ = drain(t, fresh)
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 6 {
		t.Fatalf("post-rotation seqs = %v, want 5..6", seqs)
	}

	// A fresh reader wanting the full compacted-away history also gets
	// ErrCompacted.
	old := NewTailReader(nil, dir, 0)
	if _, _, err := old.Next(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted read err = %v, want ErrCompacted", err)
	}
}

func TestTailReaderDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(3))
	l.Close()

	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			path := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr := NewTailReader(nil, dir, 0)
	var lastErr error
	for {
		_, _, err := tr.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrCorrupt) {
		t.Fatalf("corrupt segment err = %v, want ErrCorrupt", lastErr)
	}
}

func TestCommitHookFiresInOrderWithPayload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var seqs []uint64
	var crcs []uint32
	l.SetCommitHook(func(seq uint64, payload []byte) {
		seqs = append(seqs, seq)
		crcs = append(crcs, Checksum(payload))
	})
	appendAll(t, l, chargeEvents(4))
	if len(seqs) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("hook seqs = %v, want 1..5", seqs)
		}
	}
	// Hook payloads must be the bytes on disk.
	tr := NewTailReader(nil, dir, 0)
	_, payloads := drain(t, tr)
	for i, p := range payloads {
		if Checksum(p) != crcs[i] {
			t.Fatalf("hook payload %d differs from disk", i)
		}
	}
}

func TestReplicaAppendByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(Options{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	appendAll(t, a, chargeEvents(6))
	tr := NewTailReader(nil, dirA, 0)
	for {
		seq, p, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := replicaAppend(b, seq, p); err != nil {
			t.Fatalf("replicaAppend(%d): %v", seq, err)
		}
	}
	if a.CommittedSeq() != b.CommittedSeq() {
		t.Fatalf("seq drift: %d vs %d", a.CommittedSeq(), b.CommittedSeq())
	}
	// The replica's WAL must hold the primary's exact bytes.
	ta, tb := NewTailReader(nil, dirA, 0), NewTailReader(nil, dirB, 0)
	_, pa := drain(t, ta)
	_, pb := drain(t, tb)
	if len(pa) != len(pb) {
		t.Fatalf("record counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if string(pa[i]) != string(pb[i]) {
			t.Fatalf("record %d differs between primary and replica", i)
		}
	}
	// Out-of-order and gapped appends are refused.
	_, p, _ := NewTailReader(nil, dirA, 2).Next()
	if err := replicaAppend(b, 3, p); err == nil {
		t.Fatal("duplicate replica append accepted")
	}
}

func TestInstallSnapshotSeedsEmptyLedgerOnly(t *testing.T) {
	dirA := t.TempDir()
	a, err := Open(Options{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, a, chargeEvents(9))
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	a.Close()

	seq, payload, err := SnapshotPayload(nil, dirA)
	if err != nil || seq != 10 {
		t.Fatalf("SnapshotPayload = seq %d, err %v", seq, err)
	}

	dirB := t.TempDir()
	b, err := Open(Options{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallSnapshot(payload); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if b.CommittedSeq() != 10 {
		t.Fatalf("seq after install = %d, want 10", b.CommittedSeq())
	}
	ds := b.State().Datasets["d"]
	if ds == nil || ds.Spent["alice"] == 0 {
		t.Fatal("snapshot state not installed")
	}
	// Appends continue at seq 11 and survive reopen.
	if err := b.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b2, err := Open(Options{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Recovery().Err != nil {
		t.Fatalf("reopen after install: %v", b2.Recovery().Err)
	}
	if b2.CommittedSeq() != 11 {
		t.Fatalf("reopened seq = %d, want 11", b2.CommittedSeq())
	}

	// A ledger with history refuses installation.
	if err := b2.InstallSnapshot(payload); err == nil {
		t.Fatal("InstallSnapshot onto non-empty ledger accepted")
	}
}

func TestEpochPersists(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", l.Epoch())
	}
	if err := l.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := l.SetEpoch(2); err == nil {
		t.Fatal("epoch rollback accepted")
	}
	if err := l.SetEpoch(3); err != nil {
		t.Fatalf("idempotent SetEpoch: %v", err)
	}
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Epoch() != 3 {
		t.Fatalf("epoch after reopen = %d, want 3", l2.Epoch())
	}
}

func TestRecordPayloadDivergenceProbe(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, chargeEvents(4))
	p, err := RecordPayload(nil, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := decodePayload(p, &ev); err != nil || ev.Seq != 3 {
		t.Fatalf("RecordPayload(3) decoded seq %d, err %v", ev.Seq, err)
	}
	if _, err := RecordPayload(nil, dir, 99); err == nil {
		t.Fatal("RecordPayload past the head succeeded")
	}
}
