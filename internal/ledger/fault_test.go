package ledger

import (
	"errors"
	"strings"
	"syscall"
	"testing"

	"dptrace/internal/vfs"
)

// This file is the fault-injection suite for every ledger I/O site:
// append writes, fsync, snapshot writes, renames, segment rotation,
// and directory syncs. The invariant under every injected fault: an
// Append that returns an error has NOT acked the charge (callers
// refuse it), and any record that slips onto disk anyway (a write that
// landed before its sync failed) only ever makes recovery over-count
// spend — the conservative direction.

// openFault opens a fresh ledger on a FaultFS in a temp dir. Rules are
// injected by the caller afterwards, so Open's own I/O is not in the
// blast radius unless a test wants it to be.
func openFault(t *testing.T, opts Options) (*Ledger, *vfs.FaultFS, string) {
	t.Helper()
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS{})
	opts.Dir = dir
	opts.FS = fsys
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, fsys, dir
}

func charge() Event {
	return Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}
}

func seedDataset(t *testing.T, l *Ledger) {
	t.Helper()
	if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1}); err != nil {
		t.Fatalf("seed dataset: %v", err)
	}
}

func TestAppendWriteFaultRefusesAndDegrades(t *testing.T) {
	l, fsys, _ := openFault(t, Options{})
	seedDataset(t, l)
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO})

	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("faulted append = %v, want ErrDegraded", err)
	}
	if l.State().Datasets["d"].TotalSpent != 0 {
		t.Fatalf("refused charge leaked into state: spent %v", l.State().Datasets["d"].TotalSpent)
	}
	if l.Degraded() == nil || l.Refusing() == nil {
		t.Fatal("ledger should report degraded")
	}

	// Degraded appends must refuse WITHOUT touching the disk — a full
	// disk must not error-loop.
	before := fsys.Counts()
	for i := 0; i < 5; i++ {
		if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
			t.Fatalf("append %d = %v, want ErrDegraded", i, err)
		}
	}
	after := fsys.Counts()
	for op, n := range after {
		if n != before[op] {
			t.Fatalf("degraded append touched the disk: %s %d -> %d", op, before[op], n)
		}
	}
}

func TestFsyncFaultPoisonsSegment(t *testing.T) {
	l, fsys, _ := openFault(t, Options{})
	seedDataset(t, l)
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO})

	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append with failed fsync = %v, want ErrDegraded", err)
	}
	// fsyncgate: the ledger must NOT retry the sync and assume
	// durability. No further sync (or any other) ops after the poison.
	syncs := fsys.Counts()[vfs.OpSync]
	if err := l.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync on degraded ledger = %v, want ErrDegraded", err)
	}
	if got := fsys.Counts()[vfs.OpSync]; got != syncs {
		t.Fatalf("degraded ledger retried fsync: %d -> %d", syncs, got)
	}
}

func TestFsyncFaultOvercountsConservatively(t *testing.T) {
	l, fsys, dir := openFault(t, Options{})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge(), charge()}) // acked: 0.2
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO, Sticky: true})
	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append = %v, want ErrDegraded", err)
	}
	ackedSpend := 0.2

	// The refused record's write DID land; replay sees it and
	// over-counts — recovered spend must be >= every acked spend.
	st, rec, err := Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay: %v (rec %+v)", err, rec)
	}
	if got := st.Datasets["d"].TotalSpent; got < ackedSpend-1e-9 {
		t.Fatalf("recovered spend %v < acked %v: an acked charge was lost", got, ackedSpend)
	}
}

func TestStickyENOSPCRefusesWithoutErrorLoop(t *testing.T) {
	l, fsys, _ := openFault(t, Options{})
	seedDataset(t, l)
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.ENOSPC, Sticky: true})

	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ENOSPC append = %v, want ErrDegraded", err)
	}
	writes := fsys.Counts()[vfs.OpWrite]
	for i := 0; i < 100; i++ {
		if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
			t.Fatalf("append %d = %v, want ErrDegraded", i, err)
		}
	}
	if got := fsys.Counts()[vfs.OpWrite]; got != writes {
		t.Fatalf("full-disk error loop: %d extra writes attempted", got-writes)
	}
}

func TestSnapshotWriteFaultIsBestEffort(t *testing.T) {
	l, fsys, _ := openFault(t, Options{SnapshotEvery: -1})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge(), charge()})
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".tmp", Err: syscall.EIO})

	if err := l.Snapshot(); err == nil {
		t.Fatal("snapshot should report the tmp-write fault")
	}
	// The WAL still has everything: the ledger keeps appending and the
	// next snapshot succeeds.
	if l.Degraded() != nil {
		t.Fatalf("snapshot-file fault degraded the ledger: %v", l.Degraded())
	}
	if err := l.Append(charge()); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("retried snapshot: %v", err)
	}
}

func TestSnapshotRenameFaultIsBestEffort(t *testing.T) {
	l, fsys, _ := openFault(t, Options{SnapshotEvery: -1})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge()})
	fsys.Inject(vfs.Rule{Op: vfs.OpRename, Path: ".tmp", Err: syscall.EIO})

	if err := l.Snapshot(); err == nil {
		t.Fatal("snapshot should report the rename fault")
	}
	if l.Degraded() != nil {
		t.Fatalf("rename fault degraded the ledger: %v", l.Degraded())
	}
	if err := l.Append(charge()); err != nil {
		t.Fatalf("append after failed snapshot rename: %v", err)
	}
}

func TestRotateFaultAfterSnapshotDegrades(t *testing.T) {
	// Regression: a failed segment rotation inside snapshotLocked used
	// to leave l.active nil, so the NEXT Append dereferenced a nil file
	// and panicked. It must instead degrade and refuse cleanly.
	l, fsys, _ := openFault(t, Options{SnapshotEvery: -1})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge()})
	fsys.Inject(vfs.Rule{Op: vfs.OpOpen, Path: "wal-", Err: syscall.EIO})

	if err := l.Snapshot(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("snapshot with failed rotation = %v, want ErrDegraded", err)
	}
	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after failed rotation = %v, want ErrDegraded (not a panic)", err)
	}
}

func TestDirSyncFaultIsIgnored(t *testing.T) {
	l, fsys, _ := openFault(t, Options{SnapshotEvery: -1})
	fsys.Inject(vfs.Rule{Op: vfs.OpSyncDir, Err: syscall.EINVAL, Sticky: true})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge(), charge()})
	if err := l.Snapshot(); err != nil {
		t.Fatalf("snapshot with failing dir syncs: %v", err)
	}
	if l.Degraded() != nil {
		t.Fatalf("dir-sync fault degraded the ledger: %v", l.Degraded())
	}
}

func TestShortWriteTornTailIsTruncatedOnRecovery(t *testing.T) {
	l, fsys, dir := openFault(t, Options{})
	seedDataset(t, l)
	appendAll(t, l, []Event{charge(), charge()})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Tear the next record 10 bytes in — the on-disk shape of ENOSPC or
	// power loss mid-append.
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Short: 10, Err: syscall.ENOSPC})
	if err := l.Append(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn append = %v, want ErrDegraded", err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Err != nil {
		t.Fatalf("recovery after torn write failed: %v", rec.Err)
	}
	if rec.TornBytes != 10 {
		t.Fatalf("TornBytes = %d, want 10", rec.TornBytes)
	}
	if got := l2.State().Datasets["d"].TotalSpent; got != 0.2 {
		t.Fatalf("recovered spend %v, want the two acked charges (0.2)", got)
	}
	if err := l2.Append(charge()); err != nil {
		t.Fatalf("append on recovered ledger: %v", err)
	}
}

func TestDegradedErrorMentionsCause(t *testing.T) {
	l, fsys, _ := openFault(t, Options{})
	seedDataset(t, l)
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO})
	err := l.Append(charge())
	if err == nil || !strings.Contains(err.Error(), "input/output error") {
		t.Fatalf("degraded error should carry the I/O cause, got %v", err)
	}
}
