package repl

// Fault injection on the FOLLOWER's WAL: the replication contract says
// a follower never acks a seq that is not durable on its own disk, a
// sick follower fails closed (stops acking, primary lag grows), and a
// crashed follower resyncs cleanly from its durable position. These
// tests script vfs.FaultFS faults under the ledger's one durability
// mode (every commit fsyncs) and check each of those promises.

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/vfs"
)

// faultHarness is a primary plus one follower whose ledger runs on a
// FaultFS, caught up through the seed events.
type faultHarness struct {
	pl     *ledger.Ledger
	addr   string
	fsys   *vfs.FaultFS
	fl     *ledger.Ledger
	f      *Follower
	dirA   string
	dirB   string
	seeded uint64
}

func newFaultHarness(t *testing.T, charges int) *faultHarness {
	t.Helper()
	h := &faultHarness{dirA: t.TempDir(), dirB: t.TempDir()}
	h.pl = openLedger(t, h.dirA, nil, -1)
	seedDataset(t, h.pl)
	for i := 0; i < charges; i++ {
		if err := h.pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	h.seeded = h.pl.CommittedSeq()
	_, h.addr = startPrimary(t, h.pl, PrimaryConfig{Name: "p"})

	h.fsys = vfs.NewFaultFS(nil)
	h.fl = openLedger(t, h.dirB, h.fsys, -1)
	h.f = startFollower(t, h.fl, FollowerConfig{Primary: h.addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return h.f.Applied() == h.seeded }, "seed catch-up")
	return h
}

func TestFollowerEIOFailsClosed(t *testing.T) {
	h := newFaultHarness(t, 3)
	// The next WAL write returns EIO, sticky: the disk is gone.
	h.fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO, Sticky: true})

	if err := h.pl.Append(charge("bob", 0.5)); err != nil {
		t.Fatal(err)
	}
	// The follower must go fatal (degraded ledger), never acking the
	// event it could not persist.
	waitUntil(t, 5*time.Second, func() bool { return h.f.Err() != nil }, "follower fatal")
	if !errors.Is(h.f.Err(), ledger.ErrDegraded) {
		t.Fatalf("follower err = %v, want ErrDegraded", h.f.Err())
	}
	if h.f.Applied() != h.seeded {
		t.Fatalf("applied advanced to %d past a failed write (seeded %d)", h.f.Applied(), h.seeded)
	}
	if h.fl.CommittedSeq() != h.seeded {
		t.Fatalf("follower ledger at %d, want %d", h.fl.CommittedSeq(), h.seeded)
	}
	// The durable common prefix is still byte-identical: the primary
	// simply has un-replicated tail events.
	r, err := ledger.Diff(h.dirA, h.dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.OnlyA != 1 {
		t.Fatalf("diff after EIO: clean=%v onlyA=%d", r.Clean(), r.OnlyA)
	}
}

// "Never" is the follower's ack, not a durability mode: a seq whose
// fsync failed is never acked.
func TestFollowerENOSPCOnFsyncNeverAcksUndurable(t *testing.T) {
	h := newFaultHarness(t, 3)
	// The write lands but the fsync fails with ENOSPC, sticky. Under
	// fsyncgate rules the ledger must degrade — the bytes may or may
	// not be stable, so the seq must never be acked.
	h.fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.ENOSPC, Sticky: true})

	if err := h.pl.Append(charge("bob", 0.5)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.f.Err() != nil }, "follower fatal")
	if !errors.Is(h.f.Err(), ledger.ErrDegraded) {
		t.Fatalf("follower err = %v, want ErrDegraded", h.f.Err())
	}
	if h.f.Applied() != h.seeded {
		t.Fatalf("acked seq %d whose fsync failed (seeded %d)", h.f.Applied(), h.seeded)
	}
}

func TestFollowerTornWriteCrashAndResync(t *testing.T) {
	h := newFaultHarness(t, 3)
	// The record write tears 5 bytes in, then the machine loses power:
	// the torn bytes were never synced, so the crash truncates them.
	h.fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: syscall.EIO, Short: 5})

	if err := h.pl.Append(charge("bob", 0.5)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.f.Err() != nil }, "follower fatal")
	if h.f.Applied() != h.seeded {
		t.Fatalf("acked a torn seq: applied %d, seeded %d", h.f.Applied(), h.seeded)
	}
	h.f.Close()
	h.fl.Close()
	if err := h.fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": reopen on the surviving bytes with a healthy disk.
	// Recovery sees a clean tail (the torn bytes are gone) and the
	// follower resyncs from its durable position.
	fl2 := openLedger(t, h.dirB, nil, -1)
	if fl2.Recovery().Err != nil {
		t.Fatalf("recovery after crash: %v", fl2.Recovery().Err)
	}
	if fl2.CommittedSeq() != h.seeded {
		t.Fatalf("recovered seq %d, want %d", fl2.CommittedSeq(), h.seeded)
	}
	f2 := startFollower(t, fl2, FollowerConfig{Primary: h.addr, Name: "f"})
	want := h.pl.CommittedSeq()
	waitUntil(t, 5*time.Second, func() bool { return f2.Applied() == want }, "resync")
	assertDiffClean(t, h.dirA, h.dirB)
}

func TestFollowerCrashBetweenReceiveAndFsync(t *testing.T) {
	h := newFaultHarness(t, 3)
	// The record is fully written, then the crash hits DURING the
	// fsync — the exact window between receiving an event and making
	// it durable. The ack for that seq must never have been sent, and
	// the written-but-unsynced bytes must not survive the reboot.
	h.fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Crash: true})

	if err := h.pl.Append(charge("bob", 0.5)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.f.Err() != nil }, "follower fatal")
	if h.f.Applied() != h.seeded {
		t.Fatalf("acked an unsynced seq: applied %d, seeded %d", h.f.Applied(), h.seeded)
	}
	h.f.Close()
	h.fl.Close()
	if err := h.fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	fl2 := openLedger(t, h.dirB, nil, -1)
	if fl2.Recovery().Err != nil {
		t.Fatalf("recovery after crash: %v", fl2.Recovery().Err)
	}
	// The unsynced record is gone: the follower is exactly at its last
	// acked position, so the resync re-delivers the lost event instead
	// of double-applying it.
	if fl2.CommittedSeq() != h.seeded {
		t.Fatalf("recovered seq %d, want %d (unsynced record must not survive)", fl2.CommittedSeq(), h.seeded)
	}
	f2 := startFollower(t, fl2, FollowerConfig{Primary: h.addr, Name: "f"})
	want := h.pl.CommittedSeq()
	waitUntil(t, 5*time.Second, func() bool { return f2.Applied() == want }, "resync")
	assertDiffClean(t, h.dirA, h.dirB)
}

// TestPrimaryKilledBetweenStageAndCommit: a request's records are
// staged on the primary — written to its WAL, folded into its state —
// and the machine dies before the commit's fsync. Replicas never run
// ahead of the primary's durable prefix: the follower has none of the
// staged records, neither live nor after a resubscribe that re-reads
// the primary's segment from disk, and once the crash has dropped the
// unsynced bytes the two directories are the same prefix.
func TestPrimaryKilledBetweenStageAndCommit(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	fsys := vfs.NewFaultFS(nil)
	pl := openLedger(t, dirA, fsys, -1)
	seedDataset(t, pl)
	for i := 0; i < 2; i++ {
		if err := pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	committed := pl.CommittedSeq()
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p", MinSync: 1, AckTimeout: 200 * time.Millisecond})
	fl := openLedger(t, dirB, nil, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 1 && f.Applied() == committed }, "catch-up")

	// One request: charge, audit, reply — staged, not committed.
	var last uint64
	for _, ev := range []ledger.Event{
		charge("bob", 0.5),
		{Type: ledger.EventAudit, Dataset: "d", Analyst: "bob", Query: "count", Epsilon: 0.5, Charged: 0.5, Outcome: "ok"},
		{Type: ledger.EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "bob", Key: "k", Status: 200, Body: []byte("{}"), Expires: 1},
	} {
		if err := p.SyncGate(); err != nil {
			t.Fatal(err)
		}
		seq, err := pl.Stage(ev)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	// A follower resubscribing now, exactly caught up, makes the primary
	// probe its own segment on disk for the next record — and the staged
	// bytes are there. It must stop at the committed prefix all the same.
	f.Close()
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 0 }, "first session gone")
	f = startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 1 }, "resubscribe")
	time.Sleep(50 * time.Millisecond) // anything wrongly streamed would have landed by now
	if f.Applied() != committed || fl.StagedSeq() != committed {
		t.Fatalf("follower at %d (staged %d) ran ahead of the primary's durable prefix %d",
			f.Applied(), fl.StagedSeq(), committed)
	}

	// The commit's fsync is where the power goes.
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Crash: true})
	if err := pl.Commit(last); err == nil {
		t.Fatal("commit survived a crashed fsync")
	}
	if pl.CommittedSeq() != committed {
		t.Fatalf("primary committed seq moved to %d across a failed commit", pl.CommittedSeq())
	}
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	f.Close()
	if f.Applied() != committed {
		t.Fatalf("follower applied %d, want the committed prefix %d", f.Applied(), committed)
	}
	st, _, err := ledger.Replay(dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != committed || len(st.Idem) != 0 || st.Datasets["d"].Spent["bob"] != 0 {
		t.Fatalf("follower holds uncommitted records: seq %d, %d replies, bob spent %v",
			st.Seq, len(st.Idem), st.Datasets["d"].Spent["bob"])
	}
	assertDiffClean(t, dirA, dirB)
}

// TestFollowerAppliesBurstWithOneSync: event frames that arrive
// together are staged one by one and made durable by one fsync, acked
// by one cumulative ack — and the ack still never precedes durability.
func TestFollowerAppliesBurstWithOneSync(t *testing.T) {
	const backlog = 200
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, -1)
	seedDataset(t, pl)
	for i := 0; i < backlog; i++ {
		if err := pl.Append(charge("alice", 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})

	fsys := vfs.NewFaultFS(nil)
	fl := openLedger(t, dirB, fsys, -1)
	syncs := fsys.Counts()[vfs.OpSync]
	var mu sync.Mutex
	var applied []uint64
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f", OnApply: func(ev ledger.Event) {
		// OnApply's contract: the event is already durable locally.
		if fl.CommittedSeq() < ev.Seq {
			t.Errorf("OnApply(%d) before the commit covering it (committed %d)", ev.Seq, fl.CommittedSeq())
		}
		mu.Lock()
		applied = append(applied, ev.Seq)
		mu.Unlock()
	}})
	want := pl.CommittedSeq()
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == want && p.MaxLag() == 0 }, "backlog catch-up")

	if got := fsys.Counts()[vfs.OpSync] - syncs; got >= backlog/2 {
		t.Fatalf("%d syncs to apply a %d-event backlog: the burst was not coalesced", got, backlog)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(applied) != int(want) {
		t.Fatalf("OnApply saw %d events, want %d", len(applied), want)
	}
	for i, seq := range applied {
		if seq != uint64(i+1) {
			t.Fatalf("OnApply order broke at %d: %v", i, applied[:i+1])
		}
	}
	f.Close()
	assertDiffClean(t, dirA, dirB)
}
