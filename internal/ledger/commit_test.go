package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/vfs"
)

// This file pins the stage/commit contract: a staged record is in the
// WAL and in State but neither durable nor published until a Commit (or
// an implicit sync) covers it; one sync covers everything staged before
// it; every record is published exactly once, in seq order; and a crash
// keeps a prefix.

// hookLog records what the commit hook saw.
type hookLog struct {
	mu   sync.Mutex
	seqs []uint64
}

func (h *hookLog) hook(seq uint64, _ []byte) {
	h.mu.Lock()
	h.seqs = append(h.seqs, seq)
	h.mu.Unlock()
}

func (h *hookLog) seen() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.seqs...)
}

// wantInOrder fails unless the hook fired for exactly 1..n, once each.
func (h *hookLog) wantInOrder(t *testing.T, n int) {
	t.Helper()
	got := h.seen()
	if len(got) != n {
		t.Fatalf("hook fired for %v, want 1..%d once each", got, n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("hook order %v, want 1..%d", got, n)
		}
	}
}

func stageN(t *testing.T, l *Ledger, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := l.Stage(charge())
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		last = seq
	}
	return last
}

func TestStageIsNotDurableUntilCommit(t *testing.T) {
	l, fsys, dir := openFault(t, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	var h hookLog
	l.SetCommitHook(h.hook)
	seedDataset(t, l) // seq 1, committed
	syncs := fsys.Counts()[vfs.OpSync]

	last := stageN(t, l, 3) // seqs 2..4: a request's charge, audit, reply
	if got := fsys.Counts()[vfs.OpSync]; got != syncs {
		t.Fatalf("staging synced: %d -> %d", syncs, got)
	}
	if l.CommittedSeq() != 1 || l.StagedSeq() != last {
		t.Fatalf("committed %d staged %d, want 1 and %d", l.CommittedSeq(), l.StagedSeq(), last)
	}
	if got := l.State().Datasets["d"].TotalSpent; got < 0.3-1e-9 {
		t.Fatalf("staged charges not folded into state: spent %v", got)
	}
	h.wantInOrder(t, 1)

	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if got := fsys.Counts()[vfs.OpSync]; got != syncs+1 {
		t.Fatalf("commit of 3 records used %d syncs, want 1", got-syncs)
	}
	if l.CommittedSeq() != last {
		t.Fatalf("committed %d, want %d", l.CommittedSeq(), last)
	}
	h.wantInOrder(t, 4)

	// A committer whose seq is already covered returns without syncing.
	if err := l.Commit(last - 1); err != nil {
		t.Fatal(err)
	}
	if got := fsys.Counts()[vfs.OpSync]; got != syncs+1 {
		t.Fatalf("covered commit synced again: %d syncs", got-syncs)
	}

	// Stage two more and lose power before their commit: the directory
	// is the committed prefix, with none of the staged records.
	stageN(t, l, 2)
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay: %v (%+v)", err, rec)
	}
	if st.Seq != last {
		t.Fatalf("replayed through seq %d, want the committed prefix %d", st.Seq, last)
	}
}

// Every implicit sync commits what it covers: the records it made
// durable are published, once, in order.
func TestImplicitSyncsPublishWhatTheyCover(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		do   func(*Ledger) error
	}{
		{"sync", Options{Fsync: FsyncAlways, SnapshotEvery: -1}, (*Ledger).Sync},
		{"snapshot", Options{Fsync: FsyncAlways, SnapshotEvery: -1}, (*Ledger).Snapshot},
		{"close", Options{Fsync: FsyncNever, SnapshotEvery: -1}, (*Ledger).Close},
		{"interval ticker", Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond, SnapshotEvery: -1},
			func(l *Ledger) error {
				deadline := time.Now().Add(5 * time.Second)
				for l.CommittedSeq() != l.StagedSeq() {
					if time.Now().After(deadline) {
						return errors.New("the ticker never published the staged records")
					}
					time.Sleep(time.Millisecond)
				}
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _, dir := openFault(t, tc.opts)
			var h hookLog
			l.SetCommitHook(h.hook)
			seedDataset(t, l)
			last := stageN(t, l, 3)
			if err := tc.do(l); err != nil {
				t.Fatal(err)
			}
			h.wantInOrder(t, int(last))
			// The explicit commit that follows has nothing left to do.
			if err := l.Commit(last); err != nil && !errors.Is(err, ErrClosed) {
				t.Fatal(err)
			}
			h.wantInOrder(t, int(last))
			if st, _, err := Replay(dir, 0); err != nil || st.Seq != last {
				t.Fatalf("replay: seq %d err %v, want %d", st.Seq, err, last)
			}
		})
	}
}

// Under the policies that do not sync per commit, Commit still gates
// publication: nothing reaches the hook (and so no follower) before it.
func TestCommitGatesPublishWithoutSync(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncInterval} {
		l, fsys, _ := openFault(t, Options{Fsync: policy, FsyncInterval: time.Hour, SnapshotEvery: -1})
		var h hookLog
		l.SetCommitHook(h.hook)
		seedDataset(t, l)
		last := stageN(t, l, 2)
		h.wantInOrder(t, 1)
		syncs := fsys.Counts()[vfs.OpSync]
		if err := l.Commit(last); err != nil {
			t.Fatal(err)
		}
		h.wantInOrder(t, 3)
		if got := fsys.Counts()[vfs.OpSync]; got != syncs {
			t.Fatalf("%s: commit synced (%d -> %d)", policy, syncs, got)
		}
	}
}

func TestCommitSyncFaultDegradesAndNeverPublishes(t *testing.T) {
	l, fsys, dir := openFault(t, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	var h hookLog
	l.SetCommitHook(h.hook)
	seedDataset(t, l)
	last := stageN(t, l, 3)
	fsys.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Err: syscall.EIO})

	if err := l.Commit(last); !errors.Is(err, ErrDegraded) {
		t.Fatalf("commit with failed fsync = %v, want ErrDegraded", err)
	}
	if _, err := l.Stage(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("stage after failed commit = %v, want ErrDegraded", err)
	}
	// fsyncgate: not retried, never assumed durable, never published.
	if err := l.Commit(last); !errors.Is(err, ErrDegraded) {
		t.Fatalf("retried commit = %v, want ErrDegraded", err)
	}
	h.wantInOrder(t, 1)
	if l.CommittedSeq() != 1 {
		t.Fatalf("committed seq %d moved past a failed sync", l.CommittedSeq())
	}
	// The staged charges stand in the live state, and whatever the disk
	// kept only over-counts.
	if got := l.State().Datasets["d"].TotalSpent; got < 0.3-1e-9 {
		t.Fatalf("live state forgot staged charges: %v", got)
	}
	if st, _, err := Replay(dir, 0); err != nil || st.Seq < 1 {
		t.Fatalf("replay after failed commit: seq %d err %v", st.Seq, err)
	}
}

// A failed WRITE refuses new records but not the commit of the records
// staged before it: they are intact, and the request they belong to has
// already been charged.
func TestCommitAfterWriteFaultCoversEarlierRecords(t *testing.T) {
	l, fsys, dir := openFault(t, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	var h hookLog
	l.SetCommitHook(h.hook)
	seedDataset(t, l)
	staged := stageN(t, l, 1)
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Short: 5, Err: syscall.ENOSPC, Sticky: true})
	if _, err := l.Stage(charge()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("stage on a full disk = %v, want ErrDegraded", err)
	}
	syncs := fsys.Counts()[vfs.OpSync]
	if err := l.Commit(staged); err != nil {
		t.Fatalf("commit of the record staged before the write fault: %v", err)
	}
	if got := fsys.Counts()[vfs.OpSync]; got != syncs+1 {
		t.Fatalf("commit used %d syncs, want 1", got-syncs)
	}
	h.wantInOrder(t, int(staged))
	// The torn bytes behind it are recovery's torn tail.
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Err != nil || rec.TornBytes != 5 || l2.State().Seq != staged {
		t.Fatalf("recovery: %+v, seq %d, want a 5-byte torn tail after seq %d", rec, l2.State().Seq, staged)
	}
}

// Concurrent requests share fsyncs: each stages three records and
// commits once, and whoever syncs covers everyone staged behind it.
func TestConcurrentCommittersShareSyncs(t *testing.T) {
	l, fsys, dir := openFault(t, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	var h hookLog
	l.SetCommitHook(h.hook)
	seedDataset(t, l)
	const workers, rounds = 8, 25
	syncs := fsys.Counts()[vfs.OpSync]

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var last uint64
				for r := 0; r < 3; r++ {
					seq, err := l.Stage(charge())
					if err != nil {
						t.Errorf("stage: %v", err)
						return
					}
					last = seq
				}
				if err := l.Commit(last); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if l.CommittedSeq() < last {
					t.Errorf("commit returned with seq %d uncovered (committed %d)", last, l.CommittedSeq())
				}
			}
		}()
	}
	wg.Wait()
	commits := workers * rounds
	got := fsys.Counts()[vfs.OpSync] - syncs
	if got > commits {
		t.Fatalf("%d syncs for %d commits: more than one sync per commit", got, commits)
	}
	t.Logf("%d commits of 3 records shared %d syncs", commits, got)
	total := 1 + 3*commits
	h.wantInOrder(t, total)
	if st, _, err := Replay(dir, 0); err != nil || st.Seq != uint64(total) {
		t.Fatalf("replay: seq %d err %v, want %d", st.Seq, err, total)
	}
}

// TestSnapshotTooLargeDoesNotRetryEveryAppend is the regression test
// for the snapshot cliff: a state whose snapshot exceeds the record
// size limit used to leave the since-last-snapshot counter untouched,
// so EVERY later append re-marshalled the whole state. The failed
// attempt must reset the counter — one attempt per SnapshotEvery
// appends, each counted and reported — and the WAL must keep replaying.
func TestSnapshotTooLargeDoesNotRetryEveryAppend(t *testing.T) {
	old := maxRecordSize
	maxRecordSize = 4 << 10
	defer func() { maxRecordSize = old }()

	const every = 8
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	l.AttachMetrics(reg)
	events := qlog.New(qlog.Options{})
	l.AttachEvents(events)
	seedDataset(t, l)

	// Keyed replies that never expire within the test: the state grows
	// past the (lowered) limit after a few dozen.
	reply := func(i int) Event {
		return Event{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
			Key: fmt.Sprintf("k%04d", i), Status: 200, Body: []byte(strings.Repeat("r", 200)),
			Expires: time.Now().Add(time.Hour).UnixNano()}
	}
	const appends = 160
	for i := 0; i < appends; i++ {
		if err := l.Append(reply(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if body, _ := json.Marshal(l.State()); len(body) <= maxRecordSize {
		t.Fatalf("state is only %d bytes: the test never crossed the %d limit", len(body), maxRecordSize)
	}
	failures := int(reg.Counter("dp_ledger_snapshot_failures_total").Value())
	if failures == 0 {
		t.Fatal("no snapshot failure was counted past the size limit")
	}
	// Flat cost: at most one attempt per SnapshotEvery appends, not one
	// per append.
	if max := (appends + 1) / every; failures > max {
		t.Fatalf("%d snapshot attempts failed over %d appends: more than one per %d (the cliff)", failures, appends, every)
	}
	warned := 0
	for _, e := range events.Recent(0) {
		if e.Name == "ledger_snapshot_failed" && e.Level == qlog.Warn {
			warned++
		}
	}
	if warned != failures {
		t.Fatalf("%d ledger_snapshot_failed events for %d failures, want one each", warned, failures)
	}
	if l.Degraded() != nil {
		t.Fatalf("an oversized snapshot degraded the ledger: %v", l.Degraded())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay: %v (%+v)", err, rec)
	}
	if st.Seq != uint64(1+appends) || len(st.Idem) != appends {
		t.Fatalf("replay: seq %d with %d replies, want %d and %d", st.Seq, len(st.Idem), 1+appends, appends)
	}
}
