package ledger

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dptrace/internal/vfs"
)

// chargeEvents builds a simple history: one dataset plus n charges.
func chargeEvents(n int) []Event {
	evs := []Event{{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1}}
	for i := 0; i < n; i++ {
		evs = append(evs, Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1})
	}
	return evs
}

func appendAll(t *testing.T, l *Ledger, evs []Event) {
	t.Helper()
	for i := range evs {
		if err := l.Append(evs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(5))
	if err := l.Append(Event{Type: EventRollback, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Type: EventRefusal, Dataset: "d", Analyst: "bob",
		Query: "count", Epsilon: 5, Outcome: "refused"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Err != nil {
		t.Fatalf("recovery failed: %v", rec.Err)
	}
	// dataset_created + 5 charges + rollback + refusal.
	if rec.Events != 8 {
		t.Fatalf("replayed %d events, want 8", rec.Events)
	}
	st := l2.State()
	ds := st.Datasets["d"]
	if ds == nil {
		t.Fatal("dataset not recovered")
	}
	// 5 charges of 0.1 minus one rollback, summed in event order —
	// bit-identical to the live accumulation.
	want := 0.0
	for i := 0; i < 5; i++ {
		want += 0.1
	}
	want -= 0.1
	if ds.Spent["alice"] != want {
		t.Fatalf("alice spent %v, want %v", ds.Spent["alice"], want)
	}
	if ds.TotalSpent != want {
		t.Fatalf("total spent %v, want %v", ds.TotalSpent, want)
	}
	if len(st.Audit) != 1 || st.Audit[0].Outcome != "refused" {
		t.Fatalf("audit trail not recovered: %+v", st.Audit)
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(35))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// 36 events with snapshots every 10: old segments must be gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wals, snaps int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".wal"):
			wals++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if wals != 1 {
		t.Fatalf("compaction left %d WAL segments, want 1", wals)
	}
	if snaps != 1 {
		t.Fatalf("compaction left %d snapshots, want 1", snaps)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Err != nil {
		t.Fatalf("recovery failed: %v", rec.Err)
	} else if rec.SnapshotSeq == 0 {
		t.Fatal("recovery did not use a snapshot")
	}
	ds := l2.State().Datasets["d"]
	want := 0.0
	for i := 0; i < 35; i++ {
		want += 0.1
	}
	if ds.Spent["alice"] != want {
		t.Fatalf("alice spent %v across snapshot boundary, want %v", ds.Spent["alice"], want)
	}
	if l2.State().Seq != 36 {
		t.Fatalf("seq %d, want 36", l2.State().Seq)
	}

	// Appends continue after the recovered snapshot.
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if l2.State().Seq != 37 {
		t.Fatalf("seq %d after append, want 37", l2.State().Seq)
	}
}

// TestFsyncPolicies: the one durability mode ("always", also spelled
// "") round-trips what it acks; the removed modes are refused before
// Open touches the directory.
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, "interval", "never"} {
		t.Run(string(policy), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ledger")
			l, err := Open(Options{Dir: dir, Fsync: policy})
			if policy != FsyncAlways {
				if err == nil {
					l.Close()
					t.Fatalf("Open accepted fsync mode %q", policy)
				}
				if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
					t.Fatalf("refused Open created %s (%v)", dir, serr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, chargeEvents(3))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := l2.State().Seq; got != 4 {
				t.Fatalf("recovered seq %d, want 4", got)
			}
		})
	}
}

// TestOpenRefusesRemovedKnobs: Open takes no fsync mode but the one,
// and Replay and Diff no audit bound but AuditCap (spelled 0).
func TestOpenRefusesRemovedKnobs(t *testing.T) {
	for _, policy := range []FsyncPolicy{"never", "interval"} {
		_, err := Open(Options{Dir: t.TempDir(), Fsync: policy})
		if err == nil || !strings.Contains(err.Error(), string(policy)) {
			t.Errorf("Open(Fsync: %q) = %v, want an error naming %q", policy, err, policy)
		}
	}
	for _, policy := range []FsyncPolicy{"", FsyncAlways} {
		l, err := Open(Options{Dir: t.TempDir(), Fsync: policy})
		if err != nil {
			t.Fatalf("Open(Fsync: %q): %v", policy, err)
		}
		l.Close()
	}
	dir := t.TempDir()
	if _, _, err := Replay(dir, 5); err == nil {
		t.Error("Replay with audit cap 5 succeeded")
	}
	if _, err := Diff(dir, t.TempDir(), 5); err == nil {
		t.Error("Diff with audit cap 5 succeeded")
	}
}

func TestCorruptHistoryFreezes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(10))
	l.Close()

	// Flip one payload byte in the middle of the (single) segment:
	// durably-written history that no longer checks out.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Frozen() == nil {
		t.Fatal("corrupt history did not freeze the ledger")
	}
	if !errors.Is(l2.Recovery().Err, ErrCorrupt) {
		t.Fatalf("recovery error %v, want ErrCorrupt", l2.Recovery().Err)
	}
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append on frozen ledger: %v, want ErrFrozen", err)
	}
	// Read-only replay agrees.
	if _, _, err := Replay(dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay: %v, want ErrCorrupt", err)
	}
}

func TestChargeForUnknownDatasetIsCorrupt(t *testing.T) {
	st := NewState()
	err := st.Apply(&Event{Seq: 1, Type: EventCharge, Dataset: "ghost", Analyst: "a", Epsilon: 0.1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSequenceGapIsCorrupt(t *testing.T) {
	st := NewState()
	if err := st.Apply(&Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d"}); err != nil {
		t.Fatal(err)
	}
	err := st.Apply(&Event{Seq: 3, Type: EventCharge, Dataset: "d", Analyst: "a", Epsilon: 0.1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestIdemReplyPersistAndExpiry(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour).UnixNano()
	past := time.Now().Add(-time.Hour).UnixNano()
	evs := []Event{
		{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1},
		{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
			Key: "k1", Status: 200, Body: []byte(`{"values":[1]}`), Expires: future},
		{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
			Key: "k2", Status: 200, Body: []byte(`{"values":[2]}`), Expires: past},
	}
	appendAll(t, l, evs)
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	idem := l2.State().Idem
	if got := idem[IdemKeyString("/v1/query", "d", "alice", "k1")]; got == nil || string(got.Body) != `{"values":[1]}` {
		t.Fatalf("live idem reply not recovered: %+v", got)
	}
	if got := idem[IdemKeyString("/v1/query", "d", "alice", "k2")]; got != nil {
		t.Fatal("expired idem reply survived recovery")
	}
}

// TestReplyStagedAndExpired: Reply finds a reply as soon as it is
// staged, before its commit, and reports one past its expiry as absent
// although no snapshot or recovery has pruned it from the fold yet.
func TestReplyStagedAndExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	l, err := Open(Options{Dir: t.TempDir(), now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []Event{{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1}})
	expires := now.Add(time.Minute).UnixNano()
	if _, err := l.Stage(Event{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
		Key: "k1", Status: 200, Body: []byte(`{"values":[1]}`), Expires: expires}); err != nil {
		t.Fatal(err)
	}
	if l.CommittedSeq() == l.StagedSeq() {
		t.Fatal("the reply should still be staged")
	}
	rec, ok := l.Reply("/v1/query", "d", "alice", "k1")
	if !ok || rec.Status != 200 || string(rec.Body) != `{"values":[1]}` || rec.Expires != expires {
		t.Fatalf("staged reply: %+v, found %v", rec, ok)
	}
	if _, ok := l.Reply("/v1/query", "d", "alice", "k2"); ok {
		t.Fatal("Reply found a key never stored")
	}
	if err := l.Commit(l.StagedSeq()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute + time.Nanosecond)
	if _, ok := l.Reply("/v1/query", "d", "alice", "k1"); ok {
		t.Fatal("a reply past its expiry was found")
	}
	if l.State().Idem[IdemKeyString("/v1/query", "d", "alice", "k1")] == nil {
		t.Fatal("the fold pruned the reply before a snapshot; the test no longer covers Reply's own expiry check")
	}
}

func TestBudgetSentinel(t *testing.T) {
	if EncodeBudget(math.Inf(1)) != -1 {
		t.Fatal("EncodeBudget(+Inf) != -1")
	}
	if !math.IsInf(DecodeBudget(-1), 1) {
		t.Fatal("DecodeBudget(-1) != +Inf")
	}
	if DecodeBudget(EncodeBudget(2.5)) != 2.5 {
		t.Fatal("finite budget did not round-trip")
	}
	// And through a real ledger: unlimited budgets must survive the
	// JSON encoding, which cannot carry +Inf directly.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d", Kind: "packet",
		Total: EncodeBudget(math.Inf(1)), PerAnalyst: EncodeBudget(math.Inf(1))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ds := l2.State().Datasets["d"]
	if !math.IsInf(DecodeBudget(ds.Total), 1) {
		t.Fatalf("unlimited budget did not survive snapshot: %v", ds.Total)
	}
}

func TestAuditCapBoundsState(t *testing.T) {
	st := NewState()
	if err := st.Apply(&Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < AuditCap+20; i++ {
		if err := st.Apply(&Event{Seq: uint64(i + 2), Type: EventAudit,
			Dataset: "d", Analyst: "a", Query: "count", Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Audit) > AuditCap {
		t.Fatalf("audit trail grew to %d entries, cap is %d", len(st.Audit), AuditCap)
	}
}

// TestDiscardLedgerMatchesDisk: a ledger over vfs.Discard, as a server
// without a durable ledger runs, folds what it is fed exactly like a
// ledger on disk — the same Dataset, Audit, Reply and Standing — and
// snapshots and rotates its segments without error, storing nothing.
func TestDiscardLedgerMatchesDisk(t *testing.T) {
	disk, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem, err := Open(Options{Dir: "memory", FS: vfs.Discard, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	future := time.Now().Add(time.Hour).UnixNano()
	evs := append(standingHistory(),
		Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.3},
		Event{Type: EventAudit, Dataset: "d", Analyst: "alice", Query: "count", Epsilon: 0.3, Charged: 0.3, Outcome: "ok"},
		Event{Type: EventIdemReply, Endpoint: "/query", Dataset: "d", Analyst: "alice",
			Key: "k1", Status: 200, Body: []byte(`{"values":[1]}`), Expires: future},
		Event{Type: EventCharge, Dataset: "d", Analyst: "bob", Epsilon: 0.2},
		Event{Type: EventRollback, Dataset: "d", Analyst: "bob", Epsilon: 0.2},
		Event{Type: EventRefusal, Dataset: "d", Analyst: "bob", Query: "hosts", Epsilon: 9, Outcome: "refused"},
		standingWindow(0, 0.1, "ok"),
		standingWindow(1, 0.1, "ok"),
		Event{Type: EventStandingCanceled, Dataset: "d", Analyst: "mon", Standing: "sq-1"},
	)
	for i := range evs {
		evs[i].Time = int64(1000 + i) // Stage would stamp each ledger's own clock
		for _, l := range []*Ledger{disk, mem} {
			seq, err := l.Stage(evs[i])
			if err == nil {
				err = l.Commit(seq)
			}
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	for _, l := range []*Ledger{disk, mem} {
		if err := l.Snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if err := l.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "carol", Epsilon: 0.1, Time: 5000}); err != nil {
			t.Fatalf("append after the snapshot's rotation: %v", err)
		}
		if err := l.Refusing(); err != nil {
			t.Fatalf("ledger refusing: %v", err)
		}
	}

	dd, _ := disk.Dataset("d")
	md, ok := mem.Dataset("d")
	if !ok || !reflect.DeepEqual(dd, md) {
		t.Errorf("Dataset: disk %+v, discard %+v", dd, md)
	}
	if d, m := disk.Audit(), mem.Audit(); len(d) != 2 || !reflect.DeepEqual(d, m) {
		t.Errorf("Audit: disk %+v, discard %+v", d, m)
	}
	d, dok := disk.Reply("/query", "d", "alice", "k1")
	m, mok := mem.Reply("/query", "d", "alice", "k1")
	if !dok || !mok || string(d.Body) != `{"values":[1]}` || !reflect.DeepEqual(d, m) {
		t.Errorf("Reply: disk %+v (%v), discard %+v (%v)", d, dok, m, mok)
	}
	if _, ok := mem.Reply("/query", "d", "bob", "k1"); ok {
		t.Error("Reply found another analyst's key")
	}
	if d, m := disk.Standing("d"), mem.Standing("d"); len(d) != 1 || !reflect.DeepEqual(d, m) {
		t.Errorf("Standing: disk %+v, discard %+v", d, m)
	}
	if d, m := disk.CommittedSeq(), mem.CommittedSeq(); d != m {
		t.Errorf("committed seq: disk %d, discard %d", d, m)
	}
}
