package ledger

import (
	"testing"
)

// BenchmarkLedgerAppendFsyncAlways measures charge-append throughput:
// each Append is one record and one fsync, the price of the durability
// guarantee per acknowledged ε-charge. `make bench` records it into
// BENCH_core.json.
func BenchmarkLedgerAppendFsyncAlways(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d",
		Kind: "packet", Total: -1, PerAnalyst: -1}); err != nil {
		b.Fatal(err)
	}
	ev := Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLedgerRecovery(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	// Staged, then committed once by Close: recovery reads the same
	// 10,000 records whether or not each paid its own fsync.
	for _, ev := range chargeEvents(10000) {
		if _, err := l.Stage(ev); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Replay(dir, 0); err != nil {
			b.Fatal(err)
		}
	}
}
