package ledger

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzLedgerDecode hammers DecodeRecord with arbitrary bytes. The
// decoder sits on the recovery path — it must classify every input as
// a record, a torn tail, or corruption, and never panic. Successful
// decodes must survive an encode/decode round trip losslessly (a
// lossy trip would make replayed state drift from the live one).
func FuzzLedgerDecode(f *testing.F) {
	valid, err := EncodeRecord(nil, &Event{Seq: 1, Type: EventDatasetCreated,
		Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1})
	if err != nil {
		f.Fatal(err)
	}
	charge, err := EncodeRecord(nil, &Event{Seq: 2, Type: EventCharge,
		Dataset: "d", Analyst: "alice", Epsilon: 0.1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(charge)
	f.Add(append(append([]byte(nil), valid...), charge...))
	f.Add(valid[:len(valid)-3]) // torn payload
	f.Add(valid[:5])            // torn header
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF // CRC mismatch
	f.Add(flipped)
	huge := make([]byte, recordHeaderSize)
	binary.LittleEndian.PutUint32(huge, uint32(maxRecordSize)+1) // oversized length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		ev, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n < recordHeaderSize || n > len(data) {
			t.Fatalf("decoded size %d out of range [%d, %d]", n, recordHeaderSize, len(data))
		}
		re, err := EncodeRecord(nil, &ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		ev2, n2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if len(ev.Body) == 0 {
			ev.Body = nil // omitempty folds []byte{} into absent
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("event did not round-trip:\n got %+v\nwant %+v", ev2, ev)
		}
	})
}
