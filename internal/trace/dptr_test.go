package trace

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// dptrPackets covers every payload-length width the encoder writes: no
// payload, a one-byte varint, a two-byte one, and the largest payload a
// reader accepts, which is longer than a file window.
func dptrPackets() []Packet {
	ps := samplePackets()
	for _, n := range []int{1, 127, 128, 300, maxPayload} {
		ps = append(ps, Packet{Header: Header{Time: int64(n), SrcIP: 1, DstIP: 2, Len: uint16(n)}, Payload: bytes.Repeat([]byte{byte(n)}, n)})
	}
	return ps
}

// The packet batch encoder writes exactly the bytes the file writer
// does, the batch decoder and the reader (fed one byte per Read, so
// every record straddles a refill) both return the records encoded.
func TestDPTRBatchAndFileCodecsAgree(t *testing.T) {
	packets := dptrPackets()
	var wp bytes.Buffer
	if err := WritePackets(&wp, packets); err != nil {
		t.Fatal(err)
	}
	batch := MarshalPacketsDPTR(packets)
	if !bytes.Equal(batch, wp.Bytes()) {
		t.Fatalf("MarshalPacketsDPTR wrote %d bytes, WritePackets %d, or different ones", len(batch), wp.Len())
	}
	if len(batch) != cap(batch) {
		t.Errorf("batch body has %d bytes in a %d-byte buffer", len(batch), cap(batch))
	}

	gotP, err := ParsePacketsDPTR(wp.Bytes())
	if err != nil || !reflect.DeepEqual(gotP, packets) {
		t.Fatalf("ParsePacketsDPTR: err %v, records equal %v", err, reflect.DeepEqual(gotP, packets))
	}
	if gotP, err = ReadPackets(iotest.OneByteReader(bytes.NewReader(wp.Bytes()))); err != nil || !reflect.DeepEqual(gotP, packets) {
		t.Fatalf("ReadPackets: err %v", err)
	}
}

// Decoded payloads are copies: rewriting the batch body afterwards
// leaves the records as they were, and a payload's capacity ends at its
// length, so appending to one cannot overwrite the next.
func TestParsePacketsDPTRDoesNotAliasBody(t *testing.T) {
	want := dptrPackets()
	body := MarshalPacketsDPTR(want)
	got, err := ParsePacketsDPTR(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xAA
	}
	for i := range got {
		if cap(got[i].Payload) != len(got[i].Payload) {
			t.Fatalf("packet %d: payload cap %d, len %d", i, cap(got[i].Payload), len(got[i].Payload))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("records changed with the batch body")
	}
}

// A batch holding more bytes than its declared records is refused
// with the offset the extra bytes start at; a file reader still stops
// at the count (TestReaderStopsAtCount).
func TestParseDPTRRefusesTrailingData(t *testing.T) {
	packets := samplePackets()[:2]
	two := MarshalPacketsDPTR(packets)
	one := MarshalPacketsDPTR(packets[:1])
	// A header declaring one record over a two-record body.
	forged := append(append([]byte(nil), one[:headerSize]...), two[headerSize:]...)
	for name, tc := range map[string]struct {
		body []byte
		end  int // where the declared records end
	}{
		"a record too many": {forged, len(one)},
		"one byte":          {append(two[:len(two):len(two)], 0), len(two)},
		"garbage":           {append(one[:len(one):len(one)], "garbage"...), len(one)},
	} {
		_, err := ParsePacketsDPTR(tc.body)
		if !errors.Is(err, ErrTrailingData) {
			t.Fatalf("%s: got %v, want ErrTrailingData", name, err)
		}
		if want := "at offset " + strconv.Itoa(tc.end) + ","; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %q does not name %q", name, err, want)
		}
	}
	got, err := ReadPackets(bytes.NewReader(forged))
	if err != nil || len(got) != 1 {
		t.Fatalf("file reader: %d packets, err %v", len(got), err)
	}
}

// A header alone that claims 2^20 records reserves nothing: the batch
// decoder preallocates only what the body's bytes could hold.
func TestForgedCountAllocatesByBytes(t *testing.T) {
	body := appendHeader(nil, KindPacket, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParsePacketsDPTR(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header claiming 2^20 records decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("a %d-byte body allocated %d bytes", len(body), grew)
	}
}
