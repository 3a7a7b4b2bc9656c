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
		ps = append(ps, Packet{Time: int64(n), SrcIP: 1, DstIP: 2, Len: uint16(n), Payload: bytes.Repeat([]byte{byte(n)}, n)})
	}
	return ps
}

// The batch encoders write exactly the bytes the file writers do, and
// the batch decoder and the reader (fed one byte per Read, so every
// record straddles a refill) both return the records encoded.
func TestDPTRBatchAndFileCodecsAgree(t *testing.T) {
	packets := dptrPackets()
	// Enough link samples to cross several fileChunk flushes.
	links := make([]LinkSample, 3*fileChunk/linkSize+5)
	for i := range links {
		links[i] = LinkSample{Link: int32(i), Bin: int32(-i)}
	}
	hops := []HopRecord{{Monitor: 1, IP: 2, Hops: 3}, {Monitor: -1, IP: 1 << 31, Hops: 1 << 30}}

	var wp, wl, wh bytes.Buffer
	if err := WritePackets(&wp, packets); err != nil {
		t.Fatal(err)
	}
	if err := WriteLinkSamples(&wl, links); err != nil {
		t.Fatal(err)
	}
	if err := WriteHopRecords(&wh, hops); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]byte{
		"packets": {MarshalPacketsDPTR(packets), wp.Bytes()},
		"links":   {MarshalLinkSamplesDPTR(links), wl.Bytes()},
		"hops":    {MarshalHopRecordsDPTR(hops), wh.Bytes()},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Fatalf("%s: Marshal*DPTR wrote %d bytes, Write* %d, or different ones", name, len(pair[0]), len(pair[1]))
		}
		if len(pair[0]) != cap(pair[0]) {
			t.Errorf("%s: batch body has %d bytes in a %d-byte buffer", name, len(pair[0]), cap(pair[0]))
		}
	}

	gotP, err := ParsePacketsDPTR(wp.Bytes())
	if err != nil || !reflect.DeepEqual(gotP, packets) {
		t.Fatalf("ParsePacketsDPTR: err %v, records equal %v", err, reflect.DeepEqual(gotP, packets))
	}
	if gotP, err = ReadPackets(iotest.OneByteReader(bytes.NewReader(wp.Bytes()))); err != nil || !reflect.DeepEqual(gotP, packets) {
		t.Fatalf("ReadPackets: err %v", err)
	}
	gotL, err := ParseLinkSamplesDPTR(wl.Bytes())
	if err != nil || !reflect.DeepEqual(gotL, links) {
		t.Fatalf("ParseLinkSamplesDPTR: err %v", err)
	}
	if gotL, err = ReadLinkSamples(iotest.HalfReader(bytes.NewReader(wl.Bytes()))); err != nil || !reflect.DeepEqual(gotL, links) {
		t.Fatalf("ReadLinkSamples: err %v", err)
	}
	gotH, err := ParseHopRecordsDPTR(wh.Bytes())
	if err != nil || !reflect.DeepEqual(gotH, hops) {
		t.Fatalf("ParseHopRecordsDPTR: err %v", err)
	}
	if gotH, err = ReadHopRecords(iotest.OneByteReader(bytes.NewReader(wh.Bytes()))); err != nil || !reflect.DeepEqual(gotH, hops) {
		t.Fatalf("ReadHopRecords: err %v", err)
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

// A batch holding more bytes than its declared records is refused with
// the offset the extra bytes start at, for every kind; a file reader
// still stops at the count (TestReaderStopsAtCount).
func TestParseDPTRRefusesTrailingData(t *testing.T) {
	packets := samplePackets()[:2]
	two := MarshalPacketsDPTR(packets)
	one := MarshalPacketsDPTR(packets[:1])
	// A header declaring one record over a two-record body.
	forged := append(append([]byte(nil), one[:headerSize]...), two[headerSize:]...)
	links := MarshalLinkSamplesDPTR([]LinkSample{{1, 2}})
	hops := MarshalHopRecordsDPTR([]HopRecord{{1, 2, 3}})
	for name, tc := range map[string]struct {
		body  []byte
		end   int // where the declared records end
		parse func([]byte) error
	}{
		"packet": {forged, len(one), func(b []byte) error { _, err := ParsePacketsDPTR(b); return err }},
		"link":   {append(links, 0), len(links), func(b []byte) error { _, err := ParseLinkSamplesDPTR(b); return err }},
		"hop":    {append(hops, "garbage"...), len(hops), func(b []byte) error { _, err := ParseHopRecordsDPTR(b); return err }},
	} {
		err := tc.parse(tc.body)
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
// decoders preallocate only what the body's bytes could hold.
func TestForgedCountAllocatesByBytes(t *testing.T) {
	for kind, parse := range map[uint16]func([]byte) error{
		KindPacket: func(b []byte) error { _, err := ParsePacketsDPTR(b); return err },
		KindLink:   func(b []byte) error { _, err := ParseLinkSamplesDPTR(b); return err },
		KindHop:    func(b []byte) error { _, err := ParseHopRecordsDPTR(b); return err },
	} {
		body := appendHeader(nil, kind, 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := parse(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("kind %d: a header claiming 2^20 records decoded", kind)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("kind %d: a %d-byte body allocated %d bytes", kind, len(body), grew)
		}
	}
}
