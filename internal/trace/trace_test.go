package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

func TestIPv4String(t *testing.T) {
	ip := MakeIPv4(192, 168, 1, 200)
	if got := ip.String(); got != "192.168.1.200" {
		t.Fatalf("String = %q", got)
	}
	if got := ip.Addr().String(); got != "192.168.1.200" {
		t.Fatalf("Addr = %q", got)
	}
}

// String feeds the sketch hashes of the source-keyed queries, so its
// output is part of the result digest: every octet width boundary, in
// every position, must print exactly as fmt's %d did, and the whole
// address as net/netip prints it.
func TestIPv4StringOctetBoundaries(t *testing.T) {
	octets := []byte{0, 9, 10, 99, 100, 255}
	for _, a := range octets {
		for _, b := range octets {
			for _, c := range octets {
				for _, d := range octets {
					ip := MakeIPv4(a, b, c, d)
					want := fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
					if got := ip.String(); got != want {
						t.Fatalf("String(%d,%d,%d,%d) = %q, want %q", a, b, c, d, got, want)
					}
				}
			}
		}
	}
	same := func(v uint32) bool { return IPv4(v).String() == IPv4(v).Addr().String() }
	if err := quick.Check(same, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 100, DstPort: 200, Proto: ProtoTCP}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 200 || r.DstPort != 100 {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestTCPFlagHelpers(t *testing.T) {
	syn := Packet{Header: Header{Proto: ProtoTCP, Flags: FlagSYN}}
	synack := Packet{Header: Header{Proto: ProtoTCP, Flags: FlagSYN | FlagACK}}
	data := Packet{Header: Header{Proto: ProtoTCP, Flags: FlagACK}}
	udp := Packet{Header: Header{Proto: ProtoUDP, Flags: FlagSYN}}
	if !syn.IsSYN() || syn.IsSYNACK() {
		t.Error("SYN misclassified")
	}
	if synack.IsSYN() || !synack.IsSYNACK() {
		t.Error("SYN-ACK misclassified")
	}
	if data.IsSYN() || data.IsSYNACK() {
		t.Error("data packet misclassified")
	}
	if udp.IsSYN() {
		t.Error("UDP packet classified as SYN")
	}
}

func samplePackets() []Packet {
	return []Packet{
		{Header: Header{Time: 0, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2),
			SrcPort: 12345, DstPort: 80, Proto: ProtoTCP, Flags: FlagSYN,
			Seq: 1000, Len: 40}},
		{Header: Header{Time: 1500, SrcIP: MakeIPv4(10, 0, 0, 2), DstIP: MakeIPv4(10, 0, 0, 1),
			SrcPort: 80, DstPort: 12345, Proto: ProtoTCP, Flags: FlagSYN | FlagACK,
			Seq: 555, Ack: 1001, Len: 40}},
		{Header: Header{Time: 3000, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2),
			SrcPort: 12345, DstPort: 80, Proto: ProtoTCP, Flags: FlagACK | FlagPSH,
			Seq: 1001, Ack: 556, Len: 1492}, Payload: []byte("GET / HTTP/1.1\r\n")},
		{Header: Header{Time: 4000, SrcIP: MakeIPv4(8, 8, 8, 8), DstIP: MakeIPv4(10, 0, 0, 1),
			SrcPort: 53, DstPort: 5353, Proto: ProtoUDP, Len: 120}, Payload: []byte{0, 1, 2}},
	}
}

func TestPacketRoundTrip(t *testing.T) {
	want := samplePackets()
	var buf bytes.Buffer
	if err := WritePackets(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPackets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Time != g.Time || w.SrcIP != g.SrcIP || w.DstIP != g.DstIP ||
			w.SrcPort != g.SrcPort || w.DstPort != g.DstPort ||
			w.Proto != g.Proto || w.Flags != g.Flags ||
			w.Seq != g.Seq || w.Ack != g.Ack || w.Len != g.Len ||
			!bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("packet %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestEmptyPacketTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePackets(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPackets(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := ReadPackets(bytes.NewReader([]byte("NOPE0123456789ab"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// A header of another record kind — older builds wrote link samples
// as kind 2 and hop records as kind 3 — is refused by the file reader
// and the batch decoder alike.
func TestWrongKindRejected(t *testing.T) {
	file := []byte{
		'D', 'P', 'T', 'R', 1, 0, // magic, version 1
		2, 0, // kind 2
		1, 0, 0, 0, 0, 0, 0, 0, // one record
		1, 0, 0, 0, 2, 0, 0, 0, // link 1, bin 2
	}
	if _, err := ReadPackets(bytes.NewReader(file)); !errors.Is(err, ErrWrongKind) {
		t.Errorf("ReadPackets: got %v, want ErrWrongKind", err)
	}
	if _, err := ParsePacketsDPTR(file); !errors.Is(err, ErrWrongKind) {
		t.Errorf("ParsePacketsDPTR: got %v, want ErrWrongKind", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePackets(&buf, samplePackets()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadPackets(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if _, err := ReadPackets(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestCorruptPayloadLengthRejected(t *testing.T) {
	// Craft a header claiming one packet, then a fixed part and an
	// absurd varint payload length.
	var buf bytes.Buffer
	if err := WritePackets(&buf, []Packet{{Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The varint length byte sits right after header (16) + fixed (32).
	raw[16+32] = 0xFF
	raw = append(raw[:16+32+1], 0xFF, 0xFF, 0x7F) // ~34M payload claim
	if _, err := ReadPackets(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

// Property: arbitrary packets survive a round trip bit-exactly.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(tm int64, src, dst uint32, sp, dp uint16, proto, flags uint8, seq, ack uint32, ln uint16, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		p := Packet{Header: Header{Time: tm, SrcIP: IPv4(src), DstIP: IPv4(dst), SrcPort: sp,
			DstPort: dp, Proto: proto, Flags: TCPFlags(flags), Seq: seq, Ack: ack,
			Len: ln}, Payload: payload}
		var buf bytes.Buffer
		if err := WritePackets(&buf, []Packet{p}); err != nil {
			return false
		}
		got, err := ReadPackets(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Time == p.Time && g.SrcIP == p.SrcIP && g.DstIP == p.DstIP &&
			g.SrcPort == p.SrcPort && g.DstPort == p.DstPort && g.Proto == p.Proto &&
			g.Flags == p.Flags && g.Seq == p.Seq && g.Ack == p.Ack && g.Len == p.Len &&
			bytes.Equal(g.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Ensure readers don't over-read past the declared records.
func TestReaderStopsAtCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePackets(&buf, samplePackets()[:1]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailing garbage")
	got, err := ReadPackets(io.LimitReader(&buf, int64(buf.Len())))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d packets, err %v", len(got), err)
	}
}
