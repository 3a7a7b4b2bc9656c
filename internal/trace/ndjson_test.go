package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPacketsNDJSONRoundTrip(t *testing.T) {
	in := []Packet{
		{Header: Header{Time: 1000, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2),
			SrcPort: 443, DstPort: 51000, Proto: 6, Flags: FlagSYN | FlagACK,
			Seq: 7, Ack: 9, Len: 1200}, Payload: []byte("hello")},
		{Header: Header{Time: 2000, SrcIP: MakeIPv4(192, 168, 1, 5), DstIP: MakeIPv4(8, 8, 8, 8),
			Proto: 17, Len: 64}},
	}
	data := MarshalPacketsNDJSON(in)
	if got := strings.Count(string(data), "\n"); got != len(in) {
		t.Fatalf("expected %d lines, got %d", len(in), got)
	}
	out, err := ParsePacketsNDJSON(data)
	if err != nil {
		t.Fatalf("ParsePacketsNDJSON: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("expected %d packets, got %d", len(in), len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Time != b.Time || a.SrcIP != b.SrcIP || a.DstIP != b.DstIP ||
			a.SrcPort != b.SrcPort || a.DstPort != b.DstPort ||
			a.Proto != b.Proto || a.Flags != b.Flags ||
			a.Seq != b.Seq || a.Ack != b.Ack || a.Len != b.Len ||
			string(a.Payload) != string(b.Payload) {
			t.Errorf("packet %d: round-trip mismatch: %+v != %+v", i, a, b)
		}
	}
}

func TestParseNDJSONSkipsBlankLines(t *testing.T) {
	data := []byte("\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\n\n  \n{\"srcIP\":\"5.6.7.8\",\"dstIP\":\"1.2.3.4\"}\n\n")
	out, err := ParsePacketsNDJSON(data)
	if err != nil {
		t.Fatalf("ParsePacketsNDJSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("expected 2 packets, got %d", len(out))
	}
}

func TestParseNDJSONNoTrailingNewline(t *testing.T) {
	data := []byte(`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`)
	out, err := ParsePacketsNDJSON(data)
	if err != nil || len(out) != 1 {
		t.Fatalf("expected 1 packet, got %d (err=%v)", len(out), err)
	}
}

func TestParsePacketsNDJSONErrors(t *testing.T) {
	good := `{"time":1,"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":1}` + "\n"
	cases := []struct {
		name, data, want string
	}{
		{"malformed json", "{\"time\":1,\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":1}\nnot json\n", "line 2"},
		{"unknown field", `{"time":1,"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":1,"bogus":true}`, "line 1"},
		{"bad src ip", `{"time":1,"srcIP":"nope","dstIP":"5.6.7.8","len":1}`, "srcIP"},
		{"ipv6 dst", `{"time":1,"srcIP":"1.2.3.4","dstIP":"::1","len":1}`, "not IPv4"},
		{"two objects on a line", "{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\n" +
			`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`, "line 2: more than one JSON value"},
		{"garbage after object", `{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"} garbage`, "line 1: more than one JSON value"},
		{"stray brace after object", `{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}}`, "line 1: more than one JSON value"},
		// Cut in two or three, a piece ends after line 4, so line 7
		// is the next piece's third, behind two blank lines; line 9
		// fails too, later (in three pieces, in the last).
		{"bad line in the second piece behind blank lines",
			strings.Repeat(good, 4) + "\n\nnot json\n" + good + "also not json\n" + good, "line 7:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for pieces := 1; pieces <= 3; pieces++ {
				_, _, err := parseNDJSONIn([]byte(c.data), &packetShape, pieces)
				if err == nil {
					t.Fatalf("%d pieces: expected error, got nil", pieces)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Errorf("%d pieces: error %q does not mention %q", pieces, err, c.want)
				}
			}
		})
	}
}

// Nothing may follow a line's object, whether the object itself is
// canonical (fast path up to the closing brace) or needs encoding/json
// (here: an escaped key).
func TestParseNDJSONRefusesTrailingData(t *testing.T) {
	for _, obj := range []string{`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`, `{"srcIP":"1.2.3.4","dst\u0049P":"5.6.7.8"}`} {
		if _, err := ParsePacketsNDJSON([]byte(obj + " \t\r\n")); err != nil {
			t.Errorf("%s alone: %v", obj, err)
		}
		for _, tail := range []string{obj, " garbage", "}", ",", " 1", "\v{}"} {
			_, err := ParsePacketsNDJSON([]byte(obj + "\n" + obj + tail))
			if err == nil || !strings.Contains(err.Error(), "trace: ndjson line 2: more than one JSON value") {
				t.Errorf("%s%s: got %v, want a line-2 trailing-data refusal", obj, tail, err)
			}
		}
	}
}

// pythonSpaced re-spaces canonical lines the way Python's json.dumps
// separates tokens.
func pythonSpaced(data []byte) []byte {
	data = bytes.ReplaceAll(data, []byte(`,"`), []byte(`, "`))
	return bytes.ReplaceAll(data, []byte(`":`), []byte(`": `))
}

// assertFast pins that every line of data takes the fast path and
// decodes to want, as marshalled and re-spaced: a schema change that
// forgets the field table must fail here, not fall back to reflection.
func assertFast[T any](t *testing.T, sh *shape[T], data []byte, want []T) {
	t.Helper()
	for name, b := range map[string][]byte{"canonical": data, "python-spaced": pythonSpaced(data)} {
		got, fast, err := parseNDJSON(b, sh)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fast != len(want) {
			t.Errorf("%s: %d of %d lines took the fast path\n%s", name, fast, len(want), b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
}

func TestMarshalledLinesTakeFastPath(t *testing.T) {
	packets := []Packet{
		{Header: Header{SrcIP: 0, DstIP: 0}}, // every omitempty field absent
		{Header: Header{Time: 1000, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2), SrcPort: 443, DstPort: 51000,
			Proto: ProtoTCP, Flags: FlagSYN | FlagACK, Seq: 7, Ack: 9, Len: 1200}, Payload: []byte("hello")},
		{Header: Header{Time: 2000, SrcIP: MakeIPv4(192, 168, 1, 5), DstIP: MakeIPv4(8, 8, 8, 8), Proto: ProtoUDP, Len: 64}},
		{Header: Header{Time: math.MinInt64, SrcIP: math.MaxUint32, DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16,
			Proto: math.MaxUint8, Flags: math.MaxUint8, Seq: math.MaxUint32, Ack: math.MaxUint32, Len: math.MaxUint16}, Payload: []byte{0xfb, 0xff, 0xfe, 0x00}}, // base64 "+//+AA=="
		{Header: Header{Time: math.MaxInt64, SrcIP: MakeIPv4(1, 20, 255, 0), DstIP: 1}, Payload: []byte{0}},
	}
	assertFast(t, &packetShape, MarshalPacketsNDJSON(packets), packets)
}

// The append encoder must produce json.Marshal's bytes for PacketJSON:
// senders and trace.ndjson_bytes_per_rec see no difference.
func TestAppendEncodersMatchJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Half the draws are zero, so omitempty fields come and go.
	draw := func() uint64 { return rng.Uint64() * uint64(rng.Intn(2)) }
	check := func(got []byte, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("append encoder wrote\n%sjson.Marshal wrote\n%s", got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		p := Packet{Header: Header{Time: int64(draw()), SrcIP: IPv4(draw()), DstIP: IPv4(draw()), SrcPort: uint16(draw()),
			DstPort: uint16(draw()), Proto: uint8(draw()), Flags: TCPFlags(draw()), Seq: uint32(draw()),
			Ack: uint32(draw()), Len: uint16(draw())}}
		if n := rng.Intn(4); n > 0 { // nil, empty, short, longer
			p.Payload = make([]byte, (n-1)*rng.Intn(40))
			rng.Read(p.Payload)
		}
		check(AppendPacketNDJSON(nil, &p), PacketJSON{Time: p.Time, SrcIP: p.SrcIP.String(), DstIP: p.DstIP.String(),
			SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto, Flags: uint8(p.Flags),
			Seq: p.Seq, Ack: p.Ack, Len: p.Len, Payload: p.Payload})
	}
}
