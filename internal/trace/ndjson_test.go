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
		{Time: 1000, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2),
			SrcPort: 443, DstPort: 51000, Proto: 6, Flags: FlagSYN | FlagACK,
			Seq: 7, Ack: 9, Len: 1200, Payload: []byte("hello")},
		{Time: 2000, SrcIP: MakeIPv4(192, 168, 1, 5), DstIP: MakeIPv4(8, 8, 8, 8),
			Proto: 17, Len: 64},
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

func TestLinkSamplesNDJSONRoundTrip(t *testing.T) {
	in := []LinkSample{{Link: 3, Bin: 12}, {Link: 0, Bin: 0}}
	out, err := ParseLinkSamplesNDJSON(MarshalLinkSamplesNDJSON(in))
	if err != nil {
		t.Fatalf("ParseLinkSamplesNDJSON: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("expected %d samples, got %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("sample %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestHopRecordsNDJSONRoundTrip(t *testing.T) {
	in := []HopRecord{
		{Monitor: 1, IP: MakeIPv4(172, 16, 0, 9), Hops: 14},
		{Monitor: 2, IP: MakeIPv4(10, 1, 2, 3), Hops: 3},
	}
	out, err := ParseHopRecordsNDJSON(MarshalHopRecordsNDJSON(in))
	if err != nil {
		t.Fatalf("ParseHopRecordsNDJSON: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("expected %d records, got %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("record %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestParseNDJSONSkipsBlankLines(t *testing.T) {
	data := []byte("\n{\"link\":1,\"bin\":2}\n\n  \n{\"link\":3,\"bin\":4}\n\n")
	out, err := ParseLinkSamplesNDJSON(data)
	if err != nil {
		t.Fatalf("ParseLinkSamplesNDJSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("expected 2 samples, got %d", len(out))
	}
}

func TestParseNDJSONNoTrailingNewline(t *testing.T) {
	data := []byte(`{"link":1,"bin":2}`)
	out, err := ParseLinkSamplesNDJSON(data)
	if err != nil || len(out) != 1 {
		t.Fatalf("expected 1 sample, got %d (err=%v)", len(out), err)
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

func TestParseLinkSamplesNDJSONRejectsNegative(t *testing.T) {
	if _, err := ParseLinkSamplesNDJSON([]byte(`{"link":-1,"bin":0}`)); err == nil {
		t.Fatal("expected error for negative link")
	}
}

func TestParseHopRecordsNDJSONRejectsNegativeMonitor(t *testing.T) {
	if _, err := ParseHopRecordsNDJSON([]byte(`{"monitor":-1,"ip":"1.2.3.4","hops":2}`)); err == nil {
		t.Fatal("expected error for negative monitor")
	}
}

// Nothing may follow a line's object, for every record kind, whether
// the object itself is canonical (fast path up to the closing brace)
// or needs encoding/json (here: an escaped key).
func TestParseNDJSONRefusesTrailingData(t *testing.T) {
	parsers := map[string]func([]byte) error{
		"packet": func(b []byte) error { _, err := ParsePacketsNDJSON(b); return err },
		"link":   func(b []byte) error { _, err := ParseLinkSamplesNDJSON(b); return err },
		"hop":    func(b []byte) error { _, err := ParseHopRecordsNDJSON(b); return err },
	}
	objects := map[string][]string{
		"packet": {`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`, `{"srcIP":"1.2.3.4","dst\u0049P":"5.6.7.8"}`},
		"link":   {`{"link":1,"bin":2}`, `{"link":1,"b\u0069n":2}`},
		"hop":    {`{"monitor":1,"ip":"1.2.3.4","hops":3}`, `{"monitor":1,"\u0069p":"1.2.3.4","hops":3}`},
	}
	for kind, parse := range parsers {
		for _, obj := range objects[kind] {
			if err := parse([]byte(obj + " \t\r\n")); err != nil {
				t.Errorf("%s %s alone: %v", kind, obj, err)
			}
			for _, tail := range []string{obj, " garbage", "}", ",", " 1", "\v{}"} {
				err := parse([]byte(obj + "\n" + obj + tail))
				if err == nil || !strings.Contains(err.Error(), "trace: ndjson line 2: more than one JSON value") {
					t.Errorf("%s %s%s: got %v, want a line-2 trailing-data refusal", kind, obj, tail, err)
				}
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
		{SrcIP: 0, DstIP: 0}, // every omitempty field absent
		{Time: 1000, SrcIP: MakeIPv4(10, 0, 0, 1), DstIP: MakeIPv4(10, 0, 0, 2), SrcPort: 443, DstPort: 51000,
			Proto: ProtoTCP, Flags: FlagSYN | FlagACK, Seq: 7, Ack: 9, Len: 1200, Payload: []byte("hello")},
		{Time: 2000, SrcIP: MakeIPv4(192, 168, 1, 5), DstIP: MakeIPv4(8, 8, 8, 8), Proto: ProtoUDP, Len: 64},
		{Time: math.MinInt64, SrcIP: math.MaxUint32, DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16,
			Proto: math.MaxUint8, Flags: math.MaxUint8, Seq: math.MaxUint32, Ack: math.MaxUint32, Len: math.MaxUint16,
			Payload: []byte{0xfb, 0xff, 0xfe, 0x00}}, // base64 "+//+AA=="
		{Time: math.MaxInt64, SrcIP: MakeIPv4(1, 20, 255, 0), DstIP: 1, Payload: []byte{0}},
	}
	assertFast(t, &packetShape, MarshalPacketsNDJSON(packets), packets)
	links := []LinkSample{{}, {Link: 3, Bin: 12}, {Link: math.MaxInt32, Bin: math.MaxInt32}}
	assertFast(t, &linkShape, MarshalLinkSamplesNDJSON(links), links)
	hops := []HopRecord{{}, {Monitor: 1, IP: MakeIPv4(172, 16, 0, 9), Hops: 14},
		{Monitor: math.MaxInt32, IP: math.MaxUint32, Hops: math.MinInt32}, {Hops: math.MaxInt32}}
	assertFast(t, &hopShape, MarshalHopRecordsNDJSON(hops), hops)
}

// The append encoders must produce json.Marshal's bytes for the *JSON
// structs: senders and trace.ndjson_bytes_per_rec see no difference.
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
		p := Packet{Time: int64(draw()), SrcIP: IPv4(draw()), DstIP: IPv4(draw()), SrcPort: uint16(draw()),
			DstPort: uint16(draw()), Proto: uint8(draw()), Flags: TCPFlags(draw()), Seq: uint32(draw()),
			Ack: uint32(draw()), Len: uint16(draw())}
		if n := rng.Intn(4); n > 0 { // nil, empty, short, longer
			p.Payload = make([]byte, (n-1)*rng.Intn(40))
			rng.Read(p.Payload)
		}
		check(AppendPacketNDJSON(nil, &p), PacketJSON{Time: p.Time, SrcIP: p.SrcIP.String(), DstIP: p.DstIP.String(),
			SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto, Flags: uint8(p.Flags),
			Seq: p.Seq, Ack: p.Ack, Len: p.Len, Payload: p.Payload})
		l := LinkSample{Link: int32(draw()), Bin: int32(draw())}
		check(AppendLinkSampleNDJSON(nil, l), LinkSampleJSON{Link: l.Link, Bin: l.Bin})
		h := HopRecord{Monitor: int32(draw()), IP: IPv4(draw()), Hops: int32(draw())}
		check(AppendHopRecordNDJSON(nil, h), HopRecordJSON{Monitor: h.Monitor, IP: h.IP.String(), Hops: h.Hops})
	}
}
