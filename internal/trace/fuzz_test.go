package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadPackets hardens the trace reader against corrupt or
// adversarial inputs: it must never panic or over-allocate, only
// return errors.
func FuzzReadPackets(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	var buf bytes.Buffer
	if err := WritePackets(&buf, []Packet{
		{Time: 1, SrcIP: 2, DstIP: 3, SrcPort: 4, DstPort: 5,
			Proto: ProtoTCP, Flags: FlagSYN, Seq: 6, Ack: 7, Len: 40,
			Payload: []byte("hello")},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("DPTR"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[20] = 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := ReadPackets(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Successful parses must round-trip identically.
		var out bytes.Buffer
		if err := WritePackets(&out, pkts); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadPackets(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(pkts) {
			t.Fatalf("round trip changed count: %d -> %d", len(pkts), len(again))
		}
	})
}

// FuzzDecodeDPTR holds the packet batch decoder to the file reader on
// arbitrary bytes. The reader is fed at
// most chunk bytes per Read, so records straddle window refills. The
// two must return equal records (payload bytes included) or both fail,
// except that a batch must also refuse bytes after its declared
// records, which a reader leaves unread: then the batch cut at the
// offset the refusal names decodes to the reader's records.
func FuzzDecodeDPTR(f *testing.F) {
	packets := MarshalPacketsDPTR([]Packet{
		{Time: 1, SrcIP: 2, DstIP: 3, Proto: ProtoTCP, Len: 40, Payload: []byte("hello")},
		{Time: -1, Payload: bytes.Repeat([]byte{7}, 200)},
		{Seq: 9},
	})
	empty := MarshalPacketsDPTR(nil)
	// Payload lengths across the one- to two-byte varint boundary.
	boundary := MarshalPacketsDPTR([]Packet{{Payload: bytes.Repeat([]byte{1}, 127)}, {Len: 9, Payload: bytes.Repeat([]byte{2}, 128)}})
	for _, body := range [][]byte{packets, empty, boundary} {
		f.Add(uint8(0), body)
		f.Add(uint8(3), body[:len(body)-3])
		f.Add(uint8(5), append(body[:len(body):len(body)], 0))
	}
	// A non-minimal varint payload length, and a count with no records.
	long := append(append([]byte(nil), packets[:headerSize+packetFixed]...), 0x85, 0x00, 'h', 'e', 'l', 'l', 'o')
	binary.LittleEndian.PutUint64(long[8:16], 1)
	f.Add(uint8(1), long)
	f.Add(uint8(0), appendHeader(nil, KindPacket, 1<<40))
	f.Add(uint8(0), []byte("DPTR"))

	f.Fuzz(func(t *testing.T, chunk uint8, data []byte) {
		n := int(chunk%16) + 1
		diffDecode(t, "packet", data, n, decodePackets, ParsePacketsDPTR, MarshalPacketsDPTR)
	})
}

func diffDecode[T any](t *testing.T, kind string, data []byte, chunk int,
	decode func(*window) ([]T, error), parse func([]byte) ([]T, error), marshal func([]T) []byte) {
	t.Helper()
	file, ferr := decode(newReadWindow(&chunkReader{data: data, n: chunk}))
	batch, berr := parse(data)
	switch {
	case ferr != nil:
		if berr == nil {
			t.Fatalf("%s: batch decoded what the reader refused (%v)", kind, ferr)
		}
		return
	case berr == nil:
		if !reflect.DeepEqual(batch, file) {
			t.Fatalf("%s: batch and reader records differ", kind)
		}
		// The records end exactly at the body's end only if losing
		// the last byte truncates them.
		if _, err := parse(data[:len(data)-1]); err == nil {
			t.Fatalf("%s: the batch decodes without its last byte too: trailing bytes accepted", kind)
		}
	default:
		var end int
		if !errors.Is(berr, ErrTrailingData) {
			t.Fatalf("%s: reader decoded %d records, batch refused: %v", kind, len(file), berr)
		} else if _, err := fmt.Sscanf(berr.Error()[strings.Index(berr.Error(), "at offset "):], "at offset %d,", &end); err != nil || end >= len(data) {
			t.Fatalf("%s: %q names no offset inside the batch", kind, berr)
		}
		if batch, berr = parse(data[:end]); berr != nil || !reflect.DeepEqual(batch, file) {
			t.Fatalf("%s: the batch up to offset %d: %v, or records differ from the reader's", kind, end, berr)
		}
	}
	// Records decoded re-encode to a batch that decodes to them again.
	again, err := parse(marshal(batch))
	if err != nil || !reflect.DeepEqual(again, batch) {
		t.Fatalf("%s: round trip: %v", kind, err)
	}
}

// chunkReader returns at most n bytes per Read. Like a bytes.Reader,
// it reports the bytes it has left.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Len() int { return len(r.data) }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// refDecode and refParse spell the NDJSON contract with encoding/json
// alone: each non-blank line is one value that a strict Decoder
// accepts, followed by nothing but EOF.
func refDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("more than one JSON value on the line")
	}
	return nil
}

func refParse[J, T any](data []byte, convert func(*J) (T, string, error)) ([]T, error) {
	out := []T{}
	for n, raw := range bytes.Split(data, []byte("\n")) {
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		var j J
		err := refDecode(raw, &j)
		what := ":"
		if err == nil {
			var rec T
			if rec, what, err = convert(&j); err == nil {
				out = append(out, rec)
				continue
			}
		}
		return nil, fmt.Errorf("trace: ndjson line %d%s %w", n+1, what, err)
	}
	return out, nil
}

func refPacket(pj *PacketJSON) (Packet, string, error) {
	src, err := ParseIPv4(pj.SrcIP)
	if err != nil {
		return Packet{}, " srcIP:", err
	}
	dst, err := ParseIPv4(pj.DstIP)
	if err != nil {
		return Packet{}, " dstIP:", err
	}
	return Packet{Time: pj.Time, SrcIP: src, DstIP: dst, SrcPort: pj.SrcPort, DstPort: pj.DstPort, Proto: pj.Proto,
		Flags: TCPFlags(pj.Flags), Seq: pj.Seq, Ack: pj.Ack, Len: pj.Len, Payload: pj.Payload}, "", nil
}

// agree fails unless the parser under test and the reference accept
// the same batches with the same records (nil and empty payloads
// apart) and refuse the rest in the same words.
func agree[T any](t *testing.T, kind string, data []byte, got []T, gotErr error, want []T, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s %q: parser says %v, encoding/json says %v", kind, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: parser decoded %+v, encoding/json %+v", kind, data, got, want)
	}
}

// FuzzNDJSONLine is the differential check behind the fast path: on
// arbitrary bytes, the NDJSON packet parser must be indistinguishable
// from encoding/json plus the nothing-after-the-object rule.
func FuzzNDJSONLine(f *testing.F) {
	// Every seed uses packet keys: an unknown key would defer (and
	// refuse) the line before the interesting token is reached.
	for _, seed := range []string{
		// canonical and Python-spaced
		`{"time":1000,"srcIP":"10.0.0.1","dstIP":"10.0.0.2","srcPort":443,"dstPort":51000,"proto":6,"flags":18,"seq":7,"ack":9,"len":1200,"payload":"aGVsbG8="}`,
		`{"time": 1, "srcIP": "1.2.3.4", "dstIP": "5.6.7.8", "len": 1}`,
		`{"time":0,"srcIP":"0.0.0.0","dstIP":"0.0.0.0","len":0}`,
		`{"srcIP":"172.16.0.9","dstIP":"10.0.0.1","dstPort":80,"len":14}`,
		// case-folded keys
		`{"TIME":1,"SrcIp":"1.2.3.4","dstip":"5.6.7.8","LEN":1}`,
		`{"Time":1,"SRCIP":"1.2.3.4","DstIP":"5.6.7.8","Payload":"aGk="}`,
		`{"srcip":"1.2.3.4","dstIP":"5.6.7.8","DstPort":80,"lEn":3}`,
		// escapes in keys and values
		`{"t\u0069me":1,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.\u0034","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"a\/\/+"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"aGk=\""}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","\u006cen":2}`,
		`{"srcIP":"1.2.3.4","dstIP":"\u0035.6.7.8"}`,
		// duplicate keys: the last one wins
		`{"time":1,"time":2,"srcIP":"1.2.3.4","srcIP":"9.9.9.9","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"aGk=","payload":""}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":1,"len":2}`,
		`{"srcIP":"1.1.1.1","dstIP":"5.6.7.8","dstIP":"2.2.2.2"}`,
		// null
		`{"time":null,"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":null}`,
		`{"srcIP":null,"dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":null}`,
		`{"srcIP":"1.2.3.4","dstIP":null}`,
		`null`,
		// -0, leading zeros, fractions and exponents
		`{"time":-0,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":-0}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","srcPort":-0}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","seq":-0,"ack":0}`,
		`{"time":01,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":-01,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","proto":06,"flags":00}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":01}`,
		`{"time":1e3,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","dstPort":1e3,"len":1.0}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":1.5}`,
		`{"time":-,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		// integer range edges
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","srcPort":65535,"proto":255}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","srcPort":65536}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","proto":256}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","seq":4294967295,"ack":4294967296}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","seq":-1}`,
		`{"time":9223372036854775807,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":9223372036854775808,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":-9223372036854775808,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":-9223372036854775809,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":18446744073709551616,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"time":123456789012345678901234567890,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","dstPort":65535,"len":65536}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":-1}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","flags":-1}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","flags":256}`,
		`{"time":-1,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","dstPort":-65536}`,
		// addresses
		`{"srcIP":"1.2.3.04","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"1.2.3.4.5"}`,
		`{"srcIP":"1.2.3.4.","dstIP":"5.6.7.8"}`,
		`{"srcIP":".1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1..2.3","dstIP":"5.6.7.8"}`,
		`{"srcIP":"0.0.0.0","dstIP":"255.255.255.255"}`,
		`{"srcIP":"","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4"}`,
		`{"dstIP":"1.2.3.4"}`,
		`{"srcIP":"::1","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"::ffff:1.2.3.4"}`,
		`{"srcIP":"256.1.1.1","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"1.2.3.0004"}`,
		`{"srcIP":"fe80::1%eth0","dstIP":"5.6.7.8"}`,
		`{"time":1,"len":2}`,
		// payloads
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"aGVsbG8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":""}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"aGVs\nbG8="}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"aGk=aGk="}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"a-_="}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":"+//+AA=="}`,
		"{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"payload\":\"aGk=\"}\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"payload\":\"\"}\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"payload\":\"eW8=\"}",
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","payload":12}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":"12"}`,
		// structure and whitespace
		`{}`,
		`{ }`,
		"{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\r\n{\"srcIP\":\"5.6.7.8\",\"dstIP\":\"1.2.3.4\",\"len\":4}\r\n",
		"{\t\"srcIP\"\t:\t\"1.2.3.4\"\t,\t\"dstIP\"\t:\t\"5.6.7.8\"\t,\t\"len\"\t:\t2\t}\t",
		"\n\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\n   \n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":3}\n",
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":4}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":2} garbage`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":2}}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":2,}`,
		`{"srcIP":"1.2.3.4" "dstIP":"5.6.7.8"}`,
		`{"time" 1,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{,"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","bogus":true}`,
		`{"len":2,"dstIP":"5.6.7.8","srcIP":"1.2.3.4"}`,
		`{"payload":"aGk=","dstPort":80,"srcIP":"1.2.3.4","dstIP":"5.6.7.8","time":1}`,
		"{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\v",
		"{\"srcIP\":\"1.2.3.4\",\v\"dstIP\":\"5.6.7.8\"}",
		"\u00a0{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\u0085",
		"{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"l\x80n\":2}",
		"{\"srcIP\":\"1.2.3.4\x7f\",\"dstIP\":\"5.6.7.8\"}",
		`[{"srcIP":"1.2.3.4","dstIP":"5.6.7.8"}]`,
		`{"srcIP":"1.2.3.4","dstIP":"5.6.7.8","len":1`,
		`{"srcIP":"1.2.3.4`,
		`"srcIP"`,
		`7`,
		// a bad line behind blank lines, another after it: the first wins
		"{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\"}\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":4}\n\n\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":-5}\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":6}\n{\"len\":x}\n{\"srcIP\":\"1.2.3.4\",\"dstIP\":\"5.6.7.8\",\"len\":7}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		packets, err := ParsePacketsNDJSON(data)
		wantPackets, wantErr := refParse(data, refPacket)
		agree(t, "packets", data, packets, err, wantPackets, wantErr)
		samePieces(t, "packets", data, &packetShape)
	})
}

// samePieces fails unless the batch decodes in 2 and 3 forced pieces
// exactly as in one: the same records, the same error and the same
// number of lines answered by the fast path.
func samePieces[T any](t *testing.T, kind string, data []byte, sh *shape[T]) {
	t.Helper()
	want, wantFast, wantErr := parseNDJSONIn(data, sh, 1)
	for pieces := 2; pieces <= 3; pieces++ {
		got, fast, err := parseNDJSONIn(data, sh, pieces)
		agree(t, fmt.Sprintf("%s in %d pieces", kind, pieces), data, got, err, want, wantErr)
		if fast != wantFast {
			t.Fatalf("%s in %d pieces %q: %d lines took the fast path, %d in one piece", kind, pieces, data, fast, wantFast)
		}
	}
}
