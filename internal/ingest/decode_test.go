package ingest

import (
	"fmt"
	"reflect"
	"testing"

	"dptrace/internal/trace"
)

// decodeSeeds are batches of packets with every header field set and
// payloads of several sizes, in both wire formats, plus damaged copies.
func decodeSeeds() [][]byte {
	ps := testPackets(6)
	for i := range ps {
		p := &ps[i]
		p.SrcPort, p.DstPort, p.Flags = uint16(1000+i), uint16(80*i), trace.TCPFlags(i)
		p.Seq, p.Ack, p.Time = uint32(1<<31+i), uint32(7*i), -int64(i)
		p.Payload = make([]byte, 40*i)
		for j := range p.Payload {
			p.Payload[j] = byte(i + j)
		}
	}
	dptr, ndjson := trace.MarshalPacketsDPTR(ps), trace.MarshalPacketsNDJSON(ps)
	return [][]byte{dptr, ndjson, dptr[:len(dptr)-5], ndjson[:len(ndjson)-7], nil}
}

// FuzzDecodeKeepsHeaders: Decode runs the wire format's one parser and
// keeps each packet's header, so for any bytes, in either format, it
// must refuse exactly what the parser refuses, with the same error, and
// otherwise return, in order, headers whose every field equals the one
// the full packet decode reads.
func FuzzDecodeKeepsHeaders(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct {
			contentType string
			parse       func([]byte) ([]trace.Packet, error)
		}{
			{ContentTypeDPTR, trace.ParsePacketsDPTR},
			{ContentTypeNDJSON, trace.ParsePacketsNDJSON},
		} {
			d, err := Decode(KindPacket, c.contentType, data)
			packets, perr := c.parse(data)
			if fmt.Sprint(err) != fmt.Sprint(perr) {
				t.Fatalf("%s: Decode err %v, parser err %v", c.contentType, err, perr)
			}
			if err != nil {
				continue
			}
			if d.Records() != len(packets) {
				t.Fatalf("%s: Decode kept %d records, the parser read %d", c.contentType, d.Records(), len(packets))
			}
			for i := range packets {
				if path, ok := headerDiff(d.Headers[i], packets[i]); !ok {
					t.Fatalf("%s: record %d: %s", c.contentType, i, path)
				}
			}
		}
	})
}

// headerDiff compares h with p field by field, by name, so a field
// added to Header is compared without a change here.
func headerDiff(h trace.Header, p trace.Packet) (string, bool) {
	hv, pv := reflect.ValueOf(h), reflect.ValueOf(p)
	for i := 0; i < hv.NumField(); i++ {
		name := hv.Type().Field(i).Name
		if got, want := hv.Field(i).Interface(), pv.FieldByName(name).Interface(); got != want {
			return fmt.Sprintf("%s is %v, the packet's is %v", name, got, want), false
		}
	}
	return "", true
}
