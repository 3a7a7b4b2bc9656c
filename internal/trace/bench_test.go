package trace_test

import (
	"bytes"
	"sync"
	"testing"

	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

// The codec benchmarks run on one ingest-sized batch of generated
// Hotspot packets, the records the repository benchmark posts; the
// DPTR pair gives the text codec its scale.
const benchBatch = 1000

// generated once: the testing package calls each benchmark several
// times while it settles on b.N.
var hotspot = sync.OnceValue(func() []trace.Packet {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Sessions, cfg.BackgroundTotal, cfg.StoneActivations = cfg.Sessions/20, cfg.BackgroundTotal/20, cfg.StoneActivations/20
	packets, _ := tracegen.Hotspot(cfg)
	return packets
})

func benchPackets(b *testing.B) []trace.Packet {
	b.Helper()
	packets := hotspot()
	if len(packets) < benchBatch {
		b.Fatalf("generated %d packets, need %d", len(packets), benchBatch)
	}
	return packets[:benchBatch]
}

func BenchmarkParsePacketsNDJSON(b *testing.B) {
	data := trace.MarshalPacketsNDJSON(benchPackets(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ParsePacketsNDJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalPacketsNDJSON(b *testing.B) {
	packets := benchPackets(b)
	b.SetBytes(int64(len(trace.MarshalPacketsNDJSON(packets))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(trace.MarshalPacketsNDJSON(packets)) == 0 {
			b.Fatal("empty batch")
		}
	}
}

func BenchmarkReadPacketsDPTR(b *testing.B) {
	var buf bytes.Buffer
	if err := trace.WritePackets(&buf, benchPackets(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadPackets(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWritePacketsDPTR(b *testing.B) {
	packets := benchPackets(b)
	var buf bytes.Buffer
	if err := trace.WritePackets(&buf, packets); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WritePackets(&buf, packets); err != nil {
			b.Fatal(err)
		}
	}
}
