package tracegen

import (
	"fmt"
	"testing"
)

// BenchmarkHotspot times a whole Hotspot build — the set-up cost of
// every experiment and benchmark that generates its trace — at the
// default configuration and at the ~650k packets the repository
// benchmark generates for its 500k-packet workload.
func BenchmarkHotspot(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  HotspotConfig
	}{
		{"default", DefaultHotspotConfig()},
		{fmt.Sprintf("scale=%.2f", largeScale), scaledHotspot(1, largeScale)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				packets, _ := Hotspot(c.cfg)
				n = len(packets)
			}
			b.ReportMetric(float64(n), "packets/op")
		})
	}
}
