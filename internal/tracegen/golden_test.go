package tracegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dptrace/internal/trace"
)

// scaledHotspot is the default configuration with every volume knob
// scaled by f, the way the repository benchmark sizes its traces.
func scaledHotspot(seed uint64, f float64) HotspotConfig {
	cfg := DefaultHotspotConfig()
	cfg.Seed = seed
	cfg.Sessions = int(math.Ceil(float64(cfg.Sessions) * f))
	cfg.BackgroundTotal = int(math.Ceil(float64(cfg.BackgroundTotal) * f))
	cfg.StoneActivations = int(math.Ceil(float64(cfg.StoneActivations) * f))
	return cfg
}

// largeScale sizes scaledHotspot like the benchmark's 500k-packet
// trace before its cut: about 650k packets.
const largeScale = 1.2 * 500_000 / 2.6e5

// traceDigest is the SHA-256 of the trace's DPTR encoding.
func traceDigest(t testing.TB, packets []trace.Packet) string {
	t.Helper()
	h := sha256.New()
	if err := trace.WritePackets(h, packets); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHotspotGolden pins the generator's output byte for byte. The
// hashes were recorded before the time order moved from
// sort.SliceStable to trace.TimeOrder: any change to which packets are
// generated or to their order — ties included — breaks them, and with
// them the result digests every benchmark run checks.
func TestHotspotGolden(t *testing.T) {
	// smallHotspot spreads its ~14k packets over 600 s, where two
	// microsecond timestamps rarely meet; squeezed into 5 s they do.
	small := func(seed uint64) HotspotConfig {
		cfg := smallHotspot()
		cfg.Seed = seed
		cfg.Duration = 5
		return cfg
	}
	cases := []struct {
		cfg     HotspotConfig
		packets int
		sha256  string
	}{
		{small(1), 13750, "39765e8f91725583a9f023b4cee5bbae2e1615ba085a3adece0d4f7ad1355fa7"},
		{small(2), 14253, "7a7bb7491ae78bd26fb49006f9d54ec6e376e385adb6977dee2a44c57b758ddc"},
		{scaledHotspot(1, largeScale), 658539, "849a5c9ade3e878513744047061063b54078aa133d268d9feb2edb8180b37884"},
		{scaledHotspot(4, largeScale), 656813, "aae9988ed139309acc0d92ed48f8437be24c294812bb6415f31c22b2dfa1279f"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("sessions=%d/seed=%d", c.cfg.Sessions, c.cfg.Seed), func(t *testing.T) {
			packets, _ := Hotspot(c.cfg)
			ties := 0
			for i := 1; i < len(packets); i++ {
				if packets[i].Time == packets[i-1].Time {
					ties++
				}
			}
			// Without equal timestamps the digest could not tell a
			// stable order from an unstable one.
			if ties == 0 {
				t.Fatal("no two packets share a timestamp")
			}
			if got := traceDigest(t, packets); len(packets) != c.packets || got != c.sha256 {
				t.Errorf("%d packets, sha256 %s; want %d, %s", len(packets), got, c.packets, c.sha256)
			}
		})
	}
}
