// Package experiments regenerates every table and figure of the
// paper's evaluation on the synthetic substitute datasets. Each
// experiment has a Run function returning a structured result with a
// String method that prints the same rows/series the paper reports;
// cmd/experiments drives them all and bench_test.go wraps each in a
// testing.B benchmark.
//
// The datasets are generated once per process and shared across
// experiments (they are read-only); every experiment wraps them in a
// fresh Queryable with its own budget, exactly as a data owner would
// host one dataset for many analyses. A figure whose curves measure
// one derived dataset derives it once for all of them (curves.go).
package experiments

import (
	"sync"

	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

// Epsilons are the paper's three privacy levels: strong, medium, weak.
var Epsilons = []float64{0.1, 1.0, 10.0}

// hotspotData bundles the Hotspot trace with its ground truth.
type hotspotData struct {
	cfg     tracegen.HotspotConfig
	packets []trace.Packet
	truth   *tracegen.HotspotTruth
}

var (
	hotspotOnce sync.Once
	hotspotD    *hotspotData
)

// hotspot returns the shared experiment-grade Hotspot trace
// (~3·10⁵ packets with all planted features).
func hotspot() *hotspotData {
	hotspotOnce.Do(func() {
		cfg := tracegen.DefaultHotspotConfig()
		packets, truth := tracegen.Hotspot(cfg)
		hotspotD = &hotspotData{cfg: cfg, packets: packets, truth: truth}
	})
	return hotspotD
}

var (
	sparseOnce sync.Once
	sparseD    *hotspotData
)

// hotspotSparse returns a low-signal stepping-stone trace: the same
// planted structure but only ~60 activations per flow, so the mined
// pair support sits near the ε=0.1 noise floor. The paper's trace hit
// this regime at its full activation counts because its wireless data
// was dense; ours reaches it by thinning the signal instead (see
// EXPERIMENTS.md).
func hotspotSparse() *hotspotData {
	sparseOnce.Do(func() {
		cfg := tracegen.DefaultHotspotConfig()
		cfg.Seed = 4
		cfg.Sessions = 300
		cfg.Worms = 0
		cfg.LowDispersionPayloads = 0
		cfg.BackgroundStrings = 0
		cfg.BackgroundTotal = 0
		cfg.StonePairs = 22
		cfg.DecoyFlows = 20
		cfg.StoneActivations = 60
		cfg.Duration = 600
		packets, truth := tracegen.Hotspot(cfg)
		sparseD = &hotspotData{cfg: cfg, packets: packets, truth: truth}
	})
	return sparseD
}

// ispData bundles the IspTraffic samples with ground truth.
type ispData struct {
	cfg     tracegen.IspConfig
	samples []trace.LinkSample
	truth   *tracegen.IspTruth
}

var (
	ispOnce sync.Once
	ispD    *ispData
)

// isp returns the shared IspTraffic dataset: 100 links × 336 bins at
// ~200 packets/bin (≈ 6.7M records), with the paper's signature
// anomaly around time bin 270. The paper's 15.7B-record trace is
// scaled down ~2000×; the analysis consumes only per-cell counts, so
// the scaling rescales the Fig 4 y-axis without changing its shape.
func isp() *ispData {
	ispOnce.Do(func() {
		cfg := tracegen.IspConfig{
			Seed:              2,
			Links:             100,
			Bins:              336,
			MeanPacketsPerBin: 200,
			NoiseFrac:         0.05,
			Anomalies: []tracegen.AnomalySpec{
				{StartBin: 268, Duration: 5, Links: []int{12, 13, 14, 15}, Factor: 5},
				{StartBin: 120, Duration: 3, Links: []int{60, 61}, Factor: 4},
			},
		}
		samples, truth := tracegen.IspTraffic(cfg)
		ispD = &ispData{cfg: cfg, samples: samples, truth: truth}
	})
	return ispD
}

// anomalyRank is the PCA rank used for the Fig 4 pipeline: the
// generator's normal traffic has (after column centering) two diurnal
// degrees of freedom (sin and cos mixtures across link phases).
const anomalyRank = 2

// scatterData bundles the IPscatter records with ground truth.
type scatterData struct {
	cfg     tracegen.ScatterConfig
	records []trace.HopRecord
	truth   *tracegen.ScatterTruth
}

var (
	scatterOnce sync.Once
	scatterD    *scatterData
)

// scatter returns the shared IPscatter dataset: 38 monitors, nine
// latent clusters (the paper clusters with nine centers), ~3600 IPs.
func scatter() *scatterData {
	scatterOnce.Do(func() {
		cfg := tracegen.DefaultScatterConfig()
		cfg.IPsPerCluster = 400
		records, truth := tracegen.IPScatter(cfg)
		scatterD = &scatterData{cfg: cfg, records: records, truth: truth}
	})
	return scatterD
}
