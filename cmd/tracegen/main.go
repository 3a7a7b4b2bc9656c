// Command tracegen writes the synthetic hotspot packet trace to disk in
// the repository's binary trace format, for cmd/dpserver, cmd/dpquery
// or external tooling:
//
//	tracegen -kind hotspot -out hotspot.dptr -scale 1.0
//
// -scale multiplies the generator's record-count knobs; -seed makes
// runs reproducible. The link and hop datasets (tracegen.IspTraffic,
// tracegen.IPScatter) are built in memory by the experiments and
// examples that use them and have no file format.
package main

import (
	"flag"
	"fmt"
	"os"

	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func main() {
	kind := flag.String("kind", "hotspot", "dataset: hotspot")
	out := flag.String("out", "", "output file (required)")
	seed := flag.Uint64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 1.0, "record-count multiplier")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out is required")
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "tracegen: -scale must be positive")
		os.Exit(2)
	}
	if *kind != "hotspot" {
		fmt.Fprintf(os.Stderr, "tracegen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	cfg := tracegen.DefaultHotspotConfig()
	cfg.Seed = *seed
	cfg.Sessions = int(float64(cfg.Sessions) * *scale)
	cfg.BackgroundTotal = int(float64(cfg.BackgroundTotal) * *scale)
	cfg.StoneActivations = int(float64(cfg.StoneActivations) * *scale)
	packets, _ := tracegen.Hotspot(cfg)
	if err := trace.WritePackets(f, packets); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d packets to %s\n", len(packets), *out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
