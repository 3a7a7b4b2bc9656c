// Topology runs the paper's §5.3.2 analysis: cluster IP addresses by
// their hop-count vectors to a set of monitors — passive topology
// discovery — with differentially-private k-means.
//
//	go run ./examples/topology
//
// It demonstrates noisy Average imputation, GroupBy-assembled feature
// vectors that never leave the curtain, and iterative private k-means
// where each iteration draws one ε of budget (split between a count
// and per-coordinate sums per cluster, siblings free under Partition
// max-accounting).
package main

import (
	"fmt"

	"dptrace"
	"dptrace/internal/linalg"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

func main() {
	gen := tracegen.DefaultScatterConfig()
	gen.IPsPerCluster = 300
	records, truth := tracegen.IPScatter(gen)
	q, budget := dptrace.NewQueryable(records, 100, dptrace.NewSeededSource(51, 52))

	const (
		eps     = 1.0
		maxHops = 32.0
		k       = 9
		iters   = 8
	)
	monitors := gen.Monitors

	// Per-monitor noisy averages, used to impute missing readings.
	monitorKeys := make([]int32, monitors)
	for i := range monitorKeys {
		monitorKeys[i] = int32(i)
	}
	byMonitor := dptrace.Partition(q, monitorKeys, func(r trace.HopRecord) int32 { return r.Monitor })
	averages := make([]float64, monitors)
	for m, key := range monitorKeys {
		avg, err := dptrace.Average(byMonitor[key], eps,
			func(r trace.HopRecord) float64 { return float64(r.Hops) }, dptrace.WithBound(maxHops))
		if err != nil {
			panic(err)
		}
		averages[m] = avg
	}

	// One vector per IP, assembled behind the curtain.
	type vec struct{ coords []float64 }
	groups := dptrace.GroupBy(q, func(r trace.HopRecord) trace.IPv4 { return r.IP })
	vectors := dptrace.Select(groups, func(g dptrace.Group[trace.IPv4, trace.HopRecord]) vec {
		v := make([]float64, monitors)
		copy(v, averages)
		for _, r := range g.Items {
			if int(r.Monitor) < monitors {
				v[r.Monitor] = float64(r.Hops)
			}
		}
		return vec{v}
	})

	// Private k-means: assign inside the Partition's key function,
	// re-estimate centers from noisy sums/counts.
	state := linalg.NewKMeansState(k, monitors, 0, maxHops, 99)
	clusterKeys := make([]int, k)
	for i := range clusterKeys {
		clusterKeys[i] = i
	}
	epsShare := eps / float64(monitors+1)
	for it := 0; it < iters; it++ {
		centers := state.Centers
		parts := dptrace.Partition(vectors, clusterKeys, func(v vec) int {
			best, bestD := 0, -1.0
			for c, center := range centers {
				d := linalg.EuclideanDistSq(v.coords, center)
				if bestD < 0 || d < bestD {
					best, bestD = c, d
				}
			}
			return best
		})
		newCenters := make([][]float64, k)
		for c := 0; c < k; c++ {
			count, err := parts[c].NoisyCount(epsShare)
			if err != nil {
				panic(err)
			}
			if count < 1 {
				continue
			}
			center := make([]float64, monitors)
			for m := 0; m < monitors; m++ {
				coord := m
				sum, err := dptrace.Sum(parts[c], epsShare,
					func(v vec) float64 { return v.coords[coord] }, dptrace.WithBound(maxHops))
				if err != nil {
					panic(err)
				}
				center[m] = sum / count
			}
			newCenters[c] = center
		}
		state.Update(newCenters)
	}

	// Evaluation (outside the curtain, against ground truth): how
	// well do private clusters align with the latent topology?
	agree := 0
	total := 0
	assignOf := make(map[int]map[int]int) // latent cluster -> private cluster votes
	for ip, latent := range truth.ClusterOf {
		v := make([]float64, monitors)
		copy(v, averages)
		for _, r := range records {
			if r.IP == ip && int(r.Monitor) < monitors {
				v[r.Monitor] = float64(r.Hops)
			}
		}
		a := state.Assign(v)
		if assignOf[latent] == nil {
			assignOf[latent] = map[int]int{}
		}
		assignOf[latent][a]++
		total++
	}
	for _, votes := range assignOf {
		best := 0
		for _, n := range votes {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	fmt.Printf("clustered %d IPs into %d clusters (eps=%g per iteration, %d iterations)\n",
		total, k, eps, iters)
	fmt.Printf("majority-cluster purity vs latent topology: %.0f%%\n",
		100*float64(agree)/float64(total))
	fmt.Printf("privacy budget spent: %.2f\n", budget.Spent())
}
