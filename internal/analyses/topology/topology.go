// Package topology reproduces the paper's §5.3.2 analysis: passive
// network topology discovery (Eriksson, Barford & Nowak, SIGCOMM'08)
// under differential privacy. IP addresses are clustered by their
// hop-count vectors to a set of monitors; topologically close
// addresses have similar vectors.
//
// Following the paper, the private pipeline:
//
//  1. Measures each monitor's average hop count with a noisy Average,
//     to impute missing (IP, monitor) readings.
//  2. Assembles one vector per IP behind the privacy curtain (GroupBy
//     on IP with the imputation inside the transformation).
//  3. Runs differentially-private k-means: each iteration Partitions
//     the vectors by nearest center and re-estimates every center from
//     noisy per-cluster sums and counts; each iteration costs one ε.
//
// The paper chose k-means over the original Gaussian EM because EM's
// extra parameters (variances, weights) cost more budget per
// iteration; the non-private EM comparator lives in internal/linalg
// and the cost trade-off is exercised by the ablation bench.
package topology

import (
	"fmt"

	"dptrace/internal/core"
	"dptrace/internal/linalg"
	"dptrace/internal/trace"
)

// Config parameterizes the private clustering run.
type Config struct {
	Monitors int
	K        int // number of centers; the paper uses nine
	// MaxHops bounds hop values for clamping noisy sums; public
	// knowledge (TTL-derived distances are small).
	MaxHops float64
	// EpsilonImpute is spent (once, per monitor partition) on the
	// per-monitor average used to fill missing readings.
	EpsilonImpute float64
	// EpsilonPerIteration is the privacy cost of each k-means
	// iteration, split internally between per-cluster counts and
	// per-coordinate sums.
	EpsilonPerIteration float64
	Iterations          int
	// Seed initializes the shared starting centers; the paper uses a
	// common random set of vectors for every privacy level.
	Seed uint64
}

// Result carries the clustering trajectory.
type Result struct {
	// Objective[i] is the k-means objective (average distance of each
	// vector to its nearest center — Fig 5's "RMSE") after i
	// iterations; Objective[0] is the shared initialization.
	Objective []float64
	// Centers are the final cluster centers.
	Centers [][]float64
}

// HopVector is one IP's imputed hop-count vector; it stays behind
// the privacy curtain (only ever inside a Queryable).
type HopVector struct {
	coords []float64
}

// MonitorAverages measures each monitor's average hop count at
// privacy level epsilon, hop values clamped to [0, maxHops]: Partition
// by monitor, then one noisy average per part. Its total cost is
// epsilon because the parts are disjoint.
func MonitorAverages(q *core.Queryable[trace.HopRecord], monitors int, epsilon, maxHops float64) ([]float64, error) {
	if monitors <= 0 {
		return nil, fmt.Errorf("topology: need a positive monitor count, got %d", monitors)
	}
	monitorKeys := make([]int32, monitors)
	for i := range monitorKeys {
		monitorKeys[i] = int32(i)
	}
	byMonitor := core.Partition(q, monitorKeys, func(r trace.HopRecord) int32 { return r.Monitor })
	averages := make([]float64, monitors)
	for m, key := range monitorKeys {
		avg, err := core.NoisyAverageScaled(byMonitor[key], epsilon, maxHops,
			func(r trace.HopRecord) float64 { return float64(r.Hops) })
		if err != nil {
			return nil, fmt.Errorf("topology: monitor %d average: %w", m, err)
		}
		averages[m] = avg
	}
	return averages, nil
}

// AssembleVectors builds, behind the curtain, one hop-count vector per
// IP with missing monitors imputed from the noisy per-monitor
// averages (MonitorAverages at EpsilonImpute).
func AssembleVectors(q *core.Queryable[trace.HopRecord], cfg Config) (*core.Queryable[HopVector], []float64, error) {
	averages, err := MonitorAverages(q, cfg.Monitors, cfg.EpsilonImpute, cfg.MaxHops)
	if err != nil {
		return nil, nil, err
	}
	groups := core.GroupBy(q, func(r trace.HopRecord) trace.IPv4 { return r.IP })
	vectors := core.Select(groups, func(g core.Group[trace.IPv4, trace.HopRecord]) HopVector {
		v := make([]float64, cfg.Monitors)
		copy(v, averages)
		for _, r := range g.Items {
			if int(r.Monitor) < cfg.Monitors {
				v[r.Monitor] = float64(r.Hops)
			}
		}
		return HopVector{coords: v}
	})
	return vectors, averages, nil
}

// PrivateKMeans runs cfg.Iterations differentially-private Lloyd
// iterations from the seeded shared initialization. evalPoints, if
// non-nil, are the points the objective is evaluated against after
// each iteration — an evaluation-side computation (the paper plots it
// to compare privacy levels) that costs no budget because it never
// touches the protected Queryable.
func PrivateKMeans(vectors *core.Queryable[HopVector], cfg Config, evalPoints [][]float64) (*Result, error) {
	if cfg.K <= 0 || cfg.Iterations < 0 {
		return nil, fmt.Errorf("topology: invalid config k=%d iters=%d", cfg.K, cfg.Iterations)
	}
	state := linalg.NewKMeansState(cfg.K, cfg.Monitors, 0, cfg.MaxHops, cfg.Seed)
	res := &Result{}
	record := func() {
		if evalPoints != nil {
			res.Objective = append(res.Objective, state.Objective(evalPoints))
		}
	}
	record()
	// Split each iteration's budget over one count and Monitors sums
	// per cluster; sibling clusters are free under max-accounting.
	epsShare := cfg.EpsilonPerIteration / float64(cfg.Monitors+1)
	clusterKeys := make([]int, cfg.K)
	for i := range clusterKeys {
		clusterKeys[i] = i
	}
	for it := 0; it < cfg.Iterations; it++ {
		centers := state.Centers
		parts := core.Partition(vectors, clusterKeys, func(v HopVector) int {
			best, bestD := 0, -1.0
			for c, center := range centers {
				d := linalg.EuclideanDistSq(v.coords, center)
				if bestD < 0 || d < bestD {
					best, bestD = c, d
				}
			}
			return best
		})
		newCenters := make([][]float64, cfg.K)
		for c := 0; c < cfg.K; c++ {
			count, err := parts[c].NoisyCount(epsShare)
			if err != nil {
				return nil, fmt.Errorf("topology: iteration %d cluster %d: %w", it, c, err)
			}
			if count < 1 {
				continue // too little noisy mass; keep the old center
			}
			center := make([]float64, cfg.Monitors)
			for m := 0; m < cfg.Monitors; m++ {
				coord := m
				sum, err := core.NoisySumScaled(parts[c], epsShare, cfg.MaxHops,
					func(v HopVector) float64 { return v.coords[coord] })
				if err != nil {
					return nil, fmt.Errorf("topology: iteration %d cluster %d coord %d: %w", it, c, m, err)
				}
				center[m] = sum / count
			}
			newCenters[c] = center
		}
		state.Update(newCenters)
		record()
	}
	res.Centers = state.Centers
	return res, nil
}

// ExactKMeans runs the same trajectory without noise (the paper's
// "noise-free" curve): identical shared initialization, exact Lloyd
// steps, objective evaluated on the same points.
func ExactKMeans(points [][]float64, cfg Config) *Result {
	state := linalg.NewKMeansState(cfg.K, cfg.Monitors, 0, cfg.MaxHops, cfg.Seed)
	res := &Result{Objective: []float64{state.Objective(points)}}
	for it := 0; it < cfg.Iterations; it++ {
		state.LloydStep(points)
		res.Objective = append(res.Objective, state.Objective(points))
	}
	res.Centers = state.Centers
	return res
}

// ExactVectors assembles the noise-free hop vectors (exact per-monitor
// means for imputation) for evaluation and for the exact baseline.
func ExactVectors(records []trace.HopRecord, monitors int) [][]float64 {
	sums := make([]float64, monitors)
	counts := make([]float64, monitors)
	for _, r := range records {
		if int(r.Monitor) < monitors {
			sums[r.Monitor] += float64(r.Hops)
			counts[r.Monitor]++
		}
	}
	averages := make([]float64, monitors)
	for m := range averages {
		if counts[m] > 0 {
			averages[m] = sums[m] / counts[m]
		}
	}
	type slot struct {
		v []float64
	}
	order := make([]trace.IPv4, 0)
	byIP := make(map[trace.IPv4]*slot)
	for _, r := range records {
		s, ok := byIP[r.IP]
		if !ok {
			v := make([]float64, monitors)
			copy(v, averages)
			s = &slot{v: v}
			byIP[r.IP] = s
			order = append(order, r.IP)
		}
		if int(r.Monitor) < monitors {
			s.v[r.Monitor] = float64(r.Hops)
		}
	}
	out := make([][]float64, len(order))
	for i, ip := range order {
		out[i] = byIP[ip].v
	}
	return out
}
