package topology

import (
	"fmt"
	"math"

	"dptrace/internal/core"
	"dptrace/internal/linalg"
)

// emRecord is a hop vector beside its K responsibilities under one
// iteration's parameters; like HopVector it stays behind the curtain.
type emRecord struct {
	coords []float64
	resp   []float64
}

// PrivateGaussianEM is the clustering algorithm Eriksson et al.
// originally used, run under differential privacy — the option the
// paper declines ("Gaussian EM is also expressible, [but] has a higher
// privacy cost and is consequently less accurate").
//
// The cost asymmetry is structural. K-means hard-assigns every vector
// to one cluster, so the per-cluster statistics live in DISJOINT
// partitions and Partition's max-accounting prices a whole iteration
// at (d+1) noisy measurements. EM's responsibilities overlap: every
// record contributes to every component, so each of the K·(d+2)
// statistics (soft count, d weighted coordinate sums, and a weighted
// squared-distance sum per component) is a separate noisy sum over the
// WHOLE dataset, and their costs add. At an equal per-iteration
// budget, EM's per-measurement ε is K·(d+2)/(d+1) times smaller than
// k-means' — roughly K times more noise, which is exactly the
// "algorithmic complexity vs privacy cost" trade-off §5.3.2 calls out.
func PrivateGaussianEM(vectors *core.Queryable[HopVector], cfg Config, evalPoints [][]float64) (*Result, error) {
	if cfg.K <= 0 || cfg.Iterations < 0 {
		return nil, fmt.Errorf("topology: invalid config k=%d iters=%d", cfg.K, cfg.Iterations)
	}
	init := linalg.NewKMeansState(cfg.K, cfg.Monitors, 0, cfg.MaxHops, cfg.Seed)
	state := linalg.NewGaussianEMState(init.Centers)
	res := &Result{}
	record := func() {
		if evalPoints != nil {
			res.Objective = append(res.Objective, state.Objective(evalPoints))
		}
	}
	record()
	// K components × (1 soft count + Monitors coordinate sums + 1
	// squared-distance sum), every one a full-dataset measurement.
	epsShare := cfg.EpsilonPerIteration / float64(cfg.K*(cfg.Monitors+2))
	dim := float64(cfg.Monitors)
	varBound := cfg.MaxHops * cfg.MaxHops * dim

	for it := 0; it < cfg.Iterations; it++ {
		// The responsibilities are fixed for the iteration, so one
		// Select computes each record's K of them (public state + one
		// record in) and every measurement below reads them back. A
		// one-to-one Select charges nothing and amplifies nothing.
		// state changes only after the last measurement.
		weighted := core.Select(vectors, func(v HopVector) emRecord {
			logp := make([]float64, cfg.K)
			maxLog := math.Inf(-1)
			for k := 0; k < cfg.K; k++ {
				vr := state.Variances[k]
				if vr <= 0 {
					vr = 1e-9
				}
				logp[k] = math.Log(state.Weights[k]+1e-12) -
					0.5*dim*math.Log(2*math.Pi*vr) -
					linalg.EuclideanDistSq(v.coords, state.Means[k])/(2*vr)
				if logp[k] > maxLog {
					maxLog = logp[k]
				}
			}
			var denom float64
			for k := 0; k < cfg.K; k++ {
				denom += math.Exp(logp[k] - maxLog)
			}
			for k := range logp { // in place: log-densities to responsibilities
				logp[k] = math.Exp(logp[k]-maxLog) / denom
			}
			return emRecord{coords: v.coords, resp: logp}
		})

		newMeans := make([][]float64, cfg.K)
		newVars := make([]float64, cfg.K)
		newWeights := make([]float64, cfg.K)
		var totalResp float64
		for c := 0; c < cfg.K; c++ {
			comp := c
			softCount, err := core.NoisySum(weighted, epsShare, func(r emRecord) float64 {
				return r.resp[comp]
			})
			if err != nil {
				return nil, fmt.Errorf("topology: EM iteration %d component %d: %w", it, c, err)
			}
			if softCount < 1 {
				newMeans[c] = state.Means[c]
				newVars[c] = state.Variances[c]
				newWeights[c] = 1e-6
				continue
			}
			mean := make([]float64, cfg.Monitors)
			for m := 0; m < cfg.Monitors; m++ {
				coord := m
				s, err := core.NoisySumScaled(weighted, epsShare, cfg.MaxHops, func(r emRecord) float64 {
					return r.resp[comp] * r.coords[coord]
				})
				if err != nil {
					return nil, err
				}
				mean[m] = s / softCount
			}
			sq, err := core.NoisySumScaled(weighted, epsShare, varBound, func(r emRecord) float64 {
				return r.resp[comp] * linalg.EuclideanDistSq(r.coords, state.Means[comp])
			})
			if err != nil {
				return nil, err
			}
			newMeans[c] = mean
			newVars[c] = math.Max(sq/(softCount*dim), 1e-3)
			newWeights[c] = softCount
			totalResp += softCount
		}
		if totalResp <= 0 {
			totalResp = 1
		}
		for c := 0; c < cfg.K; c++ {
			state.Means[c] = newMeans[c]
			state.Variances[c] = newVars[c]
			state.Weights[c] = math.Max(newWeights[c]/totalResp, 1e-9)
		}
		record()
	}
	res.Centers = state.Means
	return res, nil
}
