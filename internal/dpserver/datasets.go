package dpserver

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/trace"
)

// This file extends the server to the paper's other two dataset kinds:
// de-aggregated link traces (IspTraffic-shaped) and hop-count traces
// (IPscatter-shaped), with the queries their analyses start from.

// linkDataset hosts LinkSample records. Like dataset.packets, the
// samples slice is replaced wholesale under s.mu's write lock on
// ingest; executors run against a snapshot captured under the read
// lock.
type linkDataset struct {
	samples         []trace.LinkSample
	links           int
	bins            int
	policy          *core.AnalystPolicy
	ingestedBatches uint64
}

// hopDataset hosts HopRecord records (same snapshot discipline).
type hopDataset struct {
	records         []trace.HopRecord
	monitors        int
	policy          *core.AnalystPolicy
	ingestedBatches uint64
}

// AddLinkTrace registers a de-aggregated link trace with the given
// dimensions and budgets. Like AddPacketTrace, it refuses name
// collisions (ErrDatasetExists) rather than discard a spent-budget
// ledger.
func (s *Server) AddLinkTrace(name string, samples []trace.LinkSample, links, bins int, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nameTaken(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &linkDataset{
		samples: samples, links: links, bins: bins,
		policy: core.NewAnalystPolicy(totalBudget, perAnalystBudget),
	}
	if err := s.registerDataset(name, kindLink, d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.linkSets[name] = d
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

// AddHopTrace registers a hop-count trace, refusing name collisions
// (ErrDatasetExists).
func (s *Server) AddHopTrace(name string, records []trace.HopRecord, monitors int, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nameTaken(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &hopDataset{
		records: records, monitors: monitors,
		policy: core.NewAnalystPolicy(totalBudget, perAnalystBudget),
	}
	if err := s.registerDataset(name, kindHop, d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.hopSets[name] = d
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

// MatrixRequest is the POST /v1/query/loadmatrix body (see
// api.MatrixRequest): extract the full noisy link×bin count matrix
// (the Fig 4 pipeline's first step) at one ε.
type MatrixRequest = api.MatrixRequest

// MatrixResponse carries the matrix in row-major order (rows = bins).
type MatrixResponse = api.MatrixResponse

func (s *Server) handleLoadMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" || req.Dataset == "" || req.Epsilon <= 0 {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst, dataset and positive epsilon required"})
		return
	}
	s.mu.RLock()
	d, ok := s.linkSets[req.Dataset]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown link dataset %q", req.Dataset)})
		return
	}
	// NOTE: the executor captures its record snapshot itself (under
	// s.mu) at execution time, which for keyed requests may be later
	// than this admission check.
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) execResult {
			return s.executeLoadMatrix(ctx, explain, d, &req)
		})
}

func (s *Server) executeLoadMatrix(ctx context.Context, explain bool, d *linkDataset, req *MatrixRequest) execResult {
	if s.execHook != nil {
		s.execHook(ctx)
	}
	start := time.Now()
	s.mu.RLock()
	samples := d.samples
	s.mu.RUnlock()
	prof := obs.NewProfileRecorder(func() float64 { return d.policy.SpentBy(req.Analyst) })
	agent := &meteredAgent{inner: d.policy.AgentFor(req.Analyst)}
	q := core.NewQueryableFor(samples, core.Agent(agent), s.src).
		WithRecorder(obs.Multi(s.engineRec, prof)).WithExecOptions(s.exec).WithContext(ctx)

	linkKeys := make([]int32, d.links)
	for i := range linkKeys {
		linkKeys[i] = int32(i)
	}
	binKeys := make([]int32, d.bins)
	for i := range binKeys {
		binKeys[i] = int32(i)
	}
	spentBefore := d.policy.SpentBy(req.Analyst)
	done := queryOutcome{
		endpoint: "/query/loadmatrix", analyst: req.Analyst, dataset: req.Dataset,
		query: "loadmatrix", epsilon: req.Epsilon, started: start,
		idempotency: idemStatus(req.IdempotencyKey), policy: d.policy, agent: agent,
	}
	data := make([]float64, d.bins*d.links)
	byLink := core.Partition(q, linkKeys, func(x trace.LinkSample) int32 { return x.Link })
	for l, lk := range linkKeys {
		byBin := core.Partition(byLink[lk], binKeys, func(x trace.LinkSample) int32 { return x.Bin })
		for b, bk := range binKeys {
			c, err := byBin[bk].NoisyCount(req.Epsilon)
			if err != nil {
				charged := d.policy.SpentBy(req.Analyst) - spentBefore
				outcome := auditOutcome(err)
				s.recordAudit(&done, AuditEntry{Analyst: req.Analyst, Dataset: req.Dataset,
					Query: "loadmatrix", Epsilon: req.Epsilon, Charged: charged, Outcome: outcome})
				status, ae := classify(err, finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)), charged)
				cacheable := !(outcome == "canceled" && charged == 0)
				done.outcome, done.status, done.charged, done.profile = outcome, status, charged, prof.Profile()
				return s.queryResult(done, marshalJSON(ae), cacheable)
			}
			data[b*d.links+l] = c
		}
	}
	s.recordAudit(&done, AuditEntry{Analyst: req.Analyst, Dataset: req.Dataset,
		Query: "loadmatrix", Epsilon: req.Epsilon, Charged: req.Epsilon, Outcome: "ok"})
	resp := MatrixResponse{
		Bins: d.bins, Links: d.links, Data: data,
		NoiseStd:  noise.LaplaceStd(req.Epsilon),
		Spent:     d.policy.SpentBy(req.Analyst),
		Remaining: finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)),
	}
	done.outcome, done.status, done.charged, done.profile = "ok", http.StatusOK, resp.Spent-spentBefore, prof.Profile()
	if explain {
		resp.Profile = done.profile.Redact()
	}
	return s.queryResult(done, marshalJSON(resp), true)
}

// HopAveragesRequest is the POST /v1/query/monitoravgs body (see
// api.HopAveragesRequest): per-monitor noisy average hop counts (the
// topology analysis's imputation step).
type HopAveragesRequest = api.HopAveragesRequest

// HopAveragesResponse carries one average per monitor.
type HopAveragesResponse = api.HopAveragesResponse

func (s *Server) handleMonitorAverages(w http.ResponseWriter, r *http.Request) {
	var req HopAveragesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" || req.Dataset == "" || req.Epsilon <= 0 {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst, dataset and positive epsilon required"})
		return
	}
	if req.MaxHops <= 0 {
		req.MaxHops = 64
	}
	s.mu.RLock()
	d, ok := s.hopSets[req.Dataset]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown hop dataset %q", req.Dataset)})
		return
	}
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) execResult {
			return s.executeMonitorAverages(ctx, explain, d, &req)
		})
}

func (s *Server) executeMonitorAverages(ctx context.Context, explain bool, d *hopDataset, req *HopAveragesRequest) execResult {
	if s.execHook != nil {
		s.execHook(ctx)
	}
	start := time.Now()
	s.mu.RLock()
	records := d.records
	s.mu.RUnlock()
	prof := obs.NewProfileRecorder(func() float64 { return d.policy.SpentBy(req.Analyst) })
	agent := &meteredAgent{inner: d.policy.AgentFor(req.Analyst)}
	q := core.NewQueryableFor(records, core.Agent(agent), s.src).
		WithRecorder(obs.Multi(s.engineRec, prof)).WithExecOptions(s.exec).WithContext(ctx)
	keys := make([]int32, d.monitors)
	for i := range keys {
		keys[i] = int32(i)
	}
	spentBefore := d.policy.SpentBy(req.Analyst)
	done := queryOutcome{
		endpoint: "/query/monitoravgs", analyst: req.Analyst, dataset: req.Dataset,
		query: "monitoravgs", epsilon: req.Epsilon, started: start,
		idempotency: idemStatus(req.IdempotencyKey), policy: d.policy, agent: agent,
	}
	parts := core.Partition(q, keys, func(rec trace.HopRecord) int32 { return rec.Monitor })
	averages := make([]float64, d.monitors)
	for m, key := range keys {
		avg, err := core.NoisyAverageScaled(parts[key], req.Epsilon, req.MaxHops,
			func(rec trace.HopRecord) float64 { return float64(rec.Hops) })
		if err != nil {
			charged := d.policy.SpentBy(req.Analyst) - spentBefore
			outcome := auditOutcome(err)
			s.recordAudit(&done, AuditEntry{Analyst: req.Analyst, Dataset: req.Dataset,
				Query: "monitoravgs", Epsilon: req.Epsilon, Charged: charged, Outcome: outcome})
			status, ae := classify(err, finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)), charged)
			cacheable := !(outcome == "canceled" && charged == 0)
			done.outcome, done.status, done.charged, done.profile = outcome, status, charged, prof.Profile()
			return s.queryResult(done, marshalJSON(ae), cacheable)
		}
		averages[m] = avg
	}
	s.recordAudit(&done, AuditEntry{Analyst: req.Analyst, Dataset: req.Dataset,
		Query: "monitoravgs", Epsilon: req.Epsilon, Charged: req.Epsilon, Outcome: "ok"})
	resp := HopAveragesResponse{
		Averages:  averages,
		Spent:     d.policy.SpentBy(req.Analyst),
		Remaining: finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)),
	}
	done.outcome, done.status, done.charged, done.profile = "ok", http.StatusOK, resp.Spent-spentBefore, prof.Profile()
	if explain {
		resp.Profile = done.profile.Redact()
	}
	return s.queryResult(done, marshalJSON(resp), true)
}

// decodeJSON decodes a strict JSON body, writing a 400 on failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := jsonDecoder(r)
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "bad request: " + err.Error()})
		return false
	}
	return true
}
