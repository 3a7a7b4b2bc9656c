package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/ledger"
	"dptrace/internal/linalg"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/sketch"
	"dptrace/internal/standing"
	"dptrace/internal/trace"
)

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perItemNanos is the median, over reps, of f's duration divided by n.
func perItemNanos(reps, n int, f func()) float64 {
	return float64(medianOf(reps, f)) / float64(n)
}

var sinkF float64 // keeps measured results alive

// layerProbes are the per-layer numbers no request replay produces:
// direct calls into one layer with generated inputs.
func layerProbes(rc *runCtx, out map[string]measurement) error {
	seed := rc.seed*4 + 1
	n := rc.n(100_000, 2_000)
	t0 := time.Now()
	packets := hotspotPackets(seed, n)
	out["tracegen.hotspot_ms"] = measurement{Value: millis(time.Since(t0)), Unit: "ms", Samples: n}
	src := noise.NewSeededSource(seed, seed+1)

	// sketch + trace: the per-record costs inside lenquantile, distinctsrc
	// and srcfreq.
	keys := make([]string, n)
	out["trace.ipv4_string_ns"] = measurement{Unit: "ns", Samples: n, Value: perItemNanos(5, n, func() {
		for i, p := range packets {
			keys[i] = p.SrcIP.String()
		}
	})}
	out["sketch.quantile_insert_ns"] = measurement{Unit: "ns", Samples: n, Value: perItemNanos(5, n, func() {
		q := sketch.NewQuantile(core.DefaultQuantileAccuracy)
		for _, p := range packets {
			q.Insert(float64(p.Len))
		}
		sinkF += q.Query(0.5)
	})}
	out["sketch.distinct_add_ns"] = measurement{Unit: "ns", Samples: n, Value: perItemNanos(5, n, func() {
		d := sketch.NewDistinct(12)
		for _, k := range keys {
			d.Add(k)
		}
		sinkF += d.Estimate()
	})}
	out["sketch.countmin_add_ns"] = measurement{Unit: "ns", Samples: n, Value: perItemNanos(5, n, func() {
		c := sketch.NewCountMin(8192, 4)
		for _, k := range keys {
			c.Add(k)
		}
		sinkF += float64(c.Estimate(keys[0]))
	})}

	// noise: the control — nothing end to end should move with these.
	const draws = 100_000
	out["noise.laplace_ns"] = measurement{Unit: "ns", Samples: draws, Value: perItemNanos(5, draws, func() {
		for i := 0; i < draws; i++ {
			sinkF += noise.Laplace(src, 1)
		}
	})}
	scores := make([]float64, 1024)
	for i := range scores {
		scores[i] = float64(i % 97)
	}
	out["noise.exponential_us"] = measurement{Unit: "us", Samples: 200, Value: micros(medianOf(200, func() {
		sinkF += float64(noise.Exponential(src, scores, 1, 1))
	}))}

	// codecs.
	batch := packets[:batchRecords]
	nd := trace.MarshalPacketsNDJSON(batch)
	var dp bytes.Buffer
	if err := trace.WritePackets(&dp, batch); err != nil {
		return err
	}
	out["trace.ndjson_bytes_per_rec"] = measurement{Value: float64(len(nd)) / batchRecords, Unit: "B", Samples: batchRecords}
	out["trace.dptr_bytes_per_rec"] = measurement{Value: float64(dp.Len()) / batchRecords, Unit: "B", Samples: batchRecords}
	out["trace.ndjson_parse_ns_per_rec"] = measurement{Unit: "ns", Samples: batchRecords, Value: perItemNanos(50, batchRecords, func() {
		if _, err := trace.ParsePacketsNDJSON(nd); err != nil {
			panic(err)
		}
	})}
	out["trace.dptr_read_ns_per_rec"] = measurement{Unit: "ns", Samples: batchRecords, Value: perItemNanos(50, batchRecords, func() {
		if _, err := trace.ReadPackets(bytes.NewReader(dp.Bytes())); err != nil {
			panic(err)
		}
	})}

	// ingest pipeline: what one batch costs beyond its codec — admission,
	// the hops receiver → decoder → appender and back — as a one-record
	// batch with a no-op apply.
	var one bytes.Buffer
	if err := trace.WritePackets(&one, packets[:1]); err != nil {
		return err
	}
	pipe := ingest.New(ingest.Limits{})
	out["ingest.pipeline_us_per_batch"] = measurement{Unit: "us", Samples: 2000, Value: micros(medianOf(2000, func() {
		size := int64(one.Len())
		if err := pipe.Reserve(size); err != nil {
			panic(err)
		}
		if _, err := pipe.Submit(&ingest.Job{Kind: ingest.KindPacket, ContentType: api.ContentTypeDPTR, Data: one.Bytes(),
			Apply: func(ingest.Decoded) error { return nil }}, size); err != nil {
			panic(err)
		}
	}))}
	pipe.Close()

	// standing: the scheduler's own cost per fired window (no-op fire).
	reg := standing.NewRegistry(standing.Config{Fire: func(q *standing.Query, w standing.Window) (standing.Result, bool) {
		return standing.Result{Window: w, Outcome: standing.OutcomeOK}, true
	}})
	for i := 0; i < len(standingSpecs); i++ {
		if _, err := reg.Register(standing.Spec{Dataset: dataset, Analyst: "probe", ID: fmt.Sprintf("sq-%02d", i),
			Kind: "count", Epsilon: 0.01, Reservation: 1e9, Width: batchRecords}, func(standing.Spec) error { return nil }); err != nil {
			return err
		}
	}
	mark := uint64(0)
	out["standing.advance_us_per_fire"] = measurement{Unit: "us", Samples: 2000, Value: micros(medianOf(2000, func() {
		mark += batchRecords
		reg.Advance(dataset, mark)
	})) / float64(len(standingSpecs))}

	// obs: the three per-query recorders against none, on the same
	// pipeline; and one wide event.
	policy := core.NewAnalystPolicy(math.Inf(1), math.Inf(1))
	count := func(rec obs.Recorder) float64 {
		t0 := time.Now()
		q := core.NewQueryableFor(packets, policy.AgentFor("probe"), src).WithRecorder(rec)
		v, err := core.WhereRecorded(q, func(p trace.Packet) bool { return p.DstPort == 443 }).NoisyCount(0.01)
		if err != nil {
			panic(err)
		}
		sinkF += v
		return float64(time.Since(t0))
	}
	var bare, full []float64
	for i := 0; i < 31; i++ { // alternating, so both see the same heap
		bare = append(bare, count(obs.NopRecorder{}))
		full = append(full, count(obs.Multi(obs.NewMetricsRecorder(obs.NewRegistry()), obs.NewTraceRecorder("query:count"),
			obs.NewProfileRecorder(func() float64 { return 0 }))))
	}
	out["obs.recorders_overhead_pct"] = measurement{Value: 100 * (median(full) - median(bare)) / median(bare), Unit: "%", Samples: len(bare)}
	events := qlog.New(qlog.Options{})
	out["obs.event_emit_us"] = measurement{Unit: "us", Samples: 5000, Value: micros(medianOf(5000, func() {
		events.Log(qlog.Info, "query",
			qlog.F("endpoint", "/query"), qlog.F("analyst", "probe"), qlog.F("dataset", dataset),
			qlog.F("query", "count"), qlog.F("epsilon", 0.01), qlog.F("outcome", "ok"),
			qlog.F("status", 200), qlog.F("charged_epsilon", 0.01), qlog.F("duration_ms", 0.35),
			qlog.F("idempotency", "keyed"))
	}))}

	// api: the response encoder on a long (lencdf-sized) body.
	long := api.QueryResponse{Values: make([]float64, 94), Buckets: make([]int64, 94), NoiseStd: 28.3, Spent: 1.5, Remaining: -1}
	for i := range long.Values {
		long.Values[i] = 1000.123456789 * float64(i+1)
		long.Buckets[i] = int64(16 * (i + 1))
	}
	out["api.response_encode_us.lencdf"] = measurement{Unit: "us", Samples: 2000, Value: micros(medianOf(2000, func() {
		if _, err := json.Marshal(long); err != nil {
			panic(err)
		}
	}))}

	// linalg: the PCA behind the anomaly analysis, on a 336×100 matrix.
	m := linalg.NewMatrix(336, 100)
	for i := range m.Data {
		m.Data[i] = 200 + 50*math.Sin(float64(i%336)/53) + noise.Laplace(src, 5)
	}
	out["linalg.pca_ms"] = measurement{Unit: "ms", Samples: 5, Value: millis(medianOf(5, func() {
		sinkF += linalg.ComputePCA(m.Clone(), 2, 50).ResidualNorms(m)[0]
	}))}
	return nil
}

// handlerMicros is the server's whole request path without a socket:
// Handler().ServeHTTP into an httptest recorder, for the spend-small
// request on a server shaped like that section's wal phase.
func handlerMicros(rc *runCtx, n int) (float64, error) {
	seed := rc.seed*4 + 1
	h, err := newHost(rc.root, "handler-probe", seed, ledgerWAL, false, hotspotPackets(seed, spendPackets))
	if err != nil {
		return 0, err
	}
	defer h.close()
	handler := h.srv.Handler()
	us := make([]float64, 0, n)
	for i := 0; i < n+n/4; i++ {
		body, _ := json.Marshal(api.QueryRequest{Analyst: "probe", Dataset: dataset, Query: "count", Epsilon: 0.01,
			Filter: &api.Filter{DstPort: intp(443)}, IdempotencyKey: fmt.Sprintf("probe-%d", i)})
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler probe: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		if i >= n/4 {
			us = append(us, micros(d))
		}
	}
	return median(us), nil
}

// procStats are the process-level diagnostics of a run.
type procStats struct {
	gcCPU0, totalCPU0 float64
}

func readCPU() (gc, total float64) {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

func startProcStats() procStats {
	gc, total := readCPU()
	return procStats{gcCPU0: gc, totalCPU0: total}
}

func (p procStats) report(out map[string]measurement) {
	gc, total := readCPU()
	share := 0.0
	if total > p.totalCPU0 {
		share = (gc - p.gcCPU0) / (total - p.totalCPU0)
	}
	out["proc.gc_cpu_share"] = measurement{Value: share, Unit: "1"}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["proc.heap_peak_mb"] = measurement{Value: float64(ms.HeapSys) / (1 << 20), Unit: "MB"}
}

// traceRun is the traced run's second half: replay a sample of the
// run's requests layer by layer, run the layer probes, fold spans and
// counters into the per-layer metrics, and write bench/out/trace.json.
func traceRun(rc *runCtx, res *result, sections map[string]*section, proc procStats) error {
	out := map[string]measurement{}
	tr := rc.tr
	rl, err := openReplayLedgers(rc.root)
	if err != nil {
		return fmt.Errorf("replay ledgers: %w", err)
	}
	defer rl.close()

	// Query replays: the five scan kinds on a scan-sized snapshot, then
	// the spend-small request in its wal and repl shapes.
	spendShapes := sections[wSpend].walShapes
	for _, typ := range appendTypes {
		if _, ok := spendShapes[typ]; !ok {
			return fmt.Errorf("the spend-small WAL held no %s event to replay", typ)
		}
	}
	scanSeed := rc.seed*4 + 0
	snapshot := sections[wScan].packets
	src := noise.NewSeededSource(scanSeed, scanSeed+1)
	eps := seededEpsilon(scanSeed)
	perKind := rc.n(16, 2)
	for _, k := range scanKinds {
		req := k.req(eps)
		var allocs []float64
		for i := 0; i < perKind; i++ {
			mb, err := replayQuery(tr, fmt.Sprintf("replay/%s#%d", req.Query, i), req, snapshot, src, spendShapes, rl, false)
			if err != nil {
				return fmt.Errorf("replay %s: %w", req.Query, err)
			}
			allocs = append(allocs, mb)
		}
		out["core.alloc_mb_per_query."+req.Query] = measurement{Value: median(allocs), Unit: "MB", Samples: perKind}
	}
	spendSeed := rc.seed*4 + 1
	small := sections[wSpend].packets
	spendReq := api.QueryRequest{Dataset: dataset, Query: "count", Epsilon: seededEpsilon(spendSeed), Filter: &api.Filter{DstPort: intp(443)}}
	nSpend := rc.n(400, 10)
	for i := 0; i < nSpend; i++ {
		if _, err := replayQuery(tr, fmt.Sprintf("replay/spend#%d", i), spendReq, small, src, spendShapes, rl, true); err != nil {
			return fmt.Errorf("replay spend: %w", err)
		}
	}

	// Ingest replays: both codecs through the pipeline, with the journal
	// events one batch caused in this run's ingest section.
	ingestShapes := sections[wIngest].walShapes
	if w, ok := ingestShapes[ledger.EventStandingWindow]; ok {
		if err := registerReplayStanding(rl.tmpfs, w); err != nil {
			return err
		}
	}
	ingestSeed := rc.seed*4 + 2
	nIngest := rc.n(100, 4)
	pool := hotspotPackets(ingestSeed, min(batchPool, nIngest)*batchRecords)
	pipe := ingest.New(ingest.Limits{})
	defer pipe.Close()
	for _, codec := range []struct {
		ct     string
		ndjson bool
	}{{api.ContentTypeNDJSON, true}, {api.ContentTypeDPTR, false}} {
		bodies, err := encodeBatches(pool, batchRecords, codec.ndjson)
		if err != nil {
			return err
		}
		for i := 0; i < nIngest; i++ {
			id := fmt.Sprintf("replay/ingest-%t#%d", codec.ndjson, i)
			if err := replayIngest(tr, id, codec.ct, bodies[i%len(bodies)], pipe, ingestShapes, len(standingSpecs), rl); err != nil {
				return fmt.Errorf("replay ingest: %w", err)
			}
		}
	}

	// Spans → per-layer metrics: the median self time of each layer call.
	self := tr.selfTimes()
	spanMicros := func(metric, span string) {
		if xs := self[span]; len(xs) > 0 {
			out[metric] = measurement{Value: median(xs), Unit: "us", Samples: len(xs)}
		}
	}
	for kind, span := range engineSpan {
		// The engine spans of the scan kinds; the spend replays add
		// count samples on the small dataset, so take those apart.
		var xs []float64
		for _, sp := range tr.spans {
			if sp.Name == span && !isSpendReplay(sp.Request) {
				xs = append(xs, sp.End-sp.Start)
			}
		}
		if len(xs) > 0 {
			out[span+"_ms"] = measurement{Value: median(xs) / 1000, Unit: "ms", Samples: len(xs)}
		}
		share := sections[wScan].explainShare[kind]
		if mixed, ok := sections[wMixed]; ok && len(share) == 0 {
			// On mixed-live count and hosts run in the mixed section only.
			share = mixed.explainShare[kind]
		}
		if len(share) > 0 {
			out["dpserver.explain_exec_share."+kind] = measurement{Value: median(share), Unit: "1", Samples: len(share)}
		}
	}
	spanMicros("api.query_decode_us", "api.query_decode")
	spanMicros("ledger.append_us", "ledger.append")
	spanMicros("ledger.append_disk_us", "ledger.append_disk")
	spanMicros("repl.quorum_append_us", "repl.quorum_append")
	if q, ok := out["repl.quorum_append_us"]; ok {
		out["repl.quorum_wait_us"] = measurement{Value: q.Value - out["ledger.append_us"].Value, Unit: "us", Samples: q.Samples}
	}
	var encCount []float64
	for _, sp := range tr.spans {
		if sp.Name == "api.response_encode" && isSpendReplay(sp.Request) {
			encCount = append(encCount, sp.End-sp.Start)
		}
	}
	out["api.response_encode_us.count"] = measurement{Value: median(encCount), Unit: "us", Samples: len(encCount)}

	if out["dpclient.query_overhead_us"], err = clientOverhead(rc.n(2000, 50), spendReq); err != nil {
		return err
	}
	fsync, err := deviceFsyncMicros(rc.n(200, 10))
	if err != nil {
		return err
	}
	out["device.fsync_us"] = measurement{Value: fsync, Unit: "us", Samples: rc.n(200, 10)}
	hn := rc.n(2000, 40)
	handler, err := handlerMicros(rc, hn)
	if err != nil {
		return err
	}
	out["dpserver.handler_us"] = measurement{Value: handler, Unit: "us", Samples: hn}

	// The reconciliation: what of the untraced end-to-end median of the
	// spend-small wal request no replayed layer accounts for — HTTP
	// stack, handler glue, locks, scheduling. Per replayed request, the
	// layers a wal request passes through (the replay also appends to a
	// disk ledger and a replicated one, which that request does not).
	inWalRequest := map[string]bool{"dpclient.encode": true, "api.query_decode": true, "core.where_count": true,
		"api.response_encode": true, "ledger.append": true, "dpclient.decode": true}
	layers := map[string]float64{}
	for _, sp := range tr.spans {
		if isSpendReplay(sp.Request) && inWalRequest[sp.Name] {
			layers[sp.Request] += sp.End - sp.Start
		}
	}
	perRequest := make([]float64, 0, len(layers))
	for _, us := range layers {
		perRequest = append(perRequest, us)
	}
	e2e := sections[wSpend].metrics["spend_wal_p50_ms"].Value * 1000
	out["dpserver.unattributed_us"] = measurement{Value: e2e - median(perRequest), Unit: "us", Samples: len(perRequest)}

	if err := layerProbes(rc, out); err != nil {
		return err
	}

	// Counters and tails the sections already collected.
	for _, m := range endToEnd {
		if m.Unit != "ms" {
			continue
		}
		base := m.Name[:len(m.Name)-len("_p50_ms")]
		if v, ok := res.Diag["tail."+base+"_p99_ms"]; ok {
			out["tail."+base+"_p99_ms"] = v
		}
	}
	for _, k := range []string{
		"host.speed",
		"ledger.appends_per_spend.charge", "ledger.appends_per_spend.audit", "ledger.appends_per_spend.idem_reply",
		"ledger.snapshot_ms", "ledger.snapshot_bytes", "ledger.recovery_ms",
		"ingest.peak_batches_inflight", "standing.fires", "standing.fire_p50_us",
		"analyses.packetdist_ms", "analyses.wormfp_ms", "analyses.flowstats_ms", "analyses.steppingstone_ms",
		"analyses.anomaly_ms", "analyses.topology_ms", "toolkit.cdf_ms", "toolkit.itemsets_ms",
	} {
		v, ok := res.Diag[k]
		if !ok {
			return fmt.Errorf("traced run collected no %s", k)
		}
		out[k] = v
	}

	// Tracing overhead: traced half against untraced half, over the
	// latency metrics of the section the workload is named after.
	var ratios []float64
	named := sections[res.Workload]
	for metric, traced := range named.tracedP50 {
		if plain := named.plainP50[metric]; plain > 0 {
			ratios = append(ratios, 100*(traced/plain-1))
		}
	}
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = median(ratios)
	}
	out["proc.tracing_overhead_pct"] = measurement{Value: overhead, Unit: "%", Samples: len(ratios)}
	proc.report(out)

	// The contract: exactly the metrics BENCHMARK.json lists, no more.
	for _, l := range perLayer {
		if _, ok := out[l.Name]; !ok {
			return fmt.Errorf("traced run produced no %s", l.Name)
		}
	}
	if len(out) != len(perLayer) {
		for k := range out {
			if !listedLayer(k) {
				return fmt.Errorf("traced run produced %s, which the per-layer table does not list", k)
			}
		}
	}
	res.PerLayer = out
	res.TracePath, err = tr.write(res.Env, res.Workload, out)
	return err
}

func listedLayer(name string) bool {
	for _, l := range perLayer {
		if l.Name == name {
			return true
		}
	}
	return false
}

func isSpendReplay(request string) bool {
	return len(request) >= len("replay/spend#") && request[:len("replay/spend#")] == "replay/spend#"
}
