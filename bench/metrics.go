package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one end-to-end metric: the name BENCHMARK.json
// lists, its unit, which direction is better, the regression bound
// (share of the median it may worsen) and the section of a run that
// measures it. Every run reports every metric (the benchmark contract
// wants each on each workload), so every run executes every section.
type metricDef struct {
	Name    string
	Unit    string
	Higher  bool // higher is better
	Bound   float64
	Section string
}

// The sections of a run. The first, second and fourth are also the
// three workloads: a workload is the run whose inputs put that section
// in front (see sizesFor).
const (
	wScan     = "scan-large"
	wSpend    = "spend-small"
	wIngest   = "ingest-standing"
	wMixed    = "mixed-live"
	wAnalyses = "paper-analyses"
)

var workloads = []string{wScan, wSpend, wMixed}

// endToEnd is the benchmark's 16 end-to-end metrics; BENCHMARK.json
// must list exactly these (bench_test.go compares the two).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "count_p50_ms", Unit: "ms", Bound: 0.25, Section: wScan},
	{Name: "hosts_p50_ms", Unit: "ms", Bound: 0.25, Section: wScan},
	{Name: "lencdf_p50_ms", Unit: "ms", Bound: 0.25, Section: wScan},
	{Name: "lenquantile_p50_ms", Unit: "ms", Bound: 0.25, Section: wScan},
	{Name: "distinctsrc_p50_ms", Unit: "ms", Bound: 0.25, Section: wScan},
	{Name: "spend_mem_p50_ms", Unit: "ms", Bound: 0.25, Section: wSpend},
	{Name: "spend_wal_p50_ms", Unit: "ms", Bound: 0.25, Section: wSpend},
	{Name: "spend_repl_p50_ms", Unit: "ms", Bound: 0.25, Section: wSpend},
	{Name: "fsyncs_per_spend", Unit: "1", Bound: 0.01, Section: wSpend},
	{Name: "wal_bytes_per_spend", Unit: "B", Bound: 0.02, Section: wSpend},
	{Name: "ingest_ndjson_pps", Unit: "records/s", Higher: true, Bound: 0.25, Section: wIngest},
	{Name: "ingest_dptr_pps", Unit: "records/s", Higher: true, Bound: 0.25, Section: wIngest},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Bound: 0.25, Section: wIngest},
	{Name: "standing_lag_p50_ms", Unit: "ms", Bound: 0.25, Section: wIngest},
	{Name: "analyses_s", Unit: "s", Bound: 0.25, Section: wAnalyses},
}

// mixedMetrics are the metrics that, on mixed-live, come from the mixed
// section — the analyst's two queries and the batch ACK beside each
// other on one growing dataset — instead of from the section that
// measures them alone on the other workloads.
var mixedMetrics = map[string]bool{"count_p50_ms": true, "hosts_p50_ms": true, "ingest_ack_p50_ms": true}

// sectionOn is the section of a run of workload that the metric is
// read from.
func (m *metricDef) sectionOn(workload string) string {
	if workload == wMixed && mixedMetrics[m.Name] {
		return wMixed
	}
	return m.Section
}

// measurement is one reported number with the sample count behind it.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts latency samples to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quartileSpread is the driver's steadiness statistic: the distance
// between the first and third quartile as a share of the median, with
// the quartiles taken as Python's statistics.quantiles(values, n=4)
// takes them (the exclusive method: position p*(n+1)).
func quartileSpread(xs []float64) (q1, med, q3, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	q1, med, q3 = at(0.25), at(0.5), at(0.75)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return
}

// layerDef declares one per-layer metric of the traced run. Layer =
// the module name in front of the first dot. None of these gates a PR.
type layerDef struct {
	Name   string
	Unit   string
	Higher bool
}

// perLayer is every per-layer metric a traced run reports, in the order
// BENCHMARK.json lists them; README.md says which end-to-end metric each
// should move.
var perLayer = []layerDef{
	// engine calls of the five scan kinds, replayed on the scan snapshot
	{Name: "core.where_count_ms", Unit: "ms"},
	{Name: "core.groupby_hosts_ms", Unit: "ms"},
	{Name: "core.partition_lencdf_ms", Unit: "ms"},
	{Name: "core.stream_quantile_ms", Unit: "ms"},
	{Name: "core.stream_distinct_ms", Unit: "ms"},
	{Name: "core.alloc_mb_per_query.count", Unit: "MB"},
	{Name: "core.alloc_mb_per_query.hosts", Unit: "MB"},
	{Name: "core.alloc_mb_per_query.lencdf", Unit: "MB"},
	{Name: "core.alloc_mb_per_query.lenquantile", Unit: "MB"},
	{Name: "core.alloc_mb_per_query.distinctsrc", Unit: "MB"},
	{Name: "sketch.quantile_insert_ns", Unit: "ns"},
	{Name: "sketch.distinct_add_ns", Unit: "ns"},
	{Name: "sketch.countmin_add_ns", Unit: "ns"},
	{Name: "trace.ipv4_string_ns", Unit: "ns"},
	{Name: "noise.laplace_ns", Unit: "ns"},
	{Name: "noise.exponential_us", Unit: "us"},
	// the paper's evaluation, one analysis each
	{Name: "analyses.packetdist_ms", Unit: "ms"},
	{Name: "analyses.wormfp_ms", Unit: "ms"},
	{Name: "analyses.flowstats_ms", Unit: "ms"},
	{Name: "analyses.steppingstone_ms", Unit: "ms"},
	{Name: "analyses.anomaly_ms", Unit: "ms"},
	{Name: "analyses.topology_ms", Unit: "ms"},
	{Name: "toolkit.cdf_ms", Unit: "ms"},
	{Name: "toolkit.itemsets_ms", Unit: "ms"},
	{Name: "linalg.pca_ms", Unit: "ms"},
	{Name: "tracegen.hotspot_ms", Unit: "ms"},
	// the per-request path
	{Name: "api.query_decode_us", Unit: "us"},
	{Name: "api.response_encode_us.count", Unit: "us"},
	{Name: "api.response_encode_us.lencdf", Unit: "us"},
	{Name: "dpclient.query_overhead_us", Unit: "us"},
	{Name: "dpserver.handler_us", Unit: "us"},
	{Name: "dpserver.unattributed_us", Unit: "us"},
	{Name: "dpserver.explain_exec_share.count", Unit: "1", Higher: true},
	{Name: "dpserver.explain_exec_share.hosts", Unit: "1", Higher: true},
	{Name: "dpserver.explain_exec_share.lencdf", Unit: "1", Higher: true},
	{Name: "dpserver.explain_exec_share.lenquantile", Unit: "1", Higher: true},
	{Name: "dpserver.explain_exec_share.distinctsrc", Unit: "1", Higher: true},
	{Name: "obs.recorders_overhead_pct", Unit: "%"},
	{Name: "obs.event_emit_us", Unit: "us"},
	// ledger and replication
	{Name: "ledger.append_us", Unit: "us"},
	{Name: "ledger.append_disk_us", Unit: "us"},
	{Name: "device.fsync_us", Unit: "us"},
	{Name: "ledger.appends_per_spend.charge", Unit: "1"},
	{Name: "ledger.appends_per_spend.audit", Unit: "1"},
	{Name: "ledger.appends_per_spend.idem_reply", Unit: "1"},
	{Name: "ledger.snapshot_ms", Unit: "ms"},
	{Name: "ledger.snapshot_bytes", Unit: "B"},
	{Name: "ledger.recovery_ms", Unit: "ms"},
	{Name: "repl.quorum_append_us", Unit: "us"},
	{Name: "repl.quorum_wait_us", Unit: "us"},
	// the write path
	{Name: "trace.ndjson_parse_ns_per_rec", Unit: "ns"},
	{Name: "trace.dptr_read_ns_per_rec", Unit: "ns"},
	{Name: "trace.ndjson_bytes_per_rec", Unit: "B"},
	{Name: "trace.dptr_bytes_per_rec", Unit: "B"},
	{Name: "ingest.pipeline_us_per_batch", Unit: "us"},
	{Name: "ingest.peak_batches_inflight", Unit: "count"},
	{Name: "standing.fire_p50_us", Unit: "us"},
	{Name: "standing.fires", Unit: "count", Higher: true},
	{Name: "standing.advance_us_per_fire", Unit: "us"},
	// the host, the process, and the tails of every end-to-end latency
	{Name: "host.speed", Unit: "1", Higher: true},
	{Name: "proc.heap_peak_mb", Unit: "MB"},
	{Name: "proc.gc_cpu_share", Unit: "1"},
	{Name: "proc.tracing_overhead_pct", Unit: "%"},
	{Name: "tail.count_p99_ms", Unit: "ms"},
	{Name: "tail.hosts_p99_ms", Unit: "ms"},
	{Name: "tail.lencdf_p99_ms", Unit: "ms"},
	{Name: "tail.lenquantile_p99_ms", Unit: "ms"},
	{Name: "tail.distinctsrc_p99_ms", Unit: "ms"},
	{Name: "tail.spend_mem_p99_ms", Unit: "ms"},
	{Name: "tail.spend_wal_p99_ms", Unit: "ms"},
	{Name: "tail.spend_repl_p99_ms", Unit: "ms"},
	{Name: "tail.ingest_ack_p99_ms", Unit: "ms"},
	{Name: "tail.standing_lag_p99_ms", Unit: "ms"},
}
