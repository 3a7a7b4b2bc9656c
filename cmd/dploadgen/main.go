// Command dploadgen is the fleet-scale load harness for dpserver: it
// drives N concurrent analysts cycling through M query kinds while K
// ingest senders stream live record batches, then reports sustained
// throughput and latency percentiles — the measurement the paper's
// deployment model needs to claim "one mediated server can serve a
// fleet".
//
//	dploadgen -duration 10s -analysts 8 -senders 2 -kinds count,hosts,lencdf
//
// By default it self-hosts: an in-process dpserver on a loopback
// listener, seeded noise, unlimited budgets, and a synthetic seed
// trace — so one command measures a full client→HTTP→server→engine
// round trip with no orchestration. Point -addr at a running server
// (hosting a dataset named by -dataset) to drive a real deployment
// instead.
//
// Ingest senders ramp linearly from zero to -rate batches/sec each
// over -ramp (0 = full rate immediately, bounded only by ACK
// round-trips). Every batch carries a (source, seq) identity, so
// client retries after 429 sheds never double-append.
//
// The run ends with a consistency audit: every analyst's last
// ACKed cumulative ε-spend is compared against GET /v1/budget, and
// their sum against the dataset's TotalSpent in GET /v1/datasets. Any
// drift — a charge the server acknowledged but does not account, or
// vice versa — exits nonzero. The load generator is thereby also an
// end-to-end test that budget accounting survives concurrency.
//
// -standing N additionally registers N standing queries (one window
// per ingest batch, a dedicated analyst each) before the load starts,
// and extends the audit to the continual-monitoring path: for every
// standing query, the sum of per-window ε charges visible in its
// result ring must reconcile with the cumulative spend each window
// reports, with the registration's Spent, and with the server's
// per-analyst budget ledger. Standing drift also exits nonzero.
//
// Output is a JSON report on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ingest"
	"dptrace/internal/noise"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/trace"
)

func main() {
	addr := flag.String("addr", "", "server base URL (e.g. http://127.0.0.1:8080); empty self-hosts an in-process server")
	dataset := flag.String("dataset", "bench", "dataset to drive")
	analysts := flag.Int("analysts", 4, "concurrent analyst workers")
	senders := flag.Int("senders", 2, "concurrent ingest senders (0 = query-only)")
	kinds := flag.String("kinds", "count,hosts,lencdf,medianlen,distinctsrc", "comma-separated query kinds to cycle")
	eps := flag.Float64("eps", 0.05, "ε per query")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	batch := flag.Int("batch", 500, "records per ingest batch")
	rate := flag.Float64("rate", 0, "target batches/sec per sender (0 = as fast as ACKs allow)")
	ramp := flag.Duration("ramp", 0, "ramp-up window over which sender rate scales 0→-rate")
	seedRecords := flag.Int("seed-records", 10000, "records in the self-hosted seed dataset")
	seed := flag.Uint64("seed", 1, "noise + workload seed (self-host mode)")
	standingN := flag.Int("standing", 0, "standing queries registered before load (one window per ingest batch)")
	flag.Parse()

	kindList := strings.Split(*kinds, ",")
	for _, k := range kindList {
		if !slices.ContainsFunc(dpserver.PacketKinds(), func(pk dpserver.Kind) bool { return pk.Name == strings.TrimSpace(k) }) {
			fatalf("%q is not a packet query kind (dpquery -h lists them)", k)
		}
	}

	baseURL := *addr
	var inproc *dpserver.Server
	if baseURL == "" {
		var stop func()
		inproc, baseURL, stop = selfHost(*dataset, *seedRecords, *seed)
		defer stop()
	}

	standingIDs := registerStanding(baseURL, *dataset, *standingN, *eps, *batch)

	r, acked := run(runConfig{
		baseURL: baseURL, dataset: *dataset, analysts: *analysts,
		senders: *senders, kinds: kindList, eps: *eps,
		duration: *duration, batch: *batch, rate: *rate, ramp: *ramp,
	})
	if inproc != nil {
		st := inproc.IngestStats()
		r.Ingest.Server = &st
	}

	audit(&r, baseURL, *dataset, acked, standingIDs)
	if inproc != nil && r.Standing != nil {
		st := inproc.StandingStats()
		r.Standing.FireP50Ms = float64(st.FireP50) / float64(time.Millisecond)
		r.Standing.FireP99Ms = float64(st.FireP99) / float64(time.Millisecond)
		r.Standing.FireMeanMs = float64(st.FireMean) / float64(time.Millisecond)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r)
	if !r.Budget.Consistent {
		fatalf("BUDGET DRIFT: %s", r.Budget.Detail)
	}
	if r.Standing != nil && !r.Standing.Consistent {
		fatalf("STANDING DRIFT: %s", r.Standing.Detail)
	}
}

// standingAnalyst names standing query i's dedicated analyst identity;
// a per-query analyst makes /v1/budget an isolated ledger view of that
// query's standing spend, which is what the drift audit compares
// against.
func standingAnalyst(i int) string { return fmt.Sprintf("standing-%02d", i) }

// registerStanding registers n standing count queries, each windowing
// one ingest batch (width = batch records, tumbling) under its own
// analyst, and returns the server-minted IDs.
func registerStanding(baseURL, dataset string, n int, eps float64, batch int) []string {
	ids := make([]string, 0, n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		c := dpclient.New(baseURL, standingAnalyst(i))
		info, err := c.RegisterStanding(ctx, dataset, api.StandingRequest{
			Query: "count", Epsilon: eps,
			// Generous: the audit exercises accounting, not exhaustion.
			Reservation: eps * 1e6,
			Window:      api.StandingWindow{Width: uint64(batch)},
		})
		if err != nil {
			fatalf("standing registration %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	return ids
}

// selfHost starts an in-process server on a loopback listener with
// unlimited budgets (the harness measures throughput, not refusals)
// and a synthetic seed trace.
func selfHost(dataset string, records int, seed uint64) (*dpserver.Server, string, func()) {
	s := dpserver.New(noise.NewSeededSource(seed, seed+1),
		dpserver.WithEventLog(qlog.New(qlog.Options{}))) // ring-only: keep stderr clean for reports
	if err := s.AddPacketTrace(dataset, syntheticPackets(records, 0), math.Inf(1), math.Inf(1)); err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		_ = hs.Shutdown(ctx)
	}
	return s, "http://" + ln.Addr().String(), stop
}

// syntheticPackets builds a deterministic workload trace: a spread of
// sources, destinations, ports, and lengths with no randomness (the
// harness must be reproducible).
func syntheticPackets(n, offset int) []trace.Packet {
	ps := make([]trace.Packet, n)
	for i := range ps {
		j := offset + i
		ps[i] = trace.Packet{
			Time:    int64(j) * 100,
			SrcIP:   trace.MakeIPv4(10, byte(j>>16), byte(j>>8), byte(j)),
			DstIP:   trace.MakeIPv4(192, 168, byte(j%7), byte(j%11)),
			SrcPort: uint16(1024 + j%50000),
			DstPort: uint16([]int{80, 443, 53, 22}[j%4]),
			Proto:   6,
			Len:     uint16(64 + j%1400),
		}
	}
	return ps
}

type runConfig struct {
	baseURL  string
	dataset  string
	analysts int
	senders  int
	kinds    []string
	eps      float64
	duration time.Duration
	batch    int
	rate     float64
	ramp     time.Duration
}

// Report is the harness's JSON output.
type Report struct {
	Config struct {
		Dataset  string   `json:"dataset"`
		Analysts int      `json:"analysts"`
		Senders  int      `json:"senders"`
		Kinds    []string `json:"kinds"`
		Epsilon  float64  `json:"epsilon"`
		Batch    int      `json:"batch"`
	} `json:"config"`
	DurationSeconds float64        `json:"durationSeconds"`
	Queries         OpStats        `json:"queries"`
	Ingest          IngestStats    `json:"ingest"`
	Budget          BudgetAudit    `json:"budget"`
	Standing        *StandingAudit `json:"standing,omitempty"`
}

// StandingAudit is the continual-monitoring accounting cross-check
// (-standing N): client-visible window charges vs the server's ledger.
type StandingAudit struct {
	Queries int `json:"queries"`
	// Windows is the total windows fired across all standing queries
	// (cursor positions, unaffected by result-ring eviction).
	Windows uint64 `json:"windows"`
	// Epsilon is the ledger-reported standing spend summed over the
	// standing analysts.
	Epsilon    float64 `json:"epsilon"`
	Consistent bool    `json:"consistent"`
	Detail     string  `json:"detail,omitempty"`
	// Window fire latency from the server's reservoir (self-host only).
	FireP50Ms  float64 `json:"fireP50Ms,omitempty"`
	FireP99Ms  float64 `json:"fireP99Ms,omitempty"`
	FireMeanMs float64 `json:"fireMeanMs,omitempty"`
}

// OpStats summarizes one operation class.
type OpStats struct {
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	PerSecond float64 `json:"perSecond"`
	Latency   LatSumm `json:"latencyMs"`
}

// IngestStats extends OpStats with record throughput and the
// server-side pipeline counters (self-host mode only).
type IngestStats struct {
	OpStats
	Records          int64         `json:"records"`
	RecordsPerSecond float64       `json:"recordsPerSecond"`
	Server           *ingest.Stats `json:"server,omitempty"`
}

// LatSumm is a latency summary in milliseconds.
type LatSumm struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// BudgetAudit is the end-of-run accounting cross-check.
type BudgetAudit struct {
	Consistent bool    `json:"consistent"`
	TotalSpent float64 `json:"totalSpent"`
	AckedSpent float64 `json:"ackedSpent"`
	Detail     string  `json:"detail,omitempty"`
}

// worker accumulates latencies locally; merged after the run (no
// cross-goroutine contention on the hot path).
type worker struct {
	lat    []time.Duration
	count  int64
	errs   int64
	last   float64 // analyst workers: last ACKed cumulative spend
	record int64   // senders: records ACKed
}

// analystSpend pairs a worker's last ACKed cumulative spend with
// whether every one of its calls completed cleanly — only then is
// "last ACK == server budget" a sound invariant to enforce.
type analystSpend struct {
	acked float64
	clean bool
}

func run(cfg runConfig) (Report, []analystSpend) {
	var r Report
	r.Config.Dataset = cfg.dataset
	r.Config.Analysts = cfg.analysts
	r.Config.Senders = cfg.senders
	r.Config.Kinds = cfg.kinds
	r.Config.Epsilon = cfg.eps
	r.Config.Batch = cfg.batch

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	start := time.Now()

	queryWorkers := make([]*worker, cfg.analysts)
	sendWorkers := make([]*worker, cfg.senders)
	var wg sync.WaitGroup

	// The run ctx gates only the loops: an issued call always runs to
	// completion on its own context, so every server-side ε-charge is
	// ACKed client-side and the end-of-run audit compares like with
	// like (cancelling mid-call would strand a charge the audit then
	// misreads as drift).
	for a := 0; a < cfg.analysts; a++ {
		w := &worker{}
		queryWorkers[a] = w
		c := dpclient.New(cfg.baseURL, fmt.Sprintf("analyst-%02d", a))
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				kind := cfg.kinds[(a+i)%len(cfg.kinds)]
				callCtx, done := context.WithTimeout(context.Background(), callTimeout)
				t0 := time.Now()
				res, err := c.Query(callCtx, dpserver.QueryRequest{
					Dataset: cfg.dataset, Query: kind, Epsilon: cfg.eps,
				})
				done()
				if err != nil {
					w.errs++
					continue
				}
				w.lat = append(w.lat, time.Since(t0))
				w.count++
				w.last = res.Spent
			}
		}(a)
	}

	for s := 0; s < cfg.senders; s++ {
		w := &worker{}
		sendWorkers[s] = w
		c := dpclient.New(cfg.baseURL, fmt.Sprintf("sender-%02d", s))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if d := pace(cfg, time.Since(start), i); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				}
				batch := dpclient.Batch{Packets: syntheticPackets(cfg.batch, (s*1_000_000+i)*cfg.batch)}
				callCtx, done := context.WithTimeout(context.Background(), callTimeout)
				t0 := time.Now()
				ack, err := c.IngestBatch(callCtx, cfg.dataset, batch)
				done()
				if err != nil {
					w.errs++
					continue
				}
				w.lat = append(w.lat, time.Since(t0))
				w.count++
				w.record += int64(ack.Records)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r.DurationSeconds = elapsed

	var qLat, iLat []time.Duration
	for _, w := range queryWorkers {
		qLat = append(qLat, w.lat...)
		r.Queries.Count += w.count
		r.Queries.Errors += w.errs
	}
	for _, w := range sendWorkers {
		iLat = append(iLat, w.lat...)
		r.Ingest.Count += w.count
		r.Ingest.Errors += w.errs
		r.Ingest.Records += w.record
	}
	r.Queries.PerSecond = float64(r.Queries.Count) / elapsed
	r.Queries.Latency = summarize(qLat)
	r.Ingest.PerSecond = float64(r.Ingest.Count) / elapsed
	r.Ingest.RecordsPerSecond = float64(r.Ingest.Records) / elapsed
	r.Ingest.Latency = summarize(iLat)

	acked := make([]analystSpend, cfg.analysts)
	for a, w := range queryWorkers {
		acked[a] = analystSpend{acked: w.last, clean: w.errs == 0}
	}
	return r, acked
}

// callTimeout bounds each individual query / ingest round trip; the
// run duration bounds how long new calls keep being issued.
const callTimeout = 30 * time.Second

// pace returns how long sender iteration i should wait to honor the
// (possibly ramping) target rate.
func pace(cfg runConfig, elapsed time.Duration, i int) time.Duration {
	if cfg.rate <= 0 {
		return 0
	}
	rate := cfg.rate
	if cfg.ramp > 0 && elapsed < cfg.ramp {
		rate = cfg.rate * float64(elapsed) / float64(cfg.ramp)
		if rate < 0.1 {
			rate = 0.1
		}
	}
	// Ideal send time for batch i at the current rate vs now.
	ideal := time.Duration(float64(i) / rate * float64(time.Second))
	return ideal - elapsed
}

// audit cross-checks client-ACKed spends against the server's budget
// surfaces: per-analyst /v1/budget must equal the last ACKed
// cumulative spend, and their sum the dataset's TotalSpent. ε is
// accounted server-side in both, so any mismatch is accounting drift
// between the query path and the budget/dataset surfaces — exactly
// the corruption a privacy deployment must never serve.
func audit(r *Report, baseURL, dataset string, spends []analystSpend, standingIDs []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var acked, serverSum float64
	var drift []string
	for a, sp := range spends {
		name := fmt.Sprintf("analyst-%02d", a)
		c := dpclient.New(baseURL, name)
		spent, _, err := c.Budget(ctx, dataset)
		if err != nil {
			drift = append(drift, fmt.Sprintf("%s: budget fetch failed: %v", name, err))
			continue
		}
		serverSum += spent
		acked += sp.acked
		// A worker that saw call errors may legitimately have charges
		// it never ACKed (ambiguous failures); only clean workers pin
		// the exact-equality invariant.
		if sp.clean && math.Abs(spent-sp.acked) > 1e-6 {
			drift = append(drift, fmt.Sprintf("%s: server says %.6f spent, last ACK said %.6f",
				name, spent, sp.acked))
		}
	}
	serverSum += auditStanding(r, ctx, baseURL, dataset, standingIDs)

	c := dpclient.New(baseURL, "auditor")
	infos, err := c.Datasets(ctx)
	var total float64
	if err != nil {
		drift = append(drift, fmt.Sprintf("datasets fetch failed: %v", err))
	} else {
		found := false
		for _, info := range infos {
			if info.Name == dataset {
				total = info.TotalSpent
				found = true
			}
		}
		if !found {
			drift = append(drift, fmt.Sprintf("dataset %q missing from /v1/datasets", dataset))
		} else if math.Abs(total-serverSum) > 1e-6 {
			drift = append(drift, fmt.Sprintf("dataset TotalSpent %.6f != Σ per-analyst %.6f", total, serverSum))
		}
	}
	r.Budget = BudgetAudit{
		Consistent: len(drift) == 0,
		TotalSpent: total,
		AckedSpent: acked,
		Detail:     strings.Join(drift, "; "),
	}
}

// auditStanding reconciles each standing query's client-visible window
// charges against the server's ledger and returns the standing
// analysts' total server-side spend (folded into the dataset
// TotalSpent comparison by the caller). Three surfaces must agree:
// the per-window Charged/Spent trail in the result ring (internally
// telescoping: Σ charged == last spend − spend before the ring), the
// registration's cumulative Spent, and the analyst's /v1/budget view.
func auditStanding(r *Report, ctx context.Context, baseURL, dataset string, ids []string) float64 {
	if len(ids) == 0 {
		return 0
	}
	sa := &StandingAudit{Queries: len(ids)}
	r.Standing = sa
	var drift []string
	listed := map[string]api.StandingInfo{}
	if infos, err := dpclient.New(baseURL, "auditor").ListStanding(ctx, dataset); err != nil {
		drift = append(drift, fmt.Sprintf("standing list failed: %v", err))
	} else {
		for _, info := range infos {
			listed[info.ID] = info
		}
	}
	var serverSum float64
	for i, id := range ids {
		c := dpclient.New(baseURL, standingAnalyst(i))
		info, ok := listed[id]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s missing from standing list", id))
			continue
		}
		sa.Windows += info.NextWindow

		out, err := c.StandingResults(ctx, dataset, id, 0, 0)
		if err != nil {
			drift = append(drift, fmt.Sprintf("%s: results fetch failed: %v", id, err))
			continue
		}
		results, err := out.Decoded()
		if err != nil {
			drift = append(drift, fmt.Sprintf("%s: results decode failed: %v", id, err))
			continue
		}
		if len(results) > 0 {
			var charged float64
			for _, w := range results {
				charged += w.Charged
			}
			first, last := results[0], results[len(results)-1]
			if ringSpan := last.Spent - (first.Spent - first.Charged); math.Abs(charged-ringSpan) > 1e-6 {
				drift = append(drift, fmt.Sprintf("%s: Σ window charges %.6f != ring spend span %.6f", id, charged, ringSpan))
			}
			if math.Abs(last.Spent-info.Spent) > 1e-6 {
				drift = append(drift, fmt.Sprintf("%s: last window says %.6f spent, registration says %.6f", id, last.Spent, info.Spent))
			}
		}

		spent, _, err := c.Budget(ctx, dataset)
		if err != nil {
			drift = append(drift, fmt.Sprintf("%s: budget fetch failed: %v", id, err))
			continue
		}
		serverSum += spent
		sa.Epsilon += spent
		if math.Abs(spent-info.Spent) > 1e-6 {
			drift = append(drift, fmt.Sprintf("%s: budget ledger says %.6f, registration says %.6f", id, spent, info.Spent))
		}
	}
	sa.Consistent = len(drift) == 0
	sa.Detail = strings.Join(drift, "; ")
	return serverSum
}

func summarize(lat []time.Duration) LatSumm {
	if len(lat) == 0 {
		return LatSumm{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(f float64) float64 {
		i := int(f * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return LatSumm{
		P50: pick(0.50), P90: pick(0.90), P99: pick(0.99),
		Max:  float64(lat[len(lat)-1]) / float64(time.Millisecond),
		Mean: float64(sum) / float64(len(lat)) / float64(time.Millisecond),
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dploadgen: "+format+"\n", args...)
	os.Exit(1)
}
