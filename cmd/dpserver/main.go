// Command dpserver hosts packet traces behind the mediated-analysis
// HTTP API (see internal/dpserver): the data owner's side of the
// paper's deployment model.
//
//	dpserver -listen :8080 \
//	    -trace hotspot=hotspot.dptr \
//	    -total 5.0 -per-analyst 1.0 \
//	    -max-concurrent 16 -queue-wait 100ms \
//	    -timeout 30s -max-timeout 2m
//
// Multiple -trace flags host multiple datasets. Noise is drawn from
// crypto/rand unless -seed is given (for reproducible demos only).
// Scans over at least 32,768 records run on GOMAXPROCS workers; the
// answers are those of one worker, byte for byte.
//
// -ledger-dir enables the durable privacy-budget ledger: every
// ε-charge, dataset registration, audit entry, and keyed idempotent
// response is journaled to a checksummed WAL and made durable before
// the answer it backs is released — one commit, one fsync, per request
// (snapshots + compaction every -snapshot-every events) — and restored
// on restart, so a crash or power loss never resets analyst budgets.
// Without it, budgets are in-memory only and a restart re-opens the
// full budget. Inspect a ledger directory with the dpledger tool
// (inspect / verify / compact).
//
// Replication (requires -ledger-dir): -repl-listen makes this node a
// PRIMARY that streams every committed ledger event to followers
// (with -repl-min-sync N, a spend is refused unless N followers are
// connected and its answer is held until they hold everything the
// request journaled durably — one wait per request);
// -follow <addr> makes it a warm STANDBY that writes the primary's
// WAL verbatim into its own ledger and serves read-only (/v1/readyz
// answers 503 with role=follower and the replication lag) until
// promoted. `dpserver -promote http://standby:8080` (or POST
// /v1/admin/promote) seals the stream, verifies the WAL tail against
// a full replay, bumps the durable fencing epoch — a deposed
// primary's late appends can never land on anyone who has seen the
// new regime — and starts accepting spends at exactly the replayed
// refusal boundary. After a failover, `dpledger diff` proves zero
// budget drift between the two ledger directories. See DESIGN.md
// §S35 and the README failover runbook.
//
// The API is mounted under /v1/ (an unversioned path answers 404).
// Admission control: -max-concurrent bounds
// concurrently executing queries, with -queue-wait of patience before
// shedding 429 + Retry-After; -timeout / -max-timeout bound query
// deadlines (per-request override via X-DP-Timeout-Ms, capped at
// -max-timeout). On SIGINT/SIGTERM the server stops accepting work
// and drains in-flight queries before exiting.
//
// Live ingestion: POST /v1/ingest/{dataset} appends record batches
// (NDJSON or the DPTR binary container) to hosted datasets through a
// bounded pipeline — queries keep running against consistent
// snapshots. The -ingest-batch-bytes / -ingest-bytes-inflight /
// -ingest-batches-inflight watermarks bound its memory; past them
// batches shed with 429 + Retry-After. Batches carrying
// X-DP-Batch-Source/-Seq apply at most once across retries.
//
// The server self-instruments: GET /v1/metrics (Prometheus text),
// GET /v1/healthz (liveness), GET /v1/readyz (readiness — 503 while
// draining or while a frozen/degraded ledger has spending shed
// fail-closed), and GET /v1/debug/queries (the ring of recent wide
// events) are always on; -pprof additionally mounts net/http/pprof
// under /debug/pprof/. These, with /v1/datasets, /v1/audit,
// /v1/ingest and /v1/admin/promote, are the owner-side endpoints
// (dpserver.Route.Owner) — shield them at your ingress.
//
// Operational events leave the process as structured wide events: one
// JSON object per occurrence (query completions carrying their full
// execution profile, sheds, recovered panics, ledger freezes, drains)
// on the -event-log stream (default stderr; a file path appends; none
// keeps the in-memory ring only). -slow-query additionally warns on
// queries at or above the threshold. Analysts can request their own
// query's (redacted) profile at zero extra ε with the X-DP-Explain
// header — see dpquery -explain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/ingest"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/trace"
)

// traceFlags collects repeated -trace name=path flags.
type traceFlags []string

func (t *traceFlags) String() string { return strings.Join(*t, ",") }
func (t *traceFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var traces traceFlags
	flag.Var(&traces, "trace", "dataset to host, as name=path (repeatable)")
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	total := flag.Float64("total", 10.0, "total privacy budget per dataset")
	perAnalyst := flag.Float64("per-analyst", 1.0, "per-analyst privacy budget")
	seed := flag.Uint64("seed", 0, "noise seed; 0 uses crypto randomness")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = unlimited)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "how long a query waits for an execution slot before being shed with 429")
	timeout := flag.Duration("timeout", 0, "default per-query deadline (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested X-DP-Timeout-Ms deadlines (0 = default only)")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "how long shutdown waits for in-flight queries to drain")
	ledgerDir := flag.String("ledger-dir", "", "directory for the durable privacy-budget ledger (empty = in-memory budgets, lost on restart)")
	snapshotEvery := flag.Int("snapshot-every", 0, "ledger events between snapshots + compaction (0 = default 4096, negative = never)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query log threshold: completed queries at least this slow emit a slow_query warning event (0 = off)")
	eventLog := flag.String("event-log", "stderr", "wide-event JSON stream destination: stderr, a file path, or 'none' (ring-only, still served at /v1/debug/queries)")
	ingestBatchBytes := flag.Int64("ingest-batch-bytes", 0, "max bytes in one POST /v1/ingest batch (0 = default 8MiB; larger batches answer 413)")
	ingestBytesInFlight := flag.Int64("ingest-bytes-inflight", 0, "ingest admission watermark: max admitted-but-unapplied batch bytes (0 = default 64MiB; past it batches shed 429)")
	ingestBatchesInFlight := flag.Int64("ingest-batches-inflight", 0, "ingest admission watermark: max admitted-but-unapplied batches (0 = default 256)")
	ingestWorkers := flag.Int("ingest-workers", 0, "ingest decoder parallelism (0 = default 2)")
	replListen := flag.String("repl-listen", "", "replication listen address: stream committed ledger events to followers (requires -ledger-dir)")
	follow := flag.String("follow", "", "run as a warm standby following the primary at this replication address (requires -ledger-dir; serves read-only until promoted)")
	replName := flag.String("repl-name", "", "node name in replication handshakes and events (default: the hostname)")
	replMinSync := flag.Int("repl-min-sync", 0, "refuse spends unless this many followers are connected, and hold each answer until they have the request's events durably — one wait per request (0 = async replication)")
	promote := flag.String("promote", "", "client mode: POST /v1/admin/promote to the dpserver at this base URL and exit")
	flag.Parse()

	if *promote != "" {
		promoteRemote(*promote)
		return
	}
	if len(traces) == 0 {
		fmt.Fprintln(os.Stderr, "dpserver: at least one -trace name=path is required")
		os.Exit(2)
	}
	if (*replListen != "" || *follow != "") && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "dpserver: -repl-listen / -follow require -ledger-dir (replication streams the durable ledger)")
		os.Exit(2)
	}

	var src noise.Source
	if *seed == 0 {
		src = noise.NewCryptoSource()
	} else {
		src = noise.NewSeededSource(*seed, *seed+1)
	}
	// The wide-event stream: one JSON object per operational event
	// (query completions with execution profiles, sheds, panics, ledger
	// transitions). The same logger's ring serves /v1/debug/queries.
	var eventSink io.Writer
	switch *eventLog {
	case "stderr":
		eventSink = os.Stderr
	case "none", "":
		eventSink = nil
	default:
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		eventSink = f
	}
	events := qlog.New(qlog.Options{W: eventSink})

	opts := []dpserver.ServerOption{
		dpserver.WithLimits(dpserver.Limits{
			MaxConcurrent:  *maxConcurrent,
			QueueWait:      *queueWait,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			SlowQuery:      *slowQuery,
		}),
		dpserver.WithEventLog(events),
		dpserver.WithIngestLimits(ingest.Limits{
			MaxBatchBytes:      *ingestBatchBytes,
			MaxBytesInFlight:   *ingestBytesInFlight,
			MaxBatchesInFlight: *ingestBatchesInFlight,
			DecodeWorkers:      *ingestWorkers,
		}),
	}
	var led *ledger.Ledger
	if *ledgerDir != "" {
		var err error
		led, err = ledger.Open(ledger.Options{
			Dir:           *ledgerDir,
			SnapshotEvery: *snapshotEvery,
			Logf:          events.Logf(qlog.Warn, "ledger"),
		})
		if err != nil {
			fatal(err)
		}
		defer led.Close()
		rec := led.Recovery()
		if rec.Err != nil {
			fmt.Fprintf(os.Stderr, "dpserver: LEDGER CORRUPT, all charges will be refused (fail closed): %v\n", rec.Err)
			fmt.Fprintf(os.Stderr, "dpserver: inspect with: dpledger verify -dir %s\n", *ledgerDir)
		} else {
			fmt.Printf("ledger %s: recovered snapshot seq %d + %d events\n",
				*ledgerDir, rec.SnapshotSeq, rec.Events)
			if rec.TornBytes > 0 {
				fmt.Printf("ledger: truncated %d-byte torn tail from an unclean shutdown\n", rec.TornBytes)
			}
		}
		opts = append(opts, dpserver.WithLedger(led))
	}
	srv := dpserver.New(src, opts...)

	startRepl := func() {}
	if *replListen != "" || *follow != "" {
		name := *replName
		if name == "" {
			name, _ = os.Hostname()
		}
		cfg := dpserver.ReplicationConfig{
			Follow:  *follow,
			Name:    name,
			MinSync: *replMinSync,
		}
		if *replListen != "" {
			ln, err := net.Listen("tcp", *replListen)
			if err != nil {
				fatal(err)
			}
			cfg.Listen = ln
		}
		startRepl = func() {
			if err := srv.StartReplication(cfg); err != nil {
				fatal(err)
			}
			if *follow != "" {
				fmt.Printf("replication: FOLLOWER of %s (read-only; promote with: dpserver -promote http://%s)\n", *follow, *listen)
				if *replListen != "" {
					fmt.Printf("replication: will accept followers on %s after promotion\n", *replListen)
				}
			} else {
				fmt.Printf("replication: PRIMARY on %s (min-sync %d)\n", *replListen, *replMinSync)
			}
		}
	}
	if *follow != "" {
		// A follower must follow BEFORE hosting traces: its dataset
		// registrations arrive through the stream (journaling them
		// locally would fork the WAL against the primary's bytes).
		startRepl()
		startRepl = func() {}
		defer srv.CloseReplication()
	}

	for _, spec := range traces {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "dpserver: bad -trace %q, want name=path\n", spec)
			os.Exit(2)
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		packets, err := trace.ReadPackets(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := srv.AddPacketTrace(name, packets, *total, *perAnalyst); err != nil {
			fatal(err)
		}
		fmt.Printf("hosting %s: %d packets, total budget %.2f, per-analyst %.2f\n",
			name, len(packets), *total, *perAnalyst)
	}
	if *maxConcurrent > 0 {
		fmt.Printf("admission control: %d concurrent queries, %v queue wait\n", *maxConcurrent, *queueWait)
	}

	// A primary starts replicating after its datasets are registered,
	// so followers stream a settled history (a follower already
	// started, above).
	startRepl()
	if *replListen != "" && *follow == "" {
		defer srv.CloseReplication()
	}

	var hopts []dpserver.HandlerOption
	if *pprofFlag {
		hopts = append(hopts, dpserver.WithPprof())
		fmt.Println("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler(hopts...)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s (v1 API at /v1/, metrics at /v1/metrics, health at /v1/healthz, readiness at /v1/readyz)\n", *listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Println("dpserver: draining in-flight queries…")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		// Refuse new queries and drain executing ones, then close the
		// listener and remaining connections.
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dpserver: drain incomplete: %v\n", err)
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dpserver: http shutdown: %v\n", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		fmt.Println("dpserver: stopped")
	}
}

// promoteRemote is the -promote client mode: ask the follower at
// baseURL to take over as primary, print the new epoch, exit 0/1.
func promoteRemote(baseURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	epoch, err := dpclient.New(baseURL, "operator").Promote(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("promoted: %s is now the primary at epoch %d\n", baseURL, epoch)
	fmt.Println("verify zero drift against the old primary's ledger with: dpledger diff <old-ledger-dir> <new-ledger-dir>")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpserver: %v\n", err)
	os.Exit(1)
}
