package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"dptrace/internal/dpclient"
	"dptrace/internal/dpserver"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/repl"
	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
	"dptrace/internal/vfs"
)

// dataset is the one dataset every server workload hosts.
const dataset = "hotspot"

// callTimeout bounds one request; nothing in the suite comes close.
const callTimeout = 60 * time.Second

// ledgerMode selects what stands behind a host's ε-accounting — the
// ROADMAP 1(b) matrix.
type ledgerMode int

const (
	ledgerNone ledgerMode = iota // in-memory budgets only
	ledgerWAL                    // durable ledger, fsync=always
	ledgerRepl                   // ledgerWAL + one synchronous follower (MinSync=1)
)

// host is one self-hosted server on a loopback listener, with the
// ledger and follower its mode asks for. The benchmark only ever talks
// to it over HTTP through dpclient; the handles are kept for the
// output checks and the counters the server already exposes.
type host struct {
	srv *dpserver.Server
	hs  *http.Server
	url string
	// conns are the only two connections the benchmark opens to the
	// server (= nproc here): the driving client on the first, a
	// concurrent second actor (long-poller, analyst beside a sender) on
	// the other.
	conns [2]*http.Client

	led    *ledger.Ledger
	ledDir string
	// ffs counts file operations (rule-less FaultFS: a pass-through);
	// walBytes counts WAL record bytes via the ledger's commit hook.
	// Both only on a ledgerWAL host opened with counters.
	ffs      *vfs.FaultFS
	walBytes atomic.Int64

	fol    *repl.Follower
	folLed *ledger.Ledger
	folDir string

	closed bool
}

// newHost starts a server hosting packets as "hotspot" with unlimited
// budgets (the suite measures cost, not refusals), seeded noise, and
// the ledger mode asked for. root is the parent for ledger
// directories; name keeps them apart.
func newHost(root, name string, seed uint64, mode ledgerMode, counters bool, packets []trace.Packet) (*host, error) {
	h := &host{conns: [2]*http.Client{oneConnClient(), oneConnClient()}}
	var opts []dpserver.ServerOption
	if mode != ledgerNone {
		h.ledDir = filepath.Join(root, name)
		lo := ledger.Options{Dir: h.ledDir, Fsync: ledger.FsyncAlways}
		if counters {
			h.ffs = vfs.NewFaultFS(nil)
			lo.FS = h.ffs
		}
		led, err := ledger.Open(lo)
		if err != nil {
			return nil, fmt.Errorf("open ledger: %w", err)
		}
		h.led = led
		if counters {
			led.SetCommitHook(func(_ uint64, payload []byte) {
				h.walBytes.Add(int64(len(payload)) + recordHeaderSize)
			})
		}
		opts = append(opts, dpserver.WithLedger(led))
	}
	h.srv = dpserver.New(noise.NewSeededSource(seed, seed+1), opts...)
	if err := h.srv.AddPacketTrace(dataset, packets, math.Inf(1), math.Inf(1)); err != nil {
		h.close()
		return nil, err
	}
	if mode == ledgerRepl {
		if err := h.startFollower(root, name); err != nil {
			h.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { _ = h.hs.Serve(ln) }()
	h.url = "http://" + ln.Addr().String()
	return h, nil
}

// recordHeaderSize is the WAL's per-record framing (length + CRC32C)
// in front of the payload the commit hook sees.
const recordHeaderSize = 8

// startFollower makes the host a replication primary with one
// in-process follower on its own ledger directory, and waits until the
// follower has the registration backlog — from then on every spend's
// ACK waits for the follower's durable ack.
func (h *host) startFollower(root, name string) error {
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := h.srv.StartReplication(dpserver.ReplicationConfig{
		Listen: rln, MinSync: 1, AckTimeout: 10 * time.Second, Name: name + "-primary",
	}); err != nil {
		rln.Close()
		return err
	}
	h.folDir = filepath.Join(root, name+"-follower")
	h.folLed, err = ledger.Open(ledger.Options{Dir: h.folDir, Fsync: ledger.FsyncAlways})
	if err != nil {
		return fmt.Errorf("open follower ledger: %w", err)
	}
	h.fol, err = repl.NewFollower(h.folLed, repl.FollowerConfig{
		Primary: rln.Addr().String(), Name: name + "-follower",
	})
	if err != nil {
		return err
	}
	h.fol.Start()
	deadline := time.Now().Add(10 * time.Second)
	for !(h.fol.Connected() && h.fol.Applied() == h.led.CommittedSeq()) {
		if err := h.fol.Err(); err != nil {
			return fmt.Errorf("follower: %w", err)
		}
		if time.Now().After(deadline) {
			return errors.New("follower did not catch up within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close drains the server and closes every handle; ledger directories
// stay for the post-run checks (the run removes its root at the end).
// Safe on a partially-built host and when called twice.
func (h *host) close() {
	if h.closed {
		return
	}
	h.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if h.srv != nil {
		_ = h.srv.Shutdown(ctx)
	}
	for _, c := range h.conns {
		c.CloseIdleConnections()
	}
	if h.hs != nil {
		_ = h.hs.Shutdown(ctx)
	}
	if h.srv != nil {
		h.srv.CloseReplication()
	}
	if h.fol != nil {
		h.fol.Close()
	}
	if h.folLed != nil {
		h.folLed.Close()
	}
	if h.led != nil {
		h.led.Close()
	}
}

// client returns a dpclient for analyst on connection conn (0 or 1),
// without retries: a shed or failed request must show up as a failed
// operation, not as a slow one.
func (h *host) client(analyst string, conn int) *dpclient.Client {
	return dpclient.New(h.url, analyst,
		dpclient.WithHTTPClient(h.conns[conn]),
		dpclient.WithRetryPolicy(dpclient.NoRetry()))
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
}

// hotspotPackets generates exactly n packets of a tracegen.Hotspot
// trace for seed: the default configuration with every volume knob
// scaled to the size asked for, cut to the first n packets in capture
// order.
func hotspotPackets(seed uint64, n int) []trace.Packet {
	// The default configuration yields roughly 2.6e5 packets.
	f := 1.2 * float64(n) / 2.6e5
	for {
		cfg := tracegen.DefaultHotspotConfig()
		cfg.Seed = seed
		cfg.Sessions = int(math.Ceil(float64(cfg.Sessions) * f))
		cfg.BackgroundTotal = int(math.Ceil(float64(cfg.BackgroundTotal) * f))
		cfg.StoneActivations = int(math.Ceil(float64(cfg.StoneActivations) * f))
		packets, _ := tracegen.Hotspot(cfg)
		if len(packets) >= n {
			return packets[:n:n]
		}
		f *= 1.5
	}
}

// spendTracker follows one analyst's ACKed spending for the budget
// audit: the cumulative spend the last 200 reported, and whether any
// call failed (then a charge may exist that was never ACKed, and only
// ≥ can be asserted).
type spendTracker struct {
	analyst string
	acked   float64
	clean   bool
}

// auditBudget is the dploadgen telescoping audit: each analyst's last
// ACKed cumulative spend must equal GET /v1/budget, and the sum over
// analysts (standing analysts included, via their own trackers) the
// dataset's TotalSpent. It returns one line per drift found.
func auditBudget(ctx context.Context, h *host, spends []spendTracker) []string {
	var drift []string
	var sum float64
	for _, sp := range spends {
		spent, _, err := h.client(sp.analyst, 0).Budget(ctx, dataset)
		if err != nil {
			drift = append(drift, fmt.Sprintf("%s: budget fetch: %v", sp.analyst, err))
			continue
		}
		sum += spent
		if sp.clean && math.Abs(spent-sp.acked) > 1e-6 {
			drift = append(drift, fmt.Sprintf("%s: server says %.6f spent, ACKs say %.6f", sp.analyst, spent, sp.acked))
		}
	}
	infos, err := h.client("auditor", 0).Datasets(ctx)
	if err != nil {
		return append(drift, fmt.Sprintf("datasets fetch: %v", err))
	}
	for _, info := range infos {
		if info.Name == dataset {
			if math.Abs(info.TotalSpent-sum) > 1e-6 {
				drift = append(drift, fmt.Sprintf("dataset TotalSpent %.6f != Σ per-analyst %.6f", info.TotalSpent, sum))
			}
			return drift
		}
	}
	return append(drift, "dataset missing from /v1/datasets")
}

// audit runs the budget audit of one server and records every drift as
// a failed check of the section: the analysts in spends, plus the
// standing queries in standing with their own telescoping check. label
// prefixes the failure (a phase name, or "").
func (s *section) audit(h *host, label string, spends []spendTracker, standing []api.StandingInfo) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	c := h.client("auditor", 0)
	for _, info := range standing {
		sp, drift := standingSpend(ctx, c, info)
		for _, d := range drift {
			s.check(false, "%sstanding audit: %s", label, d)
		}
		spends = append(spends, sp)
	}
	for _, d := range auditBudget(ctx, h, spends) {
		s.check(false, "%sbudget audit: %s", label, d)
	}
}

// standingSpend audits one standing query the dploadgen way — the
// windows in the result ring telescope (Σ charged == last spent − spend
// before the ring), the registration's Spent equals the last window's —
// and returns the tracker for the dataset-level sum.
func standingSpend(ctx context.Context, c *dpclient.Client, info api.StandingInfo) (spendTracker, []string) {
	var drift []string
	sp := spendTracker{analyst: info.Analyst, clean: true}
	infos, err := c.ListStanding(ctx, dataset)
	if err != nil {
		return sp, []string{fmt.Sprintf("standing list: %v", err)}
	}
	for _, i := range infos {
		if i.ID == info.ID {
			info = i
		}
	}
	sp.acked = info.Spent
	out, err := c.StandingResults(ctx, dataset, info.ID, 0, 0)
	if err != nil {
		return sp, []string{fmt.Sprintf("%s results: %v", info.ID, err)}
	}
	results, err := out.Decoded()
	if err != nil {
		return sp, []string{fmt.Sprintf("%s results decode: %v", info.ID, err)}
	}
	if len(results) > 0 {
		var charged float64
		for _, w := range results {
			charged += w.Charged
		}
		first, last := results[0], results[len(results)-1]
		if span := last.Spent - (first.Spent - first.Charged); math.Abs(charged-span) > 1e-6 {
			drift = append(drift, fmt.Sprintf("%s: Σ window charges %.6f != ring spend span %.6f", info.ID, charged, span))
		}
		if math.Abs(last.Spent-info.Spent) > 1e-6 {
			drift = append(drift, fmt.Sprintf("%s: last window says %.6f spent, registration says %.6f", info.ID, last.Spent, info.Spent))
		}
	}
	return sp, drift
}

// digest accumulates the result_digest: every response of the
// deterministic workloads, field by field and bit for bit, so that a
// perf change that alters any released value, noise draw or ε-charge
// changes the digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) {
	d.ints(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) result(r *dpclient.Result) {
	d.ints(int64(len(r.Values)), int64(len(r.Buckets)))
	d.floats(r.Values...)
	d.ints(r.Buckets...)
	d.floats(r.NoiseStd, r.Spent, r.Remaining)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
