package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
	"dptrace/internal/retry"
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Primary is the host:port of the primary's replication listener.
	Primary string
	// Name identifies this node in handshakes and events.
	Name string
	// Events receives repl_connected / repl_lost wide events (nil
	// discards).
	Events *qlog.Logger
	// OnApply is called after each replicated event is durable in the
	// follower's WAL — the server warms its in-memory policy state
	// here. Called in seq order from a single goroutine.
	OnApply func(ev ledger.Event)
	// OnReset is called when a snapshot is installed (the in-memory
	// state must be rebuilt from the ledger, not patched).
	OnReset func()
}

// reconnect paces the follower's re-dials: capped exponential backoff
// with jitter (it retries forever, so MaxAttempts is unused).
var reconnect = retry.Policy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second, Jitter: 0.2}

// dialTimeout bounds each connection attempt.
const dialTimeout = 5 * time.Second

// Follower tails a primary into the local ledger, acking a seq only
// after it (and everything before it) is durable locally. It serves
// reads until Promote.
type Follower struct {
	led *ledger.Ledger
	cfg FollowerConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conn   net.Conn
	sealed bool
	fatal  error

	connected    atomic.Bool
	applied      atomic.Uint64
	primarySeq   atomic.Uint64
	primaryEpoch atomic.Uint64
	lastCRC      atomic.Uint32
}

// NewFollower prepares a follower over led. Call Start to begin
// tailing.
func NewFollower(led *ledger.Ledger, cfg FollowerConfig) (*Follower, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{led: led, cfg: cfg, ctx: ctx, cancel: cancel}
	f.applied.Store(led.CommittedSeq())
	f.primarySeq.Store(led.CommittedSeq())
	if seq := led.CommittedSeq(); seq > 0 {
		p, err := ledger.RecordPayload(led.FS(), led.Dir(), seq)
		if err != nil {
			return nil, fmt.Errorf("repl: read own tail record %d: %w", seq, err)
		}
		f.lastCRC.Store(ledger.Checksum(p))
	}
	return f, nil
}

// Start launches the tailing loop: dial, stream, reconnect with capped
// backoff until Promote/Close or a fatal protocol error.
func (f *Follower) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.run()
	}()
}

func (f *Follower) run() {
	attempt := 0
	for {
		if f.ctx.Err() != nil || f.Err() != nil {
			return
		}
		streamed, err := f.session()
		f.connected.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if err != nil && isFatal(err) {
			f.setFatal(err)
			f.event(qlog.Error, "repl_lost", qlog.F("reason", err.Error()), qlog.F("fatal", true))
			return
		}
		if err != nil {
			f.event(qlog.Warn, "repl_lost", qlog.F("reason", err.Error()), qlog.F("fatal", false))
		}
		if streamed {
			attempt = 0 // made progress: restart the backoff ladder
		}
		if sleepErr := reconnect.Sleep(f.ctx, attempt); sleepErr != nil {
			return
		}
		attempt++
	}
}

// isFatal reports errors that reconnecting cannot fix: fencing,
// divergence, falling behind compaction, or a sick local ledger.
func isFatal(err error) bool {
	return errors.Is(err, ErrFenced) || errors.Is(err, ErrDiverged) || errors.Is(err, ErrBehind) ||
		errors.Is(err, ledger.ErrDegraded) || errors.Is(err, ledger.ErrFrozen) || errors.Is(err, ledger.ErrCorrupt)
}

// session runs one connection lifetime. The bool reports whether the
// handshake completed (progress was made).
func (f *Follower) session() (bool, error) {
	dialCtx, cancel := context.WithTimeout(f.ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dialCtx, "tcp", f.cfg.Primary)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	f.mu.Lock()
	if f.sealed {
		f.mu.Unlock()
		return false, nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	bw := bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := readMagic(br); err != nil {
		return false, err
	}
	if err := writeMagic(bw); err != nil {
		return false, err
	}
	lastSeq := f.led.CommittedSeq()
	sub := subRequest{Name: f.cfg.Name, Epoch: f.led.Epoch(), LastSeq: lastSeq}
	if lastSeq > 0 {
		sub.LastCRC = f.lastCRC.Load()
	}
	if err := writeJSONFrame(bw, kindSub, sub); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}

	kind, payload, err := readFrame(br)
	if err != nil {
		return false, err
	}
	if kind == kindError {
		var em errMsg
		if err := decodeJSON(payload, &em); err != nil {
			return false, err
		}
		return false, em.toError()
	}
	if kind != kindPub {
		return false, fmt.Errorf("repl: handshake frame %q, want pub", kind)
	}
	var pub pubReply
	if err := decodeJSON(payload, &pub); err != nil {
		return false, err
	}
	if pub.Epoch < f.led.Epoch() {
		// A primary from a previous regime — refuse to follow it.
		return false, fmt.Errorf("%w: primary at epoch %d, we are at %d", ErrFenced, pub.Epoch, f.led.Epoch())
	}
	// Adopt the primary's epoch durably BEFORE acking anything under
	// its regime, so a later promotion bumps past it.
	if err := f.led.SetEpoch(pub.Epoch); err != nil {
		return false, err
	}
	f.primaryEpoch.Store(pub.Epoch)
	f.primarySeq.Store(pub.Seq)

	if pub.Snapshot {
		kind, payload, err := readFrame(br)
		if err != nil {
			return false, err
		}
		if kind != kindSnapshot {
			return false, fmt.Errorf("repl: frame %q, want snapshot", kind)
		}
		if err := f.led.InstallSnapshot(payload); err != nil {
			return false, fmt.Errorf("repl: install snapshot: %w", err)
		}
		f.applied.Store(f.led.CommittedSeq())
		f.lastCRC.Store(ledger.Checksum(payload))
		if f.cfg.OnReset != nil {
			f.cfg.OnReset()
		}
		if err := writeJSONFrame(bw, kindAck, ackMsg{Seq: f.led.CommittedSeq()}); err != nil {
			return false, err
		}
		if err := bw.Flush(); err != nil {
			return false, err
		}
	}

	_ = conn.SetDeadline(time.Time{})
	f.connected.Store(true)
	f.event(qlog.Info, "repl_connected",
		qlog.F("primary", f.cfg.Primary), qlog.F("epoch", pub.Epoch),
		qlog.F("local_seq", f.led.CommittedSeq()), qlog.F("primary_seq", pub.Seq),
		qlog.F("snapshot", pub.Snapshot))

	return true, f.stream(conn, br, bw)
}

// burst is the run of event frames staged in the local WAL since the
// last commit: one fsync and one cumulative ack cover all of it.
type burst struct {
	events  []ledger.Event
	lastCRC uint32
}

// stream applies events until the connection dies or the follower is
// sealed. Frames that arrive together are staged one by one and
// committed once; every seq is durable locally BEFORE it is acked.
func (f *Follower) stream(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	var b burst
	err := f.streamFrames(conn, br, bw, &b)
	// A dying connection can leave staged events behind: commit them,
	// so the next handshake resumes from the ledger's true tail.
	if _, cerr := f.commitBurst(&b); cerr != nil && !isFatal(err) {
		err = cerr
	}
	return err
}

func (f *Follower) streamFrames(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, b *burst) error {
	idle := 10 * time.Second
	ack := func(seq uint64) error {
		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := writeJSONFrame(bw, kindAck, ackMsg{Seq: seq}); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		kind, payload, err := readFrame(br)
		if err != nil {
			return err
		}
		if kind == kindEvent {
			if err := f.stageEvent(payload, b); err != nil {
				return err
			}
			if br.Buffered() >= frameHeaderSize {
				continue // more of the burst is already here
			}
		}
		// The burst ends here (or a control frame interrupts it): make
		// it durable and ack its last seq before anything else.
		if seq, err := f.commitBurst(b); err != nil {
			return err
		} else if seq > 0 {
			if err := ack(seq); err != nil {
				return err
			}
		}
		switch kind {
		case kindEvent:
		case kindHeartbeat:
			var hb heartbeatMsg
			if err := decodeJSON(payload, &hb); err != nil {
				return err
			}
			if hb.Epoch > f.primaryEpoch.Load() {
				f.primaryEpoch.Store(hb.Epoch)
			}
			if hb.Seq > f.primarySeq.Load() {
				f.primarySeq.Store(hb.Seq)
			}
			if err := ack(f.applied.Load()); err != nil {
				return err
			}
		case kindError:
			var em errMsg
			if err := decodeJSON(payload, &em); err != nil {
				return err
			}
			return em.toError()
		default:
			return fmt.Errorf("repl: unexpected frame %q", kind)
		}
	}
}

// stageEvent writes one replicated record into the local WAL (not yet
// durable) and adds it to the burst. Sealed followers refuse:
// promotion froze the history.
func (f *Follower) stageEvent(payload []byte, b *burst) error {
	f.mu.Lock()
	sealed := f.sealed
	f.mu.Unlock()
	if sealed {
		return errors.New("repl: follower sealed (promotion in progress)")
	}
	ev, crc, err := f.led.StageReplica(payload)
	if err != nil {
		return err
	}
	if ev.Seq > f.primarySeq.Load() {
		f.primarySeq.Store(ev.Seq)
	}
	b.events = append(b.events, ev)
	b.lastCRC = crc
	return nil
}

// commitBurst makes the staged burst durable with one Commit, advances
// the applied position, and hands each event to OnApply. It returns the
// burst's last seq (0 for an empty burst) — the cumulative ack to send.
func (f *Follower) commitBurst(b *burst) (uint64, error) {
	if len(b.events) == 0 {
		return 0, nil
	}
	last := b.events[len(b.events)-1].Seq
	if err := f.led.Commit(last); err != nil {
		return 0, err
	}
	f.applied.Store(last)
	f.lastCRC.Store(b.lastCRC)
	if f.cfg.OnApply != nil {
		for _, ev := range b.events {
			f.cfg.OnApply(ev)
		}
	}
	b.events = b.events[:0]
	return last, nil
}

// Promote seals the follower, verifies the replicated WAL tail
// replays bit-identically, durably bumps the fencing epoch, and
// returns the new epoch. After Promote returns, the ledger is safe to
// serve spends at exactly the replayed refusal boundary.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	if f.sealed {
		f.mu.Unlock()
		return 0, errors.New("repl: already promoted")
	}
	f.sealed = true
	conn := f.conn
	f.mu.Unlock()
	f.cancel()
	if conn != nil {
		conn.Close()
	}
	f.wg.Wait()

	if err := f.led.Sync(); err != nil {
		return 0, fmt.Errorf("repl: sync before promote: %w", err)
	}
	if err := f.verifyTail(); err != nil {
		return 0, fmt.Errorf("repl: tail verification: %w", err)
	}
	epoch := f.led.Epoch() + 1
	if err := f.led.SetEpoch(epoch); err != nil {
		return 0, fmt.Errorf("repl: bump epoch: %w", err)
	}
	f.event(qlog.Info, "repl_promoted", qlog.F("epoch", epoch), qlog.F("seq", f.led.CommittedSeq()))
	return epoch, nil
}

// verifyTail re-reads the WAL from disk via a fresh Replay and checks
// it lands exactly on the live state: same seq, same per-dataset
// budgets bit for bit. This is the "verify the tail" step of
// promotion — the durable record and the warm state must agree before
// the first new spend.
func (f *Follower) verifyTail() error {
	st, rec, err := ledger.Replay(f.led.Dir(), 0)
	if err != nil {
		return err
	}
	if rec.Err != nil {
		return rec.Err
	}
	live := f.led.State()
	if st.Seq != live.Seq {
		return fmt.Errorf("replayed seq %d, live %d", st.Seq, live.Seq)
	}
	for name, ds := range live.Datasets {
		rd := st.Datasets[name]
		if rd == nil {
			return fmt.Errorf("dataset %q missing from replay", name)
		}
		if rd.TotalSpent != ds.TotalSpent {
			return fmt.Errorf("dataset %q total spent: replay %v, live %v", name, rd.TotalSpent, ds.TotalSpent)
		}
		for analyst, eps := range ds.Spent {
			if rd.Spent[analyst] != eps {
				return fmt.Errorf("dataset %q analyst %q: replay %v, live %v", name, analyst, rd.Spent[analyst], ds.Spent[analyst])
			}
		}
	}
	return nil
}

// Close stops tailing without promoting.
func (f *Follower) Close() {
	f.mu.Lock()
	conn := f.conn
	f.mu.Unlock()
	f.cancel()
	if conn != nil {
		conn.Close()
	}
	f.wg.Wait()
}

// Err returns the fatal error that stopped tailing, or nil.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fatal
}

func (f *Follower) setFatal(err error) {
	f.mu.Lock()
	if f.fatal == nil {
		f.fatal = err
	}
	f.mu.Unlock()
}

// Connected reports whether a stream is currently attached.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Applied returns the highest locally-durable replicated seq.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Epoch returns the last adopted primary epoch.
func (f *Follower) Epoch() uint64 { return f.primaryEpoch.Load() }

// Lag returns primarySeq − applied (floored at zero): how many
// committed events this follower has not yet durably applied.
func (f *Follower) Lag() uint64 {
	p, a := f.primarySeq.Load(), f.applied.Load()
	if p <= a {
		return 0
	}
	return p - a
}

func (f *Follower) event(level qlog.Level, name string, fields ...qlog.Field) {
	f.cfg.Events.Log(level, name, append([]qlog.Field{qlog.F("role", "follower"), qlog.F("node", f.cfg.Name)}, fields...)...)
}
