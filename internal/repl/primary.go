package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/obs/qlog"
)

// PrimaryConfig configures a Primary.
type PrimaryConfig struct {
	// Name identifies this node in events and handshakes.
	Name string
	// MinSync is the number of connected followers that must durably
	// ack an event before WaitSynced (and so Append) returns (0 =
	// asynchronous replication). With MinSync > 0 and fewer followers
	// connected, SyncGate refuses BEFORE anything is journaled — fail
	// closed, no budget bleeds while the standby is away.
	MinSync int
	// AckTimeout bounds the wait for follower acks; <=0 means 5s. On
	// timeout the append error wraps ErrAckTimeout: the event is
	// durable locally, so callers treat the spend as charged
	// (conservative over-count, never an under-count).
	AckTimeout time.Duration
	// Events receives repl_connected / repl_lost wide events (nil
	// discards).
	Events *qlog.Logger
	// OnFenced is called (once) when a follower presents a higher
	// epoch: this primary has been deposed and the server must stop
	// accepting spends. Nil is allowed; Fenced() still reports it.
	OnFenced func(err error)
}

// heartbeatInterval paces 'H' frames on idle streams. Dead peers are
// detected after 10 intervals.
const heartbeatInterval = 500 * time.Millisecond

// commitRingSize is the in-memory window of recent commits served
// without disk reads.
const commitRingSize = 4096

// Primary streams the ledger to followers and (optionally) holds
// appends until enough of them have durably acked.
type Primary struct {
	led *ledger.Ledger
	cfg PrimaryConfig

	mu        sync.Mutex
	sessions  map[*session]struct{}
	waiters   []*ackWaiter
	ring      commitRing
	committed uint64
	fenced    error
	closed    bool

	ln net.Listener
	wg sync.WaitGroup
}

type ackWaiter struct {
	seq  uint64
	ch   chan struct{}
	done bool
	// err is written (at most once) before ch closes: nil for a met
	// quorum, an ErrAckTimeout-class error when Close abandons the
	// wait with the event already durable locally.
	err error
}

// commitRing is a fixed window of recent commits indexed by seq.
type commitRing struct {
	entries []ringEntry
}

type ringEntry struct {
	seq     uint64
	payload []byte
}

func (r *commitRing) add(seq uint64, payload []byte) {
	r.entries[seq%uint64(len(r.entries))] = ringEntry{seq: seq, payload: payload}
}

func (r *commitRing) get(seq uint64) ([]byte, bool) {
	e := r.entries[seq%uint64(len(r.entries))]
	if e.seq != seq {
		return nil, false
	}
	return e.payload, true
}

// NewPrimary wires a Primary to led's commit hook. Create it before
// concurrent appends begin, then Serve a listener.
func NewPrimary(led *ledger.Ledger, cfg PrimaryConfig) *Primary {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	p := &Primary{
		led:      led,
		cfg:      cfg,
		sessions: make(map[*session]struct{}),
		ring:     commitRing{entries: make([]ringEntry, commitRingSize)},
	}
	p.committed = led.CommittedSeq()
	led.SetCommitHook(p.onCommit)
	return p
}

// onCommit runs under the ledger lock, once per record in seq order,
// after the sync that made the record durable — followers never run
// ahead of this node's durable prefix. It records the payload in the
// ring and pokes every session's sender. Must not call back into the
// ledger.
func (p *Primary) onCommit(seq uint64, payload []byte) {
	p.mu.Lock()
	p.committed = seq
	p.ring.add(seq, payload)
	for s := range p.sessions {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// Serve accepts follower connections on ln until Close. It returns
// immediately; sessions run on their own goroutines.
func (p *Primary) Serve(ln net.Listener) {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.handle(conn)
			}()
		}
	}()
}

// Append journals ev and, with MinSync > 0, holds until enough
// followers have durably acked it. The quorum is checked BEFORE the
// local append so that an unreplicatable spend is refused with
// nothing journaled. A caller journaling several records for one
// answer does the same three steps itself, the last two once: SyncGate
// before staging each record on the ledger, then ledger.Commit and
// WaitSynced on the last staged seq.
func (p *Primary) Append(ev ledger.Event) error {
	if err := p.SyncGate(); err != nil {
		return err
	}
	seq, err := p.led.AppendSeq(ev)
	if err != nil {
		return err
	}
	return p.WaitSynced(seq)
}

// SyncGate reports why a new spend must be refused before journaling:
// this primary is closed or fenced, or fewer than MinSync followers
// are connected. Nil means appends may proceed.
func (p *Primary) SyncGate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.fenced != nil {
		return p.fenced
	}
	if p.cfg.MinSync > 0 && len(p.sessions) < p.cfg.MinSync {
		return fmt.Errorf("%w: %d connected, need %d", ErrNoQuorum, len(p.sessions), p.cfg.MinSync)
	}
	return nil
}

// WaitSynced blocks until MinSync followers have durably acked seq —
// acks are cumulative, so one wait on a request's last committed seq
// covers every record before it — or AckTimeout passes. On timeout the
// error wraps ErrAckTimeout: the events are durable locally, so callers
// treat the spend as charged and withhold the answer.
func (p *Primary) WaitSynced(seq uint64) error {
	p.mu.Lock()
	if p.cfg.MinSync == 0 || p.ackedByLocked(seq) >= p.cfg.MinSync {
		p.mu.Unlock()
		return nil
	}
	if p.closed {
		// Close already drained the waiter list; registering now would
		// wait out the full timeout with no one left to release it.
		p.mu.Unlock()
		return fmt.Errorf("%w: primary closed with seq %d unacked", ErrAckTimeout, seq)
	}
	w := &ackWaiter{seq: seq, ch: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	t := time.NewTimer(p.cfg.AckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return w.err
	case <-t.C:
		p.mu.Lock()
		done, doneErr := w.done, w.err
		if !done {
			w.done = true // abandon: releaseWaitersLocked skips it
		}
		p.mu.Unlock()
		if done {
			return doneErr // ack (or Close) raced the timer
		}
		return fmt.Errorf("%w: seq %d unacked after %v", ErrAckTimeout, seq, p.cfg.AckTimeout)
	}
}

// ackedByLocked counts sessions whose cumulative ack covers seq.
func (p *Primary) ackedByLocked(seq uint64) int {
	n := 0
	for s := range p.sessions {
		if s.acked >= seq {
			n++
		}
	}
	return n
}

// releaseWaitersLocked completes waiters whose quorum is now met.
func (p *Primary) releaseWaitersLocked() {
	kept := p.waiters[:0]
	for _, w := range p.waiters {
		if !w.done && p.ackedByLocked(w.seq) >= p.cfg.MinSync {
			w.done = true
			close(w.ch)
		}
		if !w.done {
			kept = append(kept, w)
		}
	}
	p.waiters = kept
}

// fence marks this primary deposed (first cause wins).
func (p *Primary) fence(err error) {
	p.mu.Lock()
	already := p.fenced != nil
	if !already {
		p.fenced = err
	}
	p.mu.Unlock()
	if !already {
		p.event(qlog.Error, "repl_fenced", qlog.F("error", err.Error()))
		if p.cfg.OnFenced != nil {
			p.cfg.OnFenced(err)
		}
	}
}

// Fenced reports why this primary is deposed, or nil.
func (p *Primary) Fenced() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// Connected returns the number of attached followers.
func (p *Primary) Connected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// MaxLag returns the largest (committed − acked) over attached
// followers, 0 with none attached.
func (p *Primary) MaxLag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lag uint64
	for s := range p.sessions {
		if d := p.committed - s.acked; s.acked <= p.committed && d > lag {
			lag = d
		}
	}
	return lag
}

// Close stops the listener and all sessions and waits for them. New
// appends refuse with ErrClosed; appends already waiting for acks
// fail immediately with an ErrAckTimeout-class error (their event is
// durable locally — callers treat the spend as charged).
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	for _, w := range p.waiters {
		if !w.done {
			w.done = true
			w.err = fmt.Errorf("%w: primary closed with seq %d unacked", ErrAckTimeout, w.seq)
			close(w.ch)
		}
	}
	p.waiters = nil
	ln := p.ln
	sessions := make([]*session, 0, len(p.sessions))
	for s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.conn.Close()
	}
	p.wg.Wait()
}

func (p *Primary) event(level qlog.Level, name string, fields ...qlog.Field) {
	p.cfg.Events.Log(level, name, append([]qlog.Field{qlog.F("role", "primary"), qlog.F("node", p.cfg.Name)}, fields...)...)
}

// --- per-follower session ---------------------------------------------

type session struct {
	p      *Primary
	conn   net.Conn
	name   string
	notify chan struct{}
	acked  uint64 // guarded by p.mu
}

// handle runs one follower connection: handshake, then stream.
func (p *Primary) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	bw := bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 64<<10)

	if err := writeMagic(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if err := readMagic(br); err != nil {
		return
	}
	kind, payload, err := readFrame(br)
	if err != nil || kind != kindSub {
		return
	}
	var sub subRequest
	if err := decodeJSON(payload, &sub); err != nil {
		return
	}

	epoch := p.led.Epoch()
	if sub.Epoch > epoch {
		// A follower from the future: someone promoted past us. Fence
		// this primary — its regime is over — and tell the follower.
		err := fmt.Errorf("%w: follower %q at epoch %d, ours %d", ErrFenced, sub.Name, sub.Epoch, epoch)
		sendError(bw, "fenced", err.Error(), sub.Epoch)
		bw.Flush()
		p.fence(err)
		return
	}
	refuse := func(code, message string) {
		sendError(bw, code, message, epoch)
		bw.Flush()
	}
	committed := p.led.CommittedSeq()
	if sub.LastSeq > committed {
		refuse("diverged", fmt.Sprintf("follower at seq %d, primary at %d", sub.LastSeq, committed))
		return
	}
	// Decide the catch-up path against the oldest retained record: an
	// empty follower behind it is seeded with the snapshot recovery
	// would load, and any other streams from the WAL once its last
	// record checks out.
	oldest, err := ledger.OldestRetained(p.led.FS(), p.led.Dir(), committed)
	if err != nil {
		refuse("internal", err.Error())
		return
	}
	nextSeq := sub.LastSeq + 1
	var tr *ledger.TailReader
	var snapPayload []byte
	switch {
	case sub.LastSeq == 0 && oldest > 1:
		snapSeq, sp, err := ledger.SnapshotPayload(p.led.FS(), p.led.Dir())
		if err != nil || snapSeq == 0 {
			refuse("internal", fmt.Sprintf("no snapshot behind compaction horizon: %v", err))
			return
		}
		snapPayload, nextSeq = sp, snapSeq+1
		tr = ledger.NewTailReader(p.led.FS(), p.led.Dir(), snapSeq)
	case sub.LastSeq > 0:
		tr = ledger.NewTailReader(p.led.FS(), p.led.Dir(), sub.LastSeq-1)
		if code, message := checkLast(tr, sub, oldest); code != "" {
			refuse(code, message)
			return
		}
	default:
		tr = ledger.NewTailReader(p.led.FS(), p.led.Dir(), 0)
	}

	if err := writeJSONFrame(bw, kindPub, pubReply{Epoch: epoch, Seq: committed, Snapshot: snapPayload != nil}); err != nil {
		return
	}
	if snapPayload != nil {
		if err := writeFrame(bw, kindSnapshot, snapPayload); err != nil {
			return
		}
	}
	if err := bw.Flush(); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})

	s := &session{p: p, conn: conn, name: sub.Name, notify: make(chan struct{}, 1), acked: sub.LastSeq}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.sessions[s] = struct{}{}
	p.releaseWaitersLocked()
	p.mu.Unlock()
	p.event(qlog.Info, "repl_connected",
		qlog.F("peer", sub.Name), qlog.F("from_seq", nextSeq), qlog.F("epoch", epoch),
		qlog.F("snapshot", snapPayload != nil))

	var lostReason error
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.sessions, s)
		// Waiters can no longer be satisfied by this session; others
		// may still complete them, the rest time out.
		p.mu.Unlock()
		reason := "closed"
		if lostReason != nil {
			reason = lostReason.Error()
		}
		p.event(qlog.Warn, "repl_lost", qlog.F("peer", sub.Name), qlog.F("reason", reason))
	}()

	// Ack reader: cumulative positions, completing sync waiters.
	readErr := make(chan error, 1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		idle := 10 * heartbeatInterval
		for {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
			kind, payload, err := readFrame(br)
			if err != nil {
				readErr <- err
				return
			}
			if kind != kindAck {
				readErr <- fmt.Errorf("repl: unexpected frame %q from follower", kind)
				return
			}
			var ack ackMsg
			if err := decodeJSON(payload, &ack); err != nil {
				readErr <- err
				return
			}
			p.mu.Lock()
			if ack.Seq > s.acked {
				s.acked = ack.Seq
				p.releaseWaitersLocked()
			}
			p.mu.Unlock()
		}
	}()

	lostReason = s.stream(bw, tr, nextSeq, readErr)
}

// checkLast reads a follower's last record from tr, positioned just
// before it, and reports why the follower cannot stream — its record
// compacted away ("behind"), unreadable ("internal"), or not OUR
// record, byte for byte ("diverged") — or "" when it can; tr then
// stands at the follower's next seq.
func checkLast(tr *ledger.TailReader, sub subRequest, oldest uint64) (code, message string) {
	var mine []byte
	err := ledger.ErrCompacted
	if sub.LastSeq >= oldest {
		_, mine, err = tr.Next()
	}
	switch {
	case errors.Is(err, ledger.ErrCompacted):
		return "behind", fmt.Sprintf("seq %d compacted away; re-seed the follower from an empty directory", sub.LastSeq)
	case err == io.EOF:
		return "internal", fmt.Sprintf("no record at seq %d", sub.LastSeq)
	case err != nil:
		return "internal", err.Error()
	case ledger.Checksum(mine) != sub.LastCRC:
		return "diverged", fmt.Sprintf("record %d CRC mismatch (follower %08x, primary %08x)",
			sub.LastSeq, sub.LastCRC, ledger.Checksum(mine))
	}
	return "", ""
}

// stream is the sender loop: backlog (ring or disk) then live tail.
func (s *session) stream(bw *bufio.Writer, tr *ledger.TailReader, nextSeq uint64, readErr chan error) error {
	p := s.p
	hb := time.NewTicker(heartbeatInterval)
	defer hb.Stop()
	fromDisk := true // tr is positioned at nextSeq
	for {
		// Drain everything committed.
		for {
			p.mu.Lock()
			committed := p.committed
			payload, ok := p.ring.get(nextSeq)
			p.mu.Unlock()
			if nextSeq > committed {
				break
			}
			if ok {
				fromDisk = false
			} else {
				if !fromDisk {
					// Fell out of the ring window: re-position a disk
					// reader.
					tr = ledger.NewTailReader(p.led.FS(), p.led.Dir(), nextSeq-1)
					fromDisk = true
				}
				seq, diskPayload, err := tr.Next()
				if err == io.EOF {
					// Committed but not yet visible on disk — the ring
					// will have it momentarily.
					break
				}
				if err != nil {
					return err
				}
				if seq != nextSeq {
					return fmt.Errorf("repl: disk reader at seq %d, want %d", seq, nextSeq)
				}
				payload = diskPayload
			}
			_ = s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := writeFrame(bw, kindEvent, payload); err != nil {
				return err
			}
			nextSeq++
		}
		if err := bw.Flush(); err != nil {
			return err
		}

		select {
		case <-s.notify:
		case <-hb.C:
			p.mu.Lock()
			committed := p.committed
			p.mu.Unlock()
			_ = s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := writeJSONFrame(bw, kindHeartbeat, heartbeatMsg{Seq: committed, Epoch: p.led.Epoch()}); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case err := <-readErr:
			return err
		}
	}
}
