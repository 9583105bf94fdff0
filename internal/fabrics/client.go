package fabrics

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/hostif"
	"repro/internal/vclock"
)

// Default wall-clock guard rails. They bound how long a frame exchange
// may hang on a dead peer, not how long commands take in virtual time.
const (
	// DefaultAdminTimeout bounds one admin request/reply round trip and
	// the connect handshake.
	DefaultAdminTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds one frame write on an I/O connection.
	DefaultWriteTimeout = 30 * time.Second
	// Redial backoff defaults (capped exponential, seeded jitter).
	defaultRedialBase = 2 * time.Millisecond
	defaultRedialCap  = 250 * time.Millisecond
)

// RedialConfig shapes the session-resumption retry loop: capped
// exponential backoff with seeded jitter. MaxAttempts 0 disables
// resumption entirely — a connection loss is then terminal, the
// pre-session behavior.
type RedialConfig struct {
	// MaxAttempts is the redial budget per outage (not per queue-pair
	// lifetime). 0 disables resumption.
	MaxAttempts int
	// Base is the first backoff step (default 2ms); doubles per attempt.
	Base time.Duration
	// Cap bounds the backoff step (default 250ms).
	Cap time.Duration
	// Seed makes the jitter deterministic; mixed with the session token
	// so concurrent queue pairs don't thunder in lockstep.
	Seed int64
}

// Config carries the client's liveness and resilience settings. The
// zero value keeps the wire liveness features off (no keep-alive, no
// redial) but applies sane wall-clock timeouts so a dead server can no
// longer hang a caller forever.
type Config struct {
	// KeepAlive is the NVMe-style KATO: the client heartbeats at a
	// third of it, the server reaps sessions silent past ~1.25x it, and
	// the client treats a read silence of KATO as a lost connection.
	// 0 disables keep-alive.
	KeepAlive time.Duration
	// AdminTimeout bounds admin round trips and connect handshakes.
	// 0 means DefaultAdminTimeout; negative disables the deadline.
	AdminTimeout time.Duration
	// WriteTimeout bounds I/O-connection frame writes. 0 means
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// Redial enables session resumption with idempotent replay.
	Redial RedialConfig
}

// resolveTimeout maps the Config convention (0 = default, negative =
// disabled) onto a concrete deadline span (0 = none).
func resolveTimeout(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// Client is one fabric initiator. It owns only the dial function and
// the resilience config; every QueuePair and AdminClient opens its own
// connection, because one connection is one queue pair.
type Client struct {
	dial func() (net.Conn, error)
	cfg  Config
}

// Dial returns a client that connects to a fabrics server at a TCP
// address. No connection is made until a queue pair or admin client is
// opened.
func Dial(addr string) *Client {
	return NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) })
}

// NewClient returns a client over a custom dial function — the
// loopback transport's entry point.
func NewClient(dial func() (net.Conn, error)) *Client {
	return &Client{dial: dial}
}

// WithConfig returns a client sharing this one's dial function with
// the given resilience config.
func (c *Client) WithConfig(cfg Config) *Client {
	return &Client{dial: c.dial, cfg: cfg}
}

// connect dials and runs the handshake, returning the accepted
// queue-pair ID, depth and session token. token 0 requests a fresh
// session; non-zero resumes a retained one. The accept is read through
// fr, reset onto the new connection, and the caller keeps reading
// through it: a frame the server pushed right behind the accept is
// already buffered there.
func (c *Client) connect(fr *frameReader, kind uint8, now vclock.Time, depth int, class hostif.Class, coalesce int, token uint64) (_ net.Conn, qid, dep int, tok uint64, err error) {
	conn, err := c.dial()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	fr.reset(conn)
	if ht := resolveTimeout(c.cfg.AdminTimeout, DefaultAdminTimeout); ht > 0 {
		conn.SetDeadline(time.Now().Add(ht))
		defer conn.SetDeadline(time.Time{})
	}
	var f frameBuf
	f.start(frameConnect)
	f.u8(kind)
	f.u8(uint8(class))
	f.u32(uint32(depth))
	f.u32(uint32(coalesce))
	f.i64(int64(now))
	f.u32(uint32(c.cfg.KeepAlive / time.Millisecond))
	f.u64(token)
	if _, err := conn.Write(f.finish()); err != nil {
		return nil, 0, 0, 0, wrapTimeout(err)
	}
	ftype, payload, err := fr.readFrame()
	if err != nil {
		return nil, 0, 0, 0, wrapTimeout(err)
	}
	switch ftype {
	case frameAccept:
		d := decoder{b: payload}
		qid = int(d.u32())
		dep = int(d.u32())
		tok = d.u64()
		if err := d.done(); err != nil {
			return nil, 0, 0, 0, err
		}
		return conn, qid, dep, tok, nil
	case frameError:
		return nil, 0, 0, 0, wireError(payload)
	default:
		return nil, 0, 0, 0, fmt.Errorf("%w: %d in handshake", ErrBadFrameType, ftype)
	}
}

// wrapTimeout surfaces deadline misses as the typed ErrTimeout while
// passing other transport errors through.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// pendingCmd is one submitted command the server has not completed:
// staged (rung false) or in flight (rung true, at = doorbell instant).
// Rung entries are the replay set after a reconnect.
type pendingCmd struct {
	cmd  *hostif.Command
	at   vclock.Time
	rung bool
}

// recvEntry is one received completion awaiting Reap.
type recvEntry struct {
	comp hostif.Completion
	cmd  *hostif.Command
	data []byte // pooled buffer backing comp.Data (nil when none)
}

// QueuePair is the client half of one fabric queue pair: the same
// Submit / Ring / Reap / Push surface as hostif.QueuePair, over a
// connection. Slot accounting mirrors the in-process pair exactly —
// staged, in-flight and received-but-unreaped completions all hold a
// slot against the depth — so a driver moved onto the fabric sees
// identical ErrQueueFull backpressure.
//
// Differences from the in-process pair, inherent to a network hop:
// Reap blocks until a completion arrives (there is no host to drain
// synchronously) and returns false only when nothing is in flight;
// server-side submission rejections surface as error completions
// (Status/Err set, echoing the command) rather than Submit errors. A
// reaped completion's Data is lent: it stays valid, whatever lands
// meanwhile, until the next Reap, ReapEarliest or MustReap of the pair.
//
// Threading: whoever waits, reads. A goroutine blocked in a reap takes
// the pair's reader role and pulls frames off the socket itself, so a
// completion is decoded by the goroutine that wanted it and nobody is
// woken; other waiters sit on cond until the reader lands something,
// and whoever holds the role handles a connection loss. A reader of
// last resort holds it only while no reaper does (see lastResort).
//
// Resilience: when the client was built with a Redial budget, a lost
// connection is not terminal — the pair redials with capped
// exponential backoff, resumes its server-side session by token, and
// replays every un-acked rung command at its original doorbell
// instant. The server dedups sequence numbers already executed, so no
// acked write is lost or double-applied, and virtual timing is
// identical to the uninterrupted run. Callers blocked in Reap simply
// keep waiting across the outage.
//
// Like its in-process counterpart, a queue pair is driven by one actor
// at a time.
type QueuePair struct {
	cli      *Client
	id       int
	depth    int
	class    hostif.Class
	coalesce int
	token    uint64

	wmu  sync.Mutex // write side: ring frames, keep-alives, disconnect
	wbuf frameBuf

	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn
	fr      frameReader   // owned by the holder of the reader role
	reading bool          // the reader role: one goroutine reads conn
	waiting int           // reapers parked on cond behind the reader
	reaps   uint64        // reap calls so far: tells the last-resort reader the pair is driven
	summon  chan struct{} // cuts the last-resort reader's back-off short
	gen     int           // bumped per reconnect; guards breakConn
	werr    error         // first write error on the current conn (redial context)
	rerr    error         // terminal reader error (sticky)
	closed  bool
	done    chan struct{} // closed with the pair, however it ends

	// Local command arena with the in-process misuse detection.
	free  []*hostif.Command
	state map[*hostif.Command]uint8

	// Sequence-numbered pending set. Sequence numbers start at 1 and
	// never repeat; ack is the highest seq below which every completion
	// has been received (carried on ring frames so the server can prune
	// its replay cache).
	pending  map[uint64]pendingCmd
	staged   []uint64
	nextSeq  uint64
	rung     int // rung, completion not yet received
	held     int // staged + rung + unreaped (slot gate)
	ack      uint64
	ackAhead map[uint64]struct{}
	lastRing vclock.Time

	nextSlot uint64
	cq       []recvEntry
	dataFree [][]byte
	lent     []byte // buffer behind the completion last handed out

	redials  int
	replayed int
}

// QueuePair opens an I/O queue pair: the handshake is the remote
// AdminCreateIOQP, carrying depth, arbitration class and the
// completion-coalescing threshold (how many completions the server
// batches per push; 1 pushes each immediately). now is the virtual
// instant of the connection.
func (c *Client) QueuePair(now vclock.Time, depth int, class hostif.Class, coalesce int) (*QueuePair, error) {
	if depth < 1 {
		depth = 1
	}
	qp := &QueuePair{
		cli:      c,
		class:    class,
		coalesce: coalesce,
		summon:   make(chan struct{}, 1),
		done:     make(chan struct{}),
		state:    make(map[*hostif.Command]uint8),
		ackAhead: make(map[uint64]struct{}),
		lastRing: now,
	}
	var err error
	qp.conn, qp.id, qp.depth, qp.token, err = c.connect(&qp.fr, connKindIO, now, depth, class, coalesce, 0)
	if err != nil {
		return nil, err
	}
	qp.pending = make(map[uint64]pendingCmd, qp.depth)
	qp.cond = sync.NewCond(&qp.mu)
	if kato := c.cfg.KeepAlive; kato > 0 {
		go qp.keepAlive(max(kato/3, time.Millisecond))
	}
	go qp.lastResort()
	return qp, nil
}

// ID reports the server-assigned queue-pair identifier.
func (qp *QueuePair) ID() int { return qp.id }

// Depth reports the accepted queue depth.
func (qp *QueuePair) Depth() int { return qp.depth }

// Class reports the queue pair's WRR arbitration class.
func (qp *QueuePair) Class() Class { return qp.class }

// Token reports the session token the server issued at connect.
func (qp *QueuePair) Token() uint64 { return qp.token }

// ReconnectStats counts session-resumption work over the pair's life.
type ReconnectStats struct {
	// Redials is the number of successful session resumptions.
	Redials int
	// Replayed is the total commands re-sent across all resumptions.
	Replayed int
}

// Stats reports the pair's resumption counters.
func (qp *QueuePair) Stats() ReconnectStats {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return ReconnectStats{Redials: qp.redials, Replayed: qp.replayed}
}

// Class aliases the host interface's arbitration class for callers
// that only import fabrics.
type Class = hostif.Class

// AcquireCommand returns a Command from the queue pair's local arena,
// recycled when its completion is reaped — the same closed-loop
// storage contract as the in-process arena.
func (qp *QueuePair) AcquireCommand() *hostif.Command {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if n := len(qp.free); n > 0 {
		cmd := qp.free[n-1]
		qp.free = qp.free[:n-1]
		qp.state[cmd] = cmdAcquired
		return cmd
	}
	cmd := new(hostif.Command)
	qp.state[cmd] = cmdAcquired
	return cmd
}

// Local arena states (values shared with hostif's convention).
const (
	cmdFree uint8 = iota
	cmdAcquired
	cmdInflight
)

// recycleLocked returns an arena command to the free list.
func (qp *QueuePair) recycleLocked(cmd *hostif.Command) {
	if cmd == nil {
		return
	}
	if _, ok := qp.state[cmd]; !ok {
		return
	}
	*cmd = hostif.Command{}
	qp.state[cmd] = cmdFree
	qp.free = append(qp.free, cmd)
}

// ReleaseCommand returns an acquired-but-unsubmitted arena command to
// the free list: the discard path for a rejected submit, as in process.
func (qp *QueuePair) ReleaseCommand(cmd *hostif.Command) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if st, ok := qp.state[cmd]; ok && st == cmdAcquired {
		qp.recycleLocked(cmd)
	}
}

// Err reports the queue pair's terminal error: nil while healthy (or
// mid-resumption), ErrClosed after Close, or the transport/protocol
// error that killed the connection. RedialEligible discriminates
// causes a redial budget would have survived.
func (qp *QueuePair) Err() error {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.termErrLocked()
}

func (qp *QueuePair) termErrLocked() error {
	if qp.rerr != nil {
		return qp.rerr
	}
	if qp.closed {
		return ErrClosed
	}
	return nil
}

// Submit stages cmd for the next Ring, holding one of the queue's
// depth slots until the completion is reaped. It returns the local
// submission slot (which matches the controller's slot numbering when
// no command is rejected) or ErrQueueFull when every slot is held —
// the same backpressure surface as the in-process pair, enforced
// client-side so it is deterministic and immediate.
func (qp *QueuePair) Submit(cmd *hostif.Command) (uint64, error) {
	if cmd.Op.IsAdmin() {
		return 0, hostif.ErrAdminOnly
	}
	if len(cmd.Key) > 0 {
		// The wire has no encoding for Key: sent anyway, the command
		// would run as a plain read and report the key as not found.
		return 0, fmt.Errorf("%w: searching %v has no wire encoding", hostif.ErrUnsupported, cmd.Op)
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if err := qp.termErrLocked(); err != nil {
		return 0, err
	}
	st, arena := qp.state[cmd]
	if arena {
		switch st {
		case cmdInflight:
			return 0, hostif.ErrCommandInFlight
		case cmdFree:
			return 0, hostif.ErrCommandRecycled
		}
	}
	if qp.held >= qp.depth {
		return 0, hostif.ErrQueueFull
	}
	qp.nextSeq++
	seq := qp.nextSeq
	qp.pending[seq] = pendingCmd{cmd: cmd}
	qp.staged = append(qp.staged, seq)
	qp.held++
	slot := qp.nextSlot
	qp.nextSlot++
	if arena {
		qp.state[cmd] = cmdInflight
	}
	return slot, nil
}

// Ring sends every staged command to the controller as one doorbell
// batch at virtual instant now: one frame, one server-side Ring — the
// wire preserves batched submission exactly. It returns the number of
// commands sent. A write failure is not terminal when the client holds
// a redial budget: the rung entries stay pending and are replayed on
// resumption.
func (qp *QueuePair) Ring(now vclock.Time) int {
	qp.wmu.Lock()
	defer qp.wmu.Unlock()
	qp.mu.Lock()
	n := len(qp.staged)
	if n == 0 || qp.termErrLocked() != nil {
		qp.mu.Unlock()
		return 0
	}
	conn, gen := qp.conn, qp.gen
	// With commands already in flight and nobody reading, the peer may
	// be blocked pushing their completions and never get to this frame.
	unread := qp.rung > 0 && !qp.reading
	qp.wbuf.start(frameRing)
	qp.wbuf.u64(qp.ack)
	qp.wbuf.u32(uint32(n))
	for _, seq := range qp.staged {
		pc := qp.pending[seq]
		pc.rung, pc.at = true, now
		qp.pending[seq] = pc
		encodeCommand(&qp.wbuf, seq, now, pc.cmd)
	}
	qp.rung += n
	qp.staged = qp.staged[:0]
	qp.lastRing = now
	frame := qp.wbuf.finish()
	// Release mu (but not wmu) before the blocking write: the reader
	// needs mu to land completions, and a stalled write only drains once
	// the peer's pushes are being consumed.
	qp.mu.Unlock()
	if unread { // cut the last-resort reader's yield short
		select {
		case qp.summon <- struct{}{}:
		default:
		}
	}
	qp.writeConn(conn, gen, frame)
	return n
}

// writeConn writes one frame under the configured write deadline,
// armed per write and never cleared: every write path arms its own. A
// failure does not fail the pair: it is recorded against the connection
// generation it happened on (a stale one, the session having moved on,
// is ignored) and the connection closed, so whoever reads observes the
// loss and decides whether the cause is redial-eligible. Caller holds
// wmu.
func (qp *QueuePair) writeConn(conn net.Conn, gen int, frame []byte) {
	if wt := resolveTimeout(qp.cli.cfg.WriteTimeout, DefaultWriteTimeout); wt > 0 {
		conn.SetWriteDeadline(time.Now().Add(wt))
	}
	if _, err := conn.Write(frame); err != nil {
		qp.mu.Lock()
		if qp.gen == gen && qp.werr == nil && !qp.closed {
			qp.werr = wrapTimeout(err)
		}
		qp.mu.Unlock()
		conn.Close()
	}
}

// Push submits cmd and rings the doorbell at now — the single-command
// convenience, mirroring the in-process Push.
func (qp *QueuePair) Push(now vclock.Time, cmd *hostif.Command) error {
	if _, err := qp.Submit(cmd); err != nil {
		return err
	}
	qp.Ring(now)
	return nil
}

// Reap pops the oldest received completion in push order (the server's
// completion order), blocking while commands are in flight and nothing
// has arrived yet — including across a connection outage while the
// session resumes. It returns false when no completion can ever come:
// nothing in flight, or the pair terminally failed (check Err).
func (qp *QueuePair) Reap() (hostif.Completion, bool) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	qp.reaps++
	for len(qp.cq) == 0 {
		if qp.rung == 0 || qp.rerr != nil || qp.closed {
			return hostif.Completion{}, false
		}
		qp.waitLocked()
	}
	return qp.takeLocked(0), true
}

// waitLocked blocks until the pair's state may have changed. If nobody
// is reading the socket the caller takes the reader role for one frame:
// read it, land it, and on a connection loss classify the cause and
// resume or fail the pair, all on the calling goroutine, with mu
// released meanwhile. Otherwise it parks on cond behind whoever reads.
// Caller holds mu.
func (qp *QueuePair) waitLocked() {
	if qp.reading {
		qp.waiting++
		qp.cond.Wait()
		qp.waiting--
		return
	}
	qp.reading = true
	conn := qp.conn
	qp.mu.Unlock()
	if err := qp.readOne(conn); err != nil {
		qp.lost(conn, err)
	}
	qp.mu.Lock()
	qp.reading = false
	qp.cond.Broadcast()
}

// lastResortYield is how long lastResort stays off a socket a reaper wants.
const lastResortYield = 5 * time.Millisecond

// lastResort is the reader of last resort: it reads whenever no reaper
// does, so an idle pair still notices goaway, EOF and keep-alive silence
// (parked in Read, it costs nothing), and a pair that rang and is not
// being reaped cannot hold up a peer blocked pushing to it. It yields —
// stays away for lastResortYield, which Ring and Close cut short — when
// it finds the role taken, a reaper parked behind it, or the pair driven
// (somebody reaped meanwhile) with nothing left in flight, so a busy
// reaper loses a frame or two per interval to it.
func (qp *QueuePair) lastResort() {
	t := time.NewTimer(lastResortYield)
	defer t.Stop()
	qp.mu.Lock()
	defer qp.mu.Unlock()
	for qp.rerr == nil && !qp.closed {
		if !qp.reading {
			seen := qp.reaps
			qp.waitLocked() // the role is free: this reads
			if qp.waiting == 0 && (qp.reaps == seen || qp.rung > 0) {
				continue // nobody behind us would read what may still come
			}
		}
		qp.mu.Unlock()
		t.Reset(lastResortYield)
		select {
		case <-t.C:
		case <-qp.summon:
		case <-qp.done:
		}
		qp.mu.Lock()
	}
}

// MustReap is Reap for drivers whose protocol guarantees a completion
// is pending; it panics when none can arrive.
func (qp *QueuePair) MustReap() hostif.Completion {
	c, ok := qp.Reap()
	if !ok {
		panic(fmt.Sprintf("fabrics: MustReap with nothing in flight (%v)", qp.Err()))
	}
	return c
}

// ReapEarliest waits for every in-flight command to complete, then
// pops the earliest completion by (Done, Slot). Because a fabric ring
// drains the controller, all of a batch's completions arrive together,
// so this equals hostif.Host.ReapAny's globally-earliest pick for a
// single queue pair — the closed-loop driver equivalence the loopback
// test pins. It returns false when nothing is outstanding or the pair
// terminally failed.
func (qp *QueuePair) ReapEarliest() (hostif.Completion, bool) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	qp.reaps++
	for qp.rung > 0 && qp.rerr == nil && !qp.closed {
		qp.waitLocked()
	}
	if len(qp.cq) == 0 {
		return hostif.Completion{}, false
	}
	best := 0
	for i := 1; i < len(qp.cq); i++ {
		c, b := &qp.cq[i].comp, &qp.cq[best].comp
		if c.Done < b.Done || (c.Done == b.Done && c.Slot < b.Slot) {
			best = i
		}
	}
	return qp.takeLocked(best), true
}

// takeLocked removes cq[i], recycling its arena command and lending
// its data buffer to the caller: the buffer lent with the previous
// completion goes back to the pool only now. Caller holds mu.
func (qp *QueuePair) takeLocked(i int) hostif.Completion {
	e := qp.cq[i]
	qp.cq = append(qp.cq[:i], qp.cq[i+1:]...)
	if qp.lent != nil {
		qp.dataFree = append(qp.dataFree, qp.lent)
	}
	qp.lent = e.data
	qp.recycleLocked(e.cmd)
	qp.held--
	return e.comp
}

// Outstanding reports slots currently held: staged, in flight, and
// received but unreaped.
func (qp *QueuePair) Outstanding() int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.held
}

// Close tears the pair down. A best-effort disconnect frame tells the
// server this is a clean close — tear the session down now rather than
// retain it for resumption; locally, blocked Reaps return false.
func (qp *QueuePair) Close() error {
	conn := qp.end(nil)
	if conn == nil {
		return nil
	}
	qp.wmu.Lock()
	qp.wbuf.start(frameDisconnect)
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	conn.Write(qp.wbuf.finish())
	qp.wmu.Unlock()
	return conn.Close()
}

// fail records a terminal error, wakes every waiter and hangs up.
func (qp *QueuePair) fail(err error) { qp.end(err).Close() }

// end marks the pair dead — closed when err is nil, failed with err
// otherwise — and wakes every waiter and both helper goroutines. It
// returns the connection to tear down, nil for a repeated Close.
func (qp *QueuePair) end(err error) net.Conn {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if err == nil && qp.closed {
		return nil
	}
	if !qp.closed && qp.rerr == nil {
		close(qp.done)
		qp.rerr = err
	}
	qp.closed = qp.closed || err == nil
	qp.cond.Broadcast()
	return qp.conn
}

// keepAlive sends one heartbeat frame every interval (KATO/3) on
// whatever connection is current, so the server's session timer (KATO
// plus slack) never expires while the client is healthy. A failed write
// breaks that connection like any other.
func (qp *QueuePair) keepAlive(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var f frameBuf
	for {
		select {
		case <-qp.done:
			return
		case <-t.C:
		}
		qp.mu.Lock()
		conn, gen := qp.conn, qp.gen
		qp.mu.Unlock()
		f.start(frameKeepAlive)
		qp.wmu.Lock()
		qp.writeConn(conn, gen, f.finish())
		qp.wmu.Unlock()
	}
}

// terminalCause reports whether err is protocol damage (corrupt or
// alien frames, explicit rejection) rather than a connection loss.
// Losses — EOF, resets, closed sockets, truncated frames, missed
// keep-alive windows — are redial-eligible.
func terminalCause(err error) bool {
	for _, t := range []error{
		ErrBadMagic, ErrBadVersion, ErrBadFrameType, ErrFrameTooLarge,
		ErrCorruptFrame, ErrBadPayload, ErrBadOpcode, ErrRejected,
		ErrSessionUnknown,
	} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// lost handles the death of conn on the goroutine that was reading it:
// classify the cause, then resume the session (redial, re-handshake
// with the token, replay un-acked commands) or fail the pair
// terminally. A terminal cause is recorded before the connection is
// closed, so a peer that saw us hang up can already read it off Err.
// Caller holds the reader role.
func (qp *QueuePair) lost(conn net.Conn, err error) {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return
	}
	werr := qp.werr
	qp.werr = nil
	qp.mu.Unlock()

	// Classify. A local write error is the richer cause when the read
	// side only saw the connection close under it.
	cause := err
	switch {
	case errors.Is(err, ErrGoaway):
		cause = ErrGoaway
	case terminalCause(err):
		qp.fail(err)
		return
	default:
		if werr != nil && !terminalCause(werr) {
			cause = werr
		}
		cause = fmt.Errorf("%w: %w", ErrDisconnected, cause)
	}
	if qp.cli.cfg.Redial.MaxAttempts <= 0 {
		qp.fail(cause)
		return
	}
	conn.Close()
	if rerr := qp.resume(cause); rerr != nil {
		qp.fail(rerr)
	}
}

// readOne reads one frame from conn and lands it, applying the
// keep-alive read deadline: any KATO of silence counts as a lost
// connection. Caller holds the reader role.
func (qp *QueuePair) readOne(conn net.Conn) error {
	if kato := qp.cli.cfg.KeepAlive; kato > 0 {
		conn.SetReadDeadline(time.Now().Add(kato))
	}
	ftype, payload, err := qp.fr.readFrame()
	if err != nil {
		return wrapTimeout(err)
	}
	switch ftype {
	case frameCompletions:
		return qp.handleCompletions(payload)
	case frameKeepAlive:
		// Server heartbeat echo; the read itself reset the deadline.
		return nil
	case frameGoaway:
		return ErrGoaway
	case frameError:
		return wireError(payload)
	default:
		return fmt.Errorf("%w: %d on I/O connection", ErrBadFrameType, ftype)
	}
}

// resume redials with capped exponential backoff and seeded jitter,
// re-handshakes with the session token, and replays every un-acked
// rung command at its original doorbell instant in one ring frame.
// The server dedups already-executed sequence numbers from its session
// cache, so replay is idempotent and virtual timing is unperturbed.
// Caller holds the reader role: connect resets the frame reader onto
// the new connection, dropping what the dead one left buffered.
func (qp *QueuePair) resume(cause error) error {
	r := qp.cli.cfg.Redial
	base := r.Base
	if base <= 0 {
		base = defaultRedialBase
	}
	ceil := r.Cap
	if ceil <= 0 {
		ceil = defaultRedialCap
	}
	rng := rand.New(rand.NewSource(r.Seed ^ int64(qp.token)*0x9e3779b9))
	last := cause
	for attempt := 0; attempt < r.MaxAttempts; attempt++ {
		d := base << uint(attempt)
		if d <= 0 || d > ceil {
			d = ceil
		}
		// Jitter to 50%..150% of the step.
		d = d/2 + time.Duration(rng.Int63n(int64(d)+1))
		time.Sleep(d)

		qp.mu.Lock()
		if qp.closed {
			qp.mu.Unlock()
			return ErrClosed
		}
		token, at := qp.token, qp.lastRing
		qp.mu.Unlock()

		conn, qid, _, _, err := qp.cli.connect(&qp.fr, connKindIO, at, qp.depth, qp.class, qp.coalesce, token)
		if err != nil {
			if errors.Is(err, ErrSessionUnknown) {
				return err
			}
			last = err
			continue
		}

		// Install the connection and replay under wmu so no Ring can
		// interleave a frame between the replay set being collected and
		// the replay frame being written.
		qp.wmu.Lock()
		qp.mu.Lock()
		if qp.closed {
			qp.mu.Unlock()
			qp.wmu.Unlock()
			conn.Close()
			return ErrClosed
		}
		qp.conn = conn
		qp.gen++
		gen := qp.gen
		qp.werr = nil // a heartbeat may have hit the dead connection meanwhile
		qp.id = qid
		qp.redials++
		replay := make([]uint64, 0, len(qp.pending))
		for seq, pc := range qp.pending {
			if pc.rung {
				replay = append(replay, seq)
			}
		}
		sort.Slice(replay, func(i, j int) bool {
			a, b := qp.pending[replay[i]], qp.pending[replay[j]]
			if a.at != b.at {
				return a.at < b.at
			}
			return replay[i] < replay[j]
		})
		qp.replayed += len(replay)
		qp.wbuf.start(frameRing)
		qp.wbuf.u64(qp.ack)
		qp.wbuf.u32(uint32(len(replay)))
		for _, seq := range replay {
			pc := qp.pending[seq]
			encodeCommand(&qp.wbuf, seq, pc.at, pc.cmd)
		}
		frame := qp.wbuf.finish()
		qp.mu.Unlock()
		// The replay frame goes out even when empty: it carries the ack
		// so the server prunes its cache promptly.
		qp.writeConn(conn, gen, frame)
		qp.wmu.Unlock()
		return nil
	}
	return fmt.Errorf("fabrics: session resume abandoned after %d attempts: %w", r.MaxAttempts, last)
}

// handleCompletions lands one completion push: resolve each entry's
// sequence number to its pending command, copy returned data out of
// the frame buffer, advance the cumulative ack, and queue the
// completion for Reap.
func (qp *QueuePair) handleCompletions(payload []byte) error {
	d := decoder{b: payload}
	count := int(d.u32())
	if d.err == nil && (count < 0 || count > len(payload)) {
		d.fail()
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	for i := 0; i < count; i++ {
		var e recvEntry
		seq, data, err := decodeCompletion(&d, &e.comp)
		if err != nil {
			return err
		}
		pc, ok := qp.pending[seq]
		if !ok {
			return fmt.Errorf("%w: completion for unknown seq %d", ErrBadPayload, seq)
		}
		e.cmd = pc.cmd
		delete(qp.pending, seq)
		if pc.rung {
			qp.rung--
		}
		// Advance the cumulative ack across any out-of-order arrivals.
		if seq == qp.ack+1 {
			qp.ack++
			for {
				if _, ahead := qp.ackAhead[qp.ack+1]; !ahead {
					break
				}
				delete(qp.ackAhead, qp.ack+1)
				qp.ack++
			}
		} else if seq > qp.ack {
			qp.ackAhead[seq] = struct{}{}
		}
		if len(data) > 0 {
			if e.comp.Op == hostif.OpTableRead {
				// The lsm.Env contract reads into the caller's buffer.
				copy(e.cmd.Dst, data)
			} else {
				e.data = popBuf(&qp.dataFree, len(data))
				copy(e.data, data)
				e.comp.Data = e.data
			}
		}
		qp.cq = append(qp.cq, e)
	}
	return d.done() // the reader wakes the waiters as it gives up the role
}

// AdminClient reads a remote controller over an admin connection: the
// typed admin reads of hostif.AdminReader, each one round trip. Only
// identify and get-log-page are remotable; queue-pair lifecycle is not
// here: opening an I/O connection is the remote AdminCreateIOQP,
// closing it the delete. One admin client is one synchronous actor;
// calls are serialized internally. Every round trip runs under the
// configured AdminTimeout; a miss surfaces as ErrTimeout.
type AdminClient struct {
	*hostif.AdminReader
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
	wbuf    frameBuf
	fr      frameReader
}

// Admin opens an admin connection to the remote controller.
func (c *Client) Admin() (*AdminClient, error) {
	a := &AdminClient{timeout: resolveTimeout(c.cfg.AdminTimeout, DefaultAdminTimeout)}
	var err error
	if a.conn, _, _, _, err = c.connect(&a.fr, connKindAdmin, 0, 0, 0, 0, 0); err != nil {
		return nil, err
	}
	a.AdminReader = hostif.NewAdminReader(a)
	return a, nil
}

// Close closes the admin connection.
func (a *AdminClient) Close() error { return a.conn.Close() }

// RoundTrip implements hostif.AdminTransport: it sends cmd's Op, NSID,
// Handle and Admin.Log as one admin frame and decodes the reply, whose
// gob payload becomes the completion's Admin.
func (a *AdminClient) RoundTrip(now vclock.Time, cmd hostif.Command) (hostif.Completion, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.timeout > 0 {
		a.conn.SetDeadline(time.Now().Add(a.timeout))
		defer a.conn.SetDeadline(time.Time{})
	}
	a.wbuf.start(frameAdmin)
	a.wbuf.u8(uint8(cmd.Op))
	a.wbuf.u32(uint32(cmd.NSID))
	a.wbuf.u64(cmd.Handle)
	a.wbuf.u8(uint8(cmd.Admin.Log))
	a.wbuf.i64(int64(now))
	if _, err := a.conn.Write(a.wbuf.finish()); err != nil {
		return hostif.Completion{}, wrapTimeout(err)
	}
	ftype, payload, err := a.fr.readFrame()
	if err != nil {
		return hostif.Completion{}, wrapTimeout(err)
	}
	d := decoder{b: payload}
	switch ftype {
	case frameAdminReply:
	case frameError:
		return hostif.Completion{}, wireError(payload)
	default:
		return hostif.Completion{}, fmt.Errorf("%w: %d on admin connection", ErrBadFrameType, ftype)
	}
	code := d.u16()
	msg := d.str()
	var comp hostif.Completion
	comp.Op, comp.NSID = cmd.Op, cmd.NSID
	comp.Done = vclock.Time(d.i64())
	comp.Handle = d.u64()
	comp.Blocks = int(d.i32())
	gobBytes := d.bytes()
	if err := d.done(); err != nil {
		return hostif.Completion{}, err
	}
	if cerr := errorFor(code, msg); cerr != nil {
		comp.Err = cerr
		comp.Status = hostif.StatusOf(cerr)
		return comp, cerr
	}
	var box payloadBox
	if len(gobBytes) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(gobBytes)).Decode(&box); err != nil {
			return comp, fmt.Errorf("%w: admin payload: %v", ErrBadPayload, err)
		}
	}
	comp.Admin = box.V
	return comp, nil
}

// Env is a served LightLSM namespace's lsm.Env: hostif's LSMClient over
// a fabric queue pair. It does not search blocks in place (it is no
// lsm.BlockSearcher): over a wire each block really crosses.
type Env struct {
	*hostif.LSMClient
	qp *QueuePair
}

// OpenLSM connects to a served LightLSM namespace: identify the
// namespace over an admin connection for the block geometry, then open
// a depth-1 queue pair for the data path — the fabric analog of
// hostif.AttachLSM's setup half.
func (c *Client) OpenLSM(now vclock.Time, nsid int) (*Env, error) {
	admin, err := c.Admin()
	if err != nil {
		return nil, fmt.Errorf("fabrics: opening admin connection: %w", err)
	}
	id, err := admin.IdentifyNamespace(now, nsid)
	admin.Close()
	if err != nil {
		return nil, fmt.Errorf("fabrics: identifying namespace %d: %w", nsid, err)
	}
	if id.BlockSize == 0 || id.MaxTableBlocks == 0 {
		return nil, fmt.Errorf("%w: namespace %d (%s) has no table geometry",
			hostif.ErrUnsupported, nsid, id.Name)
	}
	qp, err := c.QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		return nil, fmt.Errorf("fabrics: opening queue pair: %w", err)
	}
	return &Env{LSMClient: hostif.NewLSMClient(qp, nsid, id), qp: qp}, nil
}

// Close closes the env's queue-pair connection.
func (e *Env) Close() error { return e.qp.Close() }
