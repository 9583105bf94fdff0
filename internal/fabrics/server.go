package fabrics

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/hostif"
	"repro/internal/vclock"
)

// Server-side resilience defaults.
const (
	// DefaultSessionRetention bounds how long a detached session (its
	// client vanished without a clean disconnect) waits for resumption.
	DefaultSessionRetention = 60 * time.Second
	// DefaultDrainGrace bounds how long Shutdown waits for a client to
	// react to goaway before forcing its connection closed.
	DefaultDrainGrace = time.Second
)

// ServerConfig carries the server's liveness and session-retention
// settings. The zero value applies the defaults.
type ServerConfig struct {
	// SessionRetention is how long a detached session is kept for
	// resumption before being reaped. 0 means DefaultSessionRetention;
	// negative reaps detached sessions immediately on the next sweep.
	SessionRetention time.Duration
	// WriteTimeout bounds one frame write toward a client. 0 means
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// DrainGrace bounds Shutdown's wait per connection after goaway.
	// 0 means DefaultDrainGrace.
	DrainGrace time.Duration
}

// Server serves one host-interface controller over a network listener:
// the "interconnect handler" in OX's layering. Each accepted connection
// is one queue pair (I/O connections) or one admin-command channel
// (admin connections); connections are independent and may be serviced
// concurrently, exactly like in-process queue pairs driven by
// concurrent host actors.
//
// Every I/O connection is backed by a session keyed by a token issued
// in the accept frame. A connection that dies abruptly detaches from
// its session instead of destroying it: in-flight commands are drained
// into the session's completion cache, and a reconnect presenting the
// token resumes the session — the queue pair is recreated under its
// original ID and replayed commands are deduplicated against the cache
// by sequence number, so no acknowledged write is lost or applied
// twice. Sessions whose keep-alive window lapses, whose client
// disconnects cleanly, or that stay detached past the retention bound
// are torn down for good.
type Server struct {
	host  *hostif.Host
	admin *hostif.AdminClient
	cfg   ServerConfig

	// adminMu serializes every use of the shared admin queue client:
	// connection handshakes, teardown and remote admin commands. The
	// in-process AdminClient is a single host actor; the server is the
	// one place many goroutines share it.
	adminMu sync.Mutex

	mu         sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]struct{}
	ioConns    map[*ioConn]struct{}
	sessions   map[uint64]*session
	nextToken  uint64
	reaperStop chan struct{}
	draining   bool
	closed     bool
	wg         sync.WaitGroup
}

// NewServer wraps host for serving with the default config. The host
// keeps working in-process: fabric queue pairs and local queue pairs
// coexist under the same arbitration.
func NewServer(host *hostif.Host) *Server {
	return NewServerWithConfig(host, ServerConfig{})
}

// NewServerWithConfig wraps host for serving with explicit resilience
// settings.
func NewServerWithConfig(host *hostif.Host, cfg ServerConfig) *Server {
	return &Server{
		host:      host,
		admin:     host.Admin(),
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		ioConns:   make(map[*ioConn]struct{}),
		sessions:  make(map[uint64]*session),
	}
}

func (s *Server) retention() time.Duration {
	if s.cfg.SessionRetention == 0 {
		return DefaultSessionRetention
	}
	return s.cfg.SessionRetention
}

func (s *Server) writeTimeout() time.Duration {
	return resolveTimeout(s.cfg.WriteTimeout, DefaultWriteTimeout)
}

// Serve accepts connections on l until the listener fails or the
// server is closed or drained, handling each connection on its own
// goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return ErrClosed
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close stops the server hard: listeners stop accepting and every live
// connection is closed (in-flight commands still complete; their queue
// pairs are reaped by the connection handlers on the way out). All
// sessions are dropped — there is nothing left to resume into.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.dropAllSessions()
}

// Shutdown drains the server gracefully: stop accepting, flush every
// I/O connection's in-flight completions, announce goaway, and wait
// for the connection handlers to exit. Clients treat goaway as a clean
// redial trigger; since this server is going away, their redials fail
// and the pairs terminate with every pushed completion delivered.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	ios := make([]*ioConn, 0, len(s.ioConns))
	for c := range s.ioConns {
		ios = append(ios, c)
	}
	others := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		owned := false
		for _, c := range ios {
			if c.conn == conn {
				owned = true
				break
			}
		}
		if !owned {
			others = append(others, conn)
		}
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range ios {
		c.goaway()
	}
	for _, conn := range others {
		conn.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.dropAllSessions()
}

// Sessions reports the number of live (attached or resumable) sessions
// — the observable for keep-alive expiry and retention tests.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// track registers a live connection for Close; it reports false when
// the server is already closed or draining.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// ServeConn serves a single established connection — the loopback
// transport's entry point — blocking until the peer disconnects. The
// first frame must be a connect handshake; it selects the connection
// kind (admin or I/O queue pair) and, for I/O, carries the keep-alive
// timeout and an optional session token to resume.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()

	fr := &frameReader{r: conn}
	ftype, payload, err := fr.readFrame()
	if err != nil {
		s.sendError(conn, err)
		return
	}
	if ftype != frameConnect {
		s.sendError(conn, fmt.Errorf("%w: expected connect, got %d", ErrBadFrameType, ftype))
		return
	}
	d := decoder{b: payload}
	kind := d.u8()
	class := hostif.Class(d.u8())
	depth := int(d.u32())
	coalesce := int(d.u32())
	now := vclock.Time(d.i64())
	kato := time.Duration(d.u32()) * time.Millisecond
	token := d.u64()
	if err := d.done(); err != nil {
		s.sendError(conn, err)
		return
	}
	switch kind {
	case connKindAdmin:
		s.serveAdmin(conn, fr)
	case connKindIO:
		if class > hostif.ClassLow {
			s.sendError(conn, fmt.Errorf("%w: unknown arbitration class %d", ErrBadPayload, class))
			return
		}
		if depth > maxQueueDepth {
			s.sendError(conn, fmt.Errorf("%w: queue depth %d exceeds %d", ErrBadPayload, depth, maxQueueDepth))
			return
		}
		s.serveIO(conn, fr, now, depth, class, coalesce, kato, token)
	default:
		s.sendError(conn, fmt.Errorf("%w: unknown connection kind %d", ErrBadPayload, kind))
	}
}

// sendError writes a connection-fatal error frame (best effort: the
// peer may already be gone).
func (s *Server) sendError(conn net.Conn, err error) {
	var f frameBuf
	f.start(frameError)
	f.u16(codeFor(err))
	f.str(err.Error())
	if wt := s.writeTimeout(); wt > 0 {
		conn.SetWriteDeadline(time.Now().Add(wt))
	}
	conn.Write(f.finish())
}

// savedComp is one record of a session's replay table: the completion
// as pushed (original virtual instants) plus a session-owned copy of
// its payload. seq 0 marks a free record (sequence numbers start at 1).
type savedComp struct {
	seq  uint64
	comp hostif.Completion
	data []byte
}

// session is the durable half of one fabric queue pair: everything a
// reconnect needs to resume where the lost connection left off. The
// completion cache is bounded: the client's depth gates how many
// sequence numbers can be unacknowledged at once, and each ring
// frame's cumulative ack prunes everything at or below it.
type session struct {
	token    uint64
	qid      int
	depth    int
	class    hostif.Class
	coalesce int
	kato     time.Duration

	mu         sync.Mutex
	cond       *sync.Cond
	owner      *ioConn // nil while detached
	claimed    bool    // reserved by a resuming connection
	claimers   int     // connections waiting to claim
	gone       bool    // torn down; resumes are rejected
	detachedAt time.Time

	acked   uint64 // highest client-acknowledged seq (cache pruned below)
	maxSeen uint64 // highest seq ever submitted
	// cache is the replay table: reusable records, seq s in record
	// s mod len(cache). Every held seq lies in acked < s <= acked +
	// len(cache), a window in which that index is unique; the table
	// grows with the window in use (see grow), up to cacheCap().
	cache   []savedComp
	bufFree [][]byte
}

func newSessionState(token uint64, qid, depth int, class hostif.Class, coalesce int, kato time.Duration) *session {
	sess := &session{
		token:    token,
		qid:      qid,
		depth:    depth,
		class:    class,
		coalesce: coalesce,
		kato:     kato,
	}
	sess.cache = make([]savedComp, replayTableMin)
	sess.cond = sync.NewCond(&sess.mu)
	return sess
}

// cacheCap bounds the replay table. Unacked completions are gated by
// the client's queue depth; the slack absorbs ack-carrying frames lost
// to an outage. Running past it means the peer is not acking at all —
// connection-fatal.
func (sess *session) cacheCap() int { return 4*sess.depth + replayTableMin }

// maxQueueDepth is the deepest queue a connect frame may ask for (NVMe's
// own limit); replayTableMin is the size a replay table starts at, so
// what a session holds follows the commands it has in flight, not the
// depth its peer announced.
const (
	maxQueueDepth  = 64 << 10
	replayTableMin = 64
)

// grow re-homes the table's records in one at least need long, by
// doubling, up to cacheCap(). Caller holds sess.mu.
func (sess *session) grow(need uint64) {
	n := len(sess.cache)
	for uint64(n) < need {
		n *= 2
	}
	old := sess.cache
	sess.cache = make([]savedComp, min(n, sess.cacheCap()))
	for i := range old {
		if old[i].seq != 0 {
			*sess.record(old[i].seq) = old[i]
		}
	}
}

// record returns the table record seq maps to; it holds seq only if its
// seq field says so. Caller holds sess.mu.
func (sess *session) record(seq uint64) *savedComp {
	return &sess.cache[seq%uint64(len(sess.cache))]
}

// save records a completed command in the replay table, copying its
// payload into session-owned storage. It reports false on overflow.
func (sess *session) save(seq uint64, comp *hostif.Completion, data []byte) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone {
		return true
	}
	if seq <= sess.acked {
		return true // acked while in flight: nobody will ask for it again
	}
	if seq-sess.acked > uint64(sess.cacheCap()) {
		return false
	}
	if seq-sess.acked > uint64(len(sess.cache)) {
		sess.grow(seq - sess.acked)
	}
	sc := sess.record(seq)
	sc.seq, sc.comp = seq, *comp
	sc.comp.Data = nil
	if len(data) > 0 {
		sc.data = popBuf(&sess.bufFree, len(data))
		copy(sc.data, data)
	}
	return true
}

// prune frees every record from the previous ack up to the client's
// new cumulative ack; records never sit outside the table's window
// above the ack, so that is all of them at or below it.
func (sess *session) prune(ack uint64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if ack <= sess.acked {
		return
	}
	for n := min(ack-sess.acked, uint64(len(sess.cache))); n > 0; n-- {
		if sc := sess.record(sess.acked + n); sc.seq == sess.acked+n {
			if sc.data != nil {
				sess.bufFree = append(sess.bufFree, sc.data)
			}
			*sc = savedComp{}
		}
	}
	sess.acked = ack
}

// Sequence-number classification for one ring entry.
const (
	seqFresh = iota // never seen: execute
	seqDup          // executed, completion cached: re-push, don't execute
	seqStale        // acked or otherwise impossible: protocol violation
)

// classify dedups one submitted sequence number against the session
// history, advancing maxSeen for fresh ones.
func (sess *session) classify(seq uint64) int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if seq <= sess.acked {
		return seqStale
	}
	if sess.record(seq).seq == seq {
		return seqDup
	}
	if seq <= sess.maxSeen {
		return seqStale
	}
	sess.maxSeen = seq
	return seqFresh
}

// cached returns the replay-table entry for a deduplicated seq.
func (sess *session) cached(seq uint64) (savedComp, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sc := sess.record(seq)
	return *sc, sc.seq == seq
}

// attach binds a connection as the session owner.
func (sess *session) attach(c *ioConn) {
	sess.mu.Lock()
	sess.owner = c
	sess.claimed = false
	sess.mu.Unlock()
}

// detachLocked marks the session resumable. Caller holds sess.mu.
func (sess *session) detachLocked() {
	sess.owner = nil
	sess.detachedAt = time.Now()
	sess.cond.Broadcast()
}

// newSession mints a session for a fresh connection; nil when the
// server is draining or closed.
func (s *Server) newSession(qid, depth int, class hostif.Class, coalesce int, kato time.Duration) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil
	}
	s.nextToken++
	sess := newSessionState(s.nextToken, qid, depth, class, coalesce, kato)
	s.sessions[sess.token] = sess
	if s.reaperStop == nil {
		s.reaperStop = make(chan struct{})
		go s.reapSessions(s.reaperStop)
	}
	return sess
}

// claimSession reserves a detached session for resumption, kicking a
// stale owner (a half-open previous connection the server has not yet
// noticed is dead) and waiting for its detach to finish so every
// in-flight command has been drained into the replay cache.
func (s *Server) claimSession(token uint64) (*session, error) {
	s.mu.Lock()
	sess := s.sessions[token]
	s.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("%w: token %#x", ErrSessionUnknown, token)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for {
		if sess.gone {
			return nil, fmt.Errorf("%w: token %#x expired", ErrSessionUnknown, token)
		}
		if sess.owner == nil && !sess.claimed {
			sess.claimed = true
			return sess, nil
		}
		if sess.owner != nil {
			sess.owner.conn.Close()
		}
		sess.claimers++
		sess.cond.Wait()
		sess.claimers--
	}
}

// dropSession tears a session down for good.
func (s *Server) dropSession(sess *session) {
	if sess == nil {
		return
	}
	sess.mu.Lock()
	sess.gone = true
	sess.owner = nil
	sess.cond.Broadcast()
	sess.mu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess.token)
	s.mu.Unlock()
}

// sessionsLocked snapshots the session table. Caller holds s.mu.
func (s *Server) sessionsLocked() []*session {
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	return all
}

func (s *Server) dropAllSessions() {
	s.mu.Lock()
	all := s.sessionsLocked()
	if s.reaperStop != nil {
		close(s.reaperStop)
		s.reaperStop = nil
	}
	s.mu.Unlock()
	for _, sess := range all {
		s.dropSession(sess)
	}
}

// reapSessions sweeps detached sessions past the retention bound.
func (s *Server) reapSessions(stop chan struct{}) {
	period := s.retention() / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		candidates := s.sessionsLocked()
		s.mu.Unlock()
		for _, sess := range candidates {
			sess.mu.Lock()
			expired := sess.owner == nil && !sess.claimed && sess.claimers == 0 &&
				!sess.gone && time.Since(sess.detachedAt) > s.retention()
			if expired {
				sess.gone = true
				sess.cond.Broadcast()
			}
			sess.mu.Unlock()
			if expired {
				s.mu.Lock()
				delete(s.sessions, sess.token)
				s.mu.Unlock()
			}
		}
	}
}

// pendEntry tracks one submitted command's connection-side state until
// its completion is pushed: the client's sequence number, the payload
// buffer the command data was copied into, and the read buffer for
// OpTableRead.
type pendEntry struct {
	seq  uint64
	data []byte
	dst  []byte
}

// ioConn is the server half of one fabric queue-pair connection (one
// incarnation of a session).
type ioConn struct {
	s    *Server
	conn net.Conn
	qp   *hostif.QueuePair
	sess *session

	// ringMu serializes ring processing against goaway: a drain never
	// interleaves with a doorbell batch, so every accepted command's
	// completion is pushed before the goaway frame.
	ringMu sync.Mutex

	// wmu guards the write side: completion frames are written from the
	// notify callback, which runs on whichever connection handler drove
	// the drain — possibly another connection's goroutine.
	wmu  sync.Mutex
	wbuf frameBuf

	// pmu guards the pending table and the buffer free list (reader
	// goroutine inserts, notify callback consumes).
	pmu     sync.Mutex
	pend    map[uint64]pendEntry // submission slot → seq + buffers
	bufFree [][]byte
}

// Connection-exit modes: how serveIO's teardown treats the session.
const (
	exitDetach = iota // connection lost: drain into cache, keep session
	exitClean         // client disconnect frame or KA expiry: drop session
)

// serveIO runs one I/O queue-pair connection. A fresh connect (token
// 0) creates the queue pair over the admin queue and mints a session;
// a resume claims the retained session and recreates the queue pair
// under its original ID, so arbitration tie-breaks are unchanged.
// Completions are pushed from the notify callback; each ring frame
// replays as doorbell batches grouped by virtual instant and is
// deduplicated against the session's replay cache.
func (s *Server) serveIO(conn net.Conn, fr *frameReader, now vclock.Time, depth int, class hostif.Class, coalesce int, kato time.Duration, token uint64) {
	var sess *session
	var qp *hostif.QueuePair
	var err error
	if token == 0 {
		s.adminMu.Lock()
		qp, err = s.admin.CreateIOQueuePair(now, depth, class)
		s.adminMu.Unlock()
		if err != nil {
			s.sendError(conn, err)
			return
		}
		sess = s.newSession(qp.ID(), qp.Depth(), class, coalesce, kato)
		if sess == nil {
			s.deleteQP(now, qp)
			s.sendError(conn, fmt.Errorf("%w: server draining", ErrClosed))
			return
		}
	} else {
		sess, err = s.claimSession(token)
		if err != nil {
			s.sendError(conn, err)
			return
		}
		s.adminMu.Lock()
		qp, err = s.admin.RecreateIOQueuePair(now, sess.qid, sess.depth, sess.class)
		s.adminMu.Unlock()
		if err != nil {
			// The session's queue pair cannot be resurrected; the
			// session is unusable.
			s.dropSession(sess)
			s.sendError(conn, err)
			return
		}
		coalesce = sess.coalesce
	}
	c := &ioConn{
		s:    s,
		conn: conn,
		qp:   qp,
		sess: sess,
		pend: make(map[uint64]pendEntry),
	}
	sess.attach(c)
	s.mu.Lock()
	if s.draining || s.closed {
		// Shutdown's goaway snapshot may already be done: refuse the
		// connection rather than leave it outside the drain.
		s.mu.Unlock()
		s.deleteQP(now, qp)
		s.dropSession(sess)
		s.sendError(conn, fmt.Errorf("%w: server draining", ErrClosed))
		return
	}
	s.ioConns[c] = struct{}{}
	s.mu.Unlock()
	exit := exitDetach
	defer func() {
		s.mu.Lock()
		delete(s.ioConns, c)
		draining := s.draining
		s.mu.Unlock()
		c.finish(exit, draining)
	}()
	qp.SetNotify(coalesce, c.onNotify)

	var f frameBuf
	f.start(frameAccept)
	f.u32(uint32(qp.ID()))
	f.u32(uint32(qp.Depth()))
	f.u64(sess.token)
	c.wmu.Lock()
	_, err = conn.Write(f.finish())
	c.wmu.Unlock()
	if err != nil {
		return
	}

	for {
		// The keep-alive contract: the client heartbeats at KATO/3, so
		// KATO plus slack of silence means the peer is gone — reap the
		// session rather than hold its queue pair hostage.
		if sess.kato > 0 {
			conn.SetReadDeadline(time.Now().Add(sess.kato + sess.kato/4))
		}
		ftype, payload, err := fr.readFrame()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				exit = exitClean // KA expiry: the session dies with the silence
				return
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, ErrTruncatedFrame) {
				s.sendError(conn, err)
				exit = exitClean
			}
			return
		}
		switch ftype {
		case frameRing:
			c.ringMu.Lock()
			err := c.handleRing(payload)
			c.ringMu.Unlock()
			if err != nil {
				s.sendError(conn, err)
				exit = exitClean
				return
			}
		case frameKeepAlive:
			// Echo so an idle client's read deadline is refreshed too.
			c.wmu.Lock()
			c.wbuf.start(frameKeepAlive)
			c.writeLocked(c.wbuf.finish())
			c.wmu.Unlock()
		case frameDisconnect:
			exit = exitClean
			return
		default:
			s.sendError(conn, fmt.Errorf("%w: %d on I/O connection", ErrBadFrameType, ftype))
			exit = exitClean
			return
		}
	}
}

// writeLocked writes one frame under the configured write deadline,
// armed per write and never cleared. Caller holds wmu. Failures are
// ignored by callers — the read loop observes the dead connection.
func (c *ioConn) writeLocked(frame []byte) error {
	if wt := c.s.writeTimeout(); wt > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := c.conn.Write(frame)
	return err
}

// goaway flushes in-flight completions and announces a graceful drain.
// ringMu guarantees no doorbell batch is mid-flight: everything
// submitted has completed and been pushed (the notify callback writes
// under wmu before goaway takes it), so the goaway frame is the last
// thing the client reads.
func (c *ioConn) goaway() {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	c.s.host.Drain()
	var f frameBuf
	f.start(frameGoaway)
	c.wmu.Lock()
	c.writeLocked(f.finish())
	c.wmu.Unlock()
	grace := c.s.cfg.DrainGrace
	if grace <= 0 {
		grace = DefaultDrainGrace
	}
	// Bound the handler's exit: the client closes on goaway; if it
	// never does, the read deadline forces the teardown.
	c.conn.SetReadDeadline(time.Now().Add(grace))
}

// handleRing replays one doorbell batch: decode every command, dedup
// its sequence number against the session history, submit the fresh
// ones, and ring once per distinct doorbell instant (a live batch has
// exactly one; a resume replay preserves each command's original
// instant, so re-executed commands land at the virtual times they
// originally rang). Completions flow back through the notify callback
// exactly as an in-process driver would see them. Per-command submit
// rejections (queue full under backpressure, bad namespace) are echoed
// as error completions carrying the client's seq; deduplicated seqs
// are re-pushed from the replay cache; only protocol-level damage is
// connection-fatal.
func (c *ioConn) handleRing(payload []byte) error {
	d := decoder{b: payload}
	ack := d.u64()
	count := int(d.u32())
	if d.err == nil && (count < 0 || count > len(payload)) {
		d.fail()
	}
	if d.err == nil {
		c.sess.prune(ack)
	}
	type reject struct {
		seq uint64
		at  vclock.Time
		op  hostif.Op
		ns  int
		err error
	}
	var rejects []reject
	var dedup []uint64
	ringing := false
	var ringAt vclock.Time
	flush := func() {
		if ringing {
			c.qp.Ring(ringAt)
			c.s.host.Drain()
			ringing = false
		}
	}
	for i := 0; i < count; i++ {
		cmd := c.qp.AcquireCommand()
		seq, at, dstLen, err := decodeCommand(&d, cmd)
		if err != nil {
			c.qp.ReleaseCommand(cmd)
			return err
		}
		switch c.sess.classify(seq) {
		case seqDup:
			c.qp.ReleaseCommand(cmd)
			dedup = append(dedup, seq)
			continue
		case seqStale:
			c.qp.ReleaseCommand(cmd)
			return fmt.Errorf("%w: seq %d replayed below the session ack", ErrBadPayload, seq)
		}
		if ringing && at != ringAt {
			flush()
		}
		var pe pendEntry
		pe.seq = seq
		// The frame buffer is reused by the next network read, but the
		// FTL may retain write payloads (the simulated device stores
		// them): copy into a connection-pooled buffer that lives until
		// the completion is pushed.
		if len(cmd.Data) > 0 {
			pe.data = c.getBuf(len(cmd.Data))
			copy(pe.data, cmd.Data)
			cmd.Data = pe.data
		}
		if dstLen > 0 && cmd.Op == hostif.OpTableRead {
			pe.dst = c.getBuf(dstLen)
			cmd.Dst = pe.dst
		}
		slot, err := c.qp.Submit(cmd)
		if err != nil {
			op, ns := cmd.Op, cmd.NSID // ReleaseCommand zeroes the arena command
			c.qp.ReleaseCommand(cmd)
			c.putBufs(pe)
			rejects = append(rejects, reject{seq: seq, at: at, op: op, ns: ns, err: err})
			continue
		}
		c.pmu.Lock()
		c.pend[slot] = pe
		c.pmu.Unlock()
		ringing = true
		ringAt = at
	}
	if err := d.done(); err != nil {
		return err
	}
	flush()
	if len(dedup)+len(rejects) > 0 {
		c.wmu.Lock()
		c.wbuf.start(frameCompletions)
		c.wbuf.u32(uint32(len(dedup) + len(rejects)))
		for _, seq := range dedup {
			sc, ok := c.sess.cached(seq)
			if !ok {
				// Pruned between classify and here by this frame's own
				// ack — impossible, since dedup seqs are above it.
				c.wmu.Unlock()
				return fmt.Errorf("%w: seq %d vanished from replay cache", ErrBadPayload, seq)
			}
			encodeCompletion(&c.wbuf, seq, &sc.comp, sc.data)
		}
		for _, r := range rejects {
			comp := hostif.Completion{
				Op:        r.op,
				NSID:      r.ns,
				Submitted: r.at,
				Done:      r.at,
				Result:    hostif.Result{End: r.at, Err: r.err, Status: hostif.StatusOf(r.err)},
			}
			encodeCompletion(&c.wbuf, r.seq, &comp, nil)
		}
		err := c.writeLocked(c.wbuf.finish())
		c.wmu.Unlock()
		if err != nil {
			return nil // read loop will observe the dead connection
		}
	}
	return nil
}

// onNotify is the queue pair's interrupt handler: reap the coalesced
// completions, record each in the session's replay cache, and push
// them to the client in one frame. It runs on whichever goroutine
// drove the drain (possibly another connection's handler), so all
// connection write state sits behind wmu. Write failures are ignored —
// the cached completions survive for the session's next incarnation,
// and the connection's read loop notices the dead peer.
func (c *ioConn) onNotify(n hostif.Notification) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.start(frameCompletions)
	countOff := len(c.wbuf.b)
	c.wbuf.u32(0)
	wrote := 0
	overflow := false
	for i := 0; i < n.Coalesced; i++ {
		comp, ok := c.qp.Reap()
		if !ok {
			break
		}
		pe, data, _ := c.settle(&comp)
		if !c.sess.save(pe.seq, &comp, data) {
			overflow = true
		}
		encodeCompletion(&c.wbuf, pe.seq, &comp, data)
		c.putBufs(pe)
		wrote++
	}
	if overflow {
		// The peer is not acking: the replay table cannot grow safely.
		// Kill both the connection and the session.
		c.s.dropSession(c.sess)
		c.conn.Close()
		return
	}
	if wrote == 0 {
		return
	}
	binary.LittleEndian.PutUint32(c.wbuf.b[countOff:], uint32(wrote))
	c.writeLocked(c.wbuf.finish())
}

// settle takes a reaped completion's entry off the pending table and
// picks the payload that travels back with it: the completion's own
// data, or for a table read the buffer it was read into.
func (c *ioConn) settle(comp *hostif.Completion) (pe pendEntry, data []byte, ok bool) {
	c.pmu.Lock()
	pe, ok = c.pend[comp.Slot]
	delete(c.pend, comp.Slot)
	c.pmu.Unlock()
	data = comp.Data
	if len(data) == 0 && comp.Op == hostif.OpTableRead && ok {
		data = pe.dst
	}
	return pe, data, ok
}

// finish tears the connection's queue pair down after a disconnect:
// detach the notify handler, reap whatever completed (in-flight
// commands finish — an abrupt disconnect never corrupts device state)
// into the session's replay cache, then delete the queue pair so its
// slots, arbitration entry and arena are released. The session itself
// survives a detach for later resumption; a clean exit (disconnect
// frame, keep-alive expiry, protocol violation, server drain) drops
// it.
func (c *ioConn) finish(exit int, draining bool) {
	c.qp.SetNotify(1, nil)
	c.s.host.Drain()
	for {
		comp, ok := c.qp.Reap()
		if !ok {
			break
		}
		pe, data, ok := c.settle(&comp)
		if ok {
			c.sess.save(pe.seq, &comp, data)
		}
		c.putBufs(pe)
	}
	c.s.deleteQP(0, c.qp)
	c.pmu.Lock()
	c.pend = nil
	c.bufFree = nil
	c.pmu.Unlock()
	if exit == exitDetach && !draining {
		c.sess.mu.Lock()
		c.sess.detachLocked()
		c.sess.mu.Unlock()
	} else {
		c.s.dropSession(c.sess)
	}
}

// getBuf pops a pooled buffer of at least n bytes (length n).
func (c *ioConn) getBuf(n int) []byte {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return popBuf(&c.bufFree, n)
}

// putBufs returns a pending entry's buffers to the connection pool.
func (c *ioConn) putBufs(pe pendEntry) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.pend == nil {
		return // connection torn down; let the buffers go
	}
	if pe.data != nil {
		c.bufFree = append(c.bufFree, pe.data)
	}
	if pe.dst != nil {
		c.bufFree = append(c.bufFree, pe.dst)
	}
}

// payloadBox wraps an admin Result.Admin value for gob: encoding an
// interface requires a concrete field of interface type, with every
// concrete payload registered (gob.go).
type payloadBox struct {
	V any
}

// serveAdmin runs one admin connection: a synchronous request/reply
// loop over the shared admin queue. Only host-memory admin commands
// are remotable — identify and log pages; queue-pair lifecycle rides
// the I/O connection handshake, and namespace attachment needs an
// in-process Namespace value, so both are rejected as unsupported.
func (s *Server) serveAdmin(conn net.Conn, fr *frameReader) {
	var f frameBuf
	f.start(frameAccept)
	f.u32(0)
	f.u32(0)
	f.u64(0)
	if _, err := conn.Write(f.finish()); err != nil {
		return
	}
	var pbuf bytes.Buffer
	for {
		ftype, payload, err := fr.readFrame()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				s.sendError(conn, err)
			}
			return
		}
		switch ftype {
		case frameAdmin:
		case frameDisconnect:
			return
		default:
			s.sendError(conn, fmt.Errorf("%w: expected admin, got %d", ErrBadFrameType, ftype))
			return
		}
		d := decoder{b: payload}
		var cmd hostif.Command
		cmd.Op = hostif.Op(d.u8())
		cmd.NSID = int(d.u32())
		cmd.Handle = d.u64()
		cmd.Admin.Log = hostif.LogPage(d.u8())
		now := vclock.Time(d.i64())
		if err := d.done(); err != nil {
			s.sendError(conn, err)
			return
		}
		comp, err := s.execRemoteAdmin(now, &cmd)
		f.start(frameAdminReply)
		if err == nil {
			err = comp.Err
		}
		code := codeFor(err)
		msg := ""
		if code == errOther && err != nil {
			msg = err.Error()
		}
		pbuf.Reset()
		if err == nil && comp.Admin != nil {
			if gerr := gob.NewEncoder(&pbuf).Encode(&payloadBox{V: comp.Admin}); gerr != nil {
				code, msg = errOther, "encoding admin payload: "+gerr.Error()
				pbuf.Reset()
			}
		}
		f.u16(code)
		f.str(msg)
		f.i64(int64(comp.Done))
		f.u64(comp.Handle)
		f.i32(int32(comp.Blocks))
		f.bytes(pbuf.Bytes())
		if wt := s.writeTimeout(); wt > 0 {
			conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := conn.Write(f.finish()); err != nil {
			return
		}
	}
}

// deleteQP deletes an I/O queue pair over the shared admin queue.
func (s *Server) deleteQP(now vclock.Time, qp *hostif.QueuePair) {
	s.adminMu.Lock()
	s.admin.DeleteIOQueuePair(now, qp)
	s.adminMu.Unlock()
}

// execRemoteAdmin issues one remotable admin command through the
// shared admin queue, serialized against handshakes and teardowns.
func (s *Server) execRemoteAdmin(now vclock.Time, cmd *hostif.Command) (hostif.Completion, error) {
	switch cmd.Op {
	case hostif.OpAdminIdentify, hostif.OpAdminGetLogPage:
	default:
		return hostif.Completion{Done: now},
			fmt.Errorf("%w: %v over fabric admin connection", hostif.ErrUnsupported, cmd.Op)
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	aqp := s.admin.Queue()
	ac := aqp.AcquireCommand()
	op, nsid, handle, log := cmd.Op, cmd.NSID, cmd.Handle, cmd.Admin.Log
	ac.Op, ac.NSID, ac.Handle = op, nsid, handle
	ac.Admin.Log = log
	if err := aqp.Push(now, ac); err != nil {
		aqp.ReleaseCommand(ac)
		return hostif.Completion{Done: now}, err
	}
	comp := aqp.MustReap()
	return comp, nil
}
