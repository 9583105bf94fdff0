package fabrics

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// resilienceHost builds a small OX-Block host for wire-level tests.
func resilienceHost(t testing.TB) (*hostif.Host, vclock.Time) {
	t.Helper()
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 16,
		PagesPerBlock:  12,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups:       2,
		PUsPerGroup:  2,
		ChunksPerPU:  16,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      8,
		MaxOpenPerPU: 64,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	if _, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d)); err != nil {
		t.Fatal(err)
	}
	return host, now
}

// connectFrame encodes an I/O connect frame (medium class, coalesce 1).
func connectFrame(now vclock.Time, depth uint32, kato time.Duration, token uint64) []byte {
	var f frameBuf
	f.start(frameConnect)
	f.u8(connKindIO)
	f.u8(uint8(hostif.ClassMedium))
	f.u32(depth)
	f.u32(1) // coalesce
	f.i64(int64(now))
	f.u32(uint32(kato / time.Millisecond))
	f.u64(token)
	return f.finish()
}

// rawConnect hand-writes an I/O connect frame so the test controls the
// advertised keep-alive independently of any client machinery (a
// half-open peer that never heartbeats).
func rawConnect(t *testing.T, conn net.Conn, now vclock.Time, kato time.Duration, token uint64) (qid int, tok uint64) {
	t.Helper()
	if _, err := conn.Write(connectFrame(now, 4, kato, token)); err != nil {
		t.Fatalf("connect write: %v", err)
	}
	ftype, payload, err := (&frameReader{r: conn}).readFrame()
	if err != nil {
		t.Fatalf("handshake read: %v", err)
	}
	if ftype != frameAccept {
		t.Fatalf("handshake frame type %d, want accept", ftype)
	}
	d := decoder{b: payload}
	qid = int(d.u32())
	d.u32() // depth
	tok = d.u64()
	if err := d.done(); err != nil {
		t.Fatalf("accept decode: %v", err)
	}
	return qid, tok
}

// TestKeepAliveExpiryReapsSession pins the server half of the KATO
// contract: a connection that advertises a keep-alive timeout and then
// goes silent is detected, its session reaped (not retained for
// resumption), and a later resume with its token is rejected with
// ErrSessionUnknown.
func TestKeepAliveExpiryReapsSession(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServer(host)
	defer srv.Close()

	cli, sconn := net.Pipe()
	go srv.ServeConn(sconn)
	_, token := rawConnect(t, cli, now, 40*time.Millisecond, 0)
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions after connect = %d, want 1", got)
	}

	// Silence. The server read deadline is KATO + KATO/4 = 50ms; the
	// session must be gone, not detached, well before a 5s ceiling.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not reaped after keep-alive expiry (sessions=%d)", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cli.Close()

	// Resuming the reaped token is a typed rejection.
	cli2, sconn2 := net.Pipe()
	defer cli2.Close()
	go srv.ServeConn(sconn2)
	if _, err := cli2.Write(connectFrame(now, 4, 0, token)); err != nil {
		t.Fatalf("resume write: %v", err)
	}
	ftype, payload, err := (&frameReader{r: cli2}).readFrame()
	if err != nil {
		t.Fatalf("resume read: %v", err)
	}
	if ftype != frameError {
		t.Fatalf("resume frame type %d, want error", ftype)
	}
	d := decoder{b: payload}
	if code := d.u16(); code != errSessionUnknown {
		t.Fatalf("resume rejection code %d, want %d", code, errSessionUnknown)
	}
}

// TestSessionRetentionReapsDetached pins the retention bound: a
// session whose connection died abruptly (no clean disconnect) is
// retained for resumption only up to SessionRetention.
func TestSessionRetentionReapsDetached(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServerWithConfig(host, ServerConfig{SessionRetention: 30 * time.Millisecond})
	defer srv.Close()

	cli, sconn := net.Pipe()
	go srv.ServeConn(sconn)
	rawConnect(t, cli, now, 0, 0)
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions after connect = %d, want 1", got)
	}
	cli.Close() // abrupt: no disconnect frame

	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("detached session outlived retention (sessions=%d)", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConnectDepthIsBounded: the depth in a connect frame is a hostile
// peer's to choose, so it must not size anything. One past the limit
// (and the largest a frame can carry) is refused with a typed error
// frame and leaves no session; the limit itself is accepted and costs a
// replay table of the starting size, not one sized for the depth.
func TestConnectDepthIsBounded(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServer(host)
	defer srv.Close()

	for _, depth := range []uint32{maxQueueDepth + 1, 0xFFFFFFFF} {
		cli, sconn := net.Pipe()
		go srv.ServeConn(sconn)
		if _, err := cli.Write(connectFrame(now, depth, 0, 0)); err != nil {
			t.Fatalf("depth %d: connect write: %v", depth, err)
		}
		ftype, payload, err := (&frameReader{r: cli}).readFrame()
		if err != nil || ftype != frameError {
			t.Fatalf("depth %d: got frame type %d, err %v; want an error frame", depth, ftype, err)
		}
		if err := wireError(payload); !errors.Is(err, ErrRejected) {
			t.Fatalf("depth %d: rejection decodes to %v, want ErrRejected", depth, err)
		}
		cli.Close()
		if got := srv.Sessions(); got != 0 {
			t.Fatalf("depth %d: %d sessions after a refused connect", depth, got)
		}
	}

	cli, sconn := net.Pipe()
	defer cli.Close()
	go srv.ServeConn(sconn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cli.Write(connectFrame(now, maxQueueDepth, 0, 0)); err != nil {
		t.Fatalf("connect write: %v", err)
	}
	if ftype, _, err := (&frameReader{r: cli}).readFrame(); err != nil || ftype != frameAccept {
		t.Fatalf("depth %d: got frame type %d, err %v; want accept", maxQueueDepth, ftype, err)
	}
	runtime.ReadMemStats(&after)
	// A table sized for the depth would be 4*64Ki+64 records, ~50 MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("accepting depth %d allocated %d bytes", maxQueueDepth, grew)
	}
}

// TestReplayTableGrowsWithWindow drives a session's replay table past
// its starting size: every unacked seq stays cached across each
// re-homing, an ack frees exactly what it covers, and running past
// cacheCap() is still the overflow it was.
func TestReplayTableGrowsWithWindow(t *testing.T) {
	sess := newSessionState(1, 1, 100, hostif.ClassMedium, 1, 0)
	capN := uint64(sess.cacheCap())
	if capN <= replayTableMin {
		t.Fatalf("cacheCap %d does not exceed the starting size %d", capN, replayTableMin)
	}
	payload := func(seq uint64) []byte { return []byte{byte(seq), byte(seq >> 8), 7} }
	for seq := uint64(1); seq <= capN; seq++ {
		if got := sess.classify(seq); got != seqFresh {
			t.Fatalf("seq %d classified %d, want fresh", seq, got)
		}
		comp := hostif.Completion{Slot: seq}
		if !sess.save(seq, &comp, payload(seq)) {
			t.Fatalf("seq %d of %d refused", seq, capN)
		}
	}
	if len(sess.cache) != int(capN) {
		t.Fatalf("table holds %d records for a window of %d", len(sess.cache), capN)
	}
	comp := hostif.Completion{}
	if sess.save(capN+1, &comp, nil) {
		t.Fatalf("seq %d accepted past cacheCap %d", capN+1, capN)
	}
	for seq := uint64(1); seq <= capN; seq++ {
		sc, ok := sess.cached(seq)
		if !ok || sc.comp.Slot != seq || !bytes.Equal(sc.data, payload(seq)) {
			t.Fatalf("seq %d lost or mangled by growth: ok=%v %+v", seq, ok, sc)
		}
		if got := sess.classify(seq); got != seqDup {
			t.Fatalf("seq %d classified %d, want dup", seq, got)
		}
	}
	sess.prune(capN - 10)
	for seq := uint64(1); seq <= capN; seq++ {
		want := seqDup
		if seq <= capN-10 {
			want = seqStale
		}
		if got := sess.classify(seq); got != want {
			t.Fatalf("after ack %d: seq %d classified %d, want %d", capN-10, seq, got, want)
		}
	}
	if !sess.save(capN+1, &comp, nil) {
		t.Fatalf("seq %d refused with the window freed", capN+1)
	}
}

// TestCleanDisconnectDropsSession: a client Close sends the disconnect
// frame, so the server tears the session down immediately instead of
// retaining it.
func TestCleanDisconnectDropsSession(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServerWithConfig(host, ServerConfig{SessionRetention: time.Hour})
	defer srv.Close()
	cli := Loopback(srv)

	qp, err := cli.QueuePair(now, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	qp.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session survived a clean disconnect (sessions=%d)", srv.Sessions())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdminTimeout pins the satellite fix: an admin request against a
// server that accepts but never replies fails with the typed
// ErrTimeout instead of hanging forever.
func TestAdminTimeout(t *testing.T) {
	// A fake server: completes the handshake, then swallows frames.
	dial := func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			fr := &frameReader{r: srv}
			if _, _, err := fr.readFrame(); err != nil {
				return
			}
			var f frameBuf
			f.start(frameAccept)
			f.u32(0)
			f.u32(0)
			f.u64(0)
			if _, err := srv.Write(f.finish()); err != nil {
				return
			}
			for {
				if _, _, err := fr.readFrame(); err != nil {
					return
				}
			}
		}()
		return cli, nil
	}
	cli := NewClient(dial).WithConfig(Config{AdminTimeout: 50 * time.Millisecond})
	admin, err := cli.Admin()
	if err != nil {
		t.Fatalf("admin connect: %v", err)
	}
	defer admin.Close()
	start := time.Now()
	_, err = admin.Identify(0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("identify against mute server: %v, want ErrTimeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v", waited)
	}
}

// TestErrClassification pins Err's redial-eligibility contract: a
// local Close is terminal (ErrClosed), a server-side connection loss
// is ErrDisconnected, and a goaway is ErrGoaway — the latter two
// RedialEligible, the first not.
func TestErrClassification(t *testing.T) {
	t.Run("local close", func(t *testing.T) {
		host, now := resilienceHost(t)
		srv := NewServer(host)
		defer srv.Close()
		qp, err := Loopback(srv).QueuePair(now, 4, hostif.ClassMedium, 1)
		if err != nil {
			t.Fatal(err)
		}
		qp.Close()
		if err := qp.Err(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Err after Close: %v, want ErrClosed", err)
		}
		if RedialEligible(qp.Err()) {
			t.Fatal("local close classified redial-eligible")
		}
	})
	t.Run("mid-stream disconnect", func(t *testing.T) {
		host, now := resilienceHost(t)
		srv := NewServer(host)
		qp, err := Loopback(srv).QueuePair(now, 4, hostif.ClassMedium, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer qp.Close()
		srv.Close() // hard server death: no goaway
		deadline := time.Now().Add(5 * time.Second)
		for qp.Err() == nil {
			if time.Now().After(deadline) {
				t.Fatal("queue pair never observed the disconnect")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := qp.Err(); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("Err after server death: %v, want ErrDisconnected", err)
		}
		if !RedialEligible(qp.Err()) {
			t.Fatal("mid-stream disconnect not redial-eligible")
		}
	})
	t.Run("goaway", func(t *testing.T) {
		host, now := resilienceHost(t)
		srv := NewServer(host)
		defer srv.Close()
		qp, err := Loopback(srv).QueuePair(now, 4, hostif.ClassMedium, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer qp.Close()
		srv.Shutdown()
		deadline := time.Now().Add(5 * time.Second)
		for qp.Err() == nil {
			if time.Now().After(deadline) {
				t.Fatal("queue pair never observed goaway")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := qp.Err(); !errors.Is(err, ErrGoaway) {
			t.Fatalf("Err after Shutdown: %v, want ErrGoaway", err)
		}
		if !RedialEligible(qp.Err()) {
			t.Fatal("goaway not redial-eligible")
		}
		if got := srv.Sessions(); got != 0 {
			t.Fatalf("sessions after Shutdown = %d, want 0", got)
		}
	})
}

// TestGoawayDrainLosesNoCompletions: a batch acknowledged before the
// drain is fully delivered, and the drain itself flushes anything the
// server accepted before the goaway frame goes out.
func TestGoawayDrainLosesNoCompletions(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServer(host)
	defer srv.Close()
	qp, err := Loopback(srv).QueuePair(now, 8, hostif.ClassMedium, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()

	const n = 8
	payload := make([]byte, 4096)
	for i := 0; i < n; i++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(i), payload
		if _, err := qp.Submit(cmd); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rung := qp.Ring(now); rung != n {
		t.Fatalf("rang %d, want %d", rung, n)
	}
	// Wait until every completion has been pushed and received, then
	// drain the server: nothing may be lost.
	comp, ok := qp.ReapEarliest()
	if !ok || comp.Err != nil {
		t.Fatalf("first completion: ok=%v err=%v", ok, comp.Err)
	}
	srv.Shutdown()
	got := 1
	for {
		comp, ok := qp.Reap()
		if !ok {
			break
		}
		if comp.Err != nil {
			t.Fatalf("completion error: %v", comp.Err)
		}
		got++
	}
	if got != n {
		t.Fatalf("reaped %d completions across the drain, want %d", got, n)
	}
	if err := qp.Err(); !errors.Is(err, ErrGoaway) {
		t.Fatalf("Err after drain: %v, want ErrGoaway", err)
	}
}

// TestReapedDataOutlivesLaterArrivals pins the lending rule at depth 8
// over real TCP: a reaped completion's Data stays intact, whatever
// lands meanwhile, until the next reap. Eight distinct-stamp reads are
// rung together; each reaped payload is verified, a replacement read is
// rung so more data keeps arriving, and once everything in flight has
// landed the same payload is verified again. Run under -race: a buffer
// handed back to the pool at reap time is written by whoever lands the
// next completion while the test is still reading it.
func TestReapedDataOutlivesLaterArrivals(t *testing.T) {
	host, now := resilienceHost(t)
	srv := NewServer(host)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	const depth, pages = 8, 24
	qp, err := Dial(l.Addr().String()).QueuePair(now, depth, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()

	stamped := func(lpn int) []byte {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = byte(lpn*37 + i)
		}
		return p
	}
	for lpn := 0; lpn < pages; lpn++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(lpn), stamped(lpn)
		if err := qp.Push(now, cmd); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		if c := qp.MustReap(); c.Err != nil {
			t.Fatalf("write %d: %v", lpn, c.Err)
		}
	}

	lpnOf := map[uint64]int{} // submission slot → page read
	submit := func(lpn int) {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, int64(lpn), 1
		slot, err := qp.Submit(cmd)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		lpnOf[slot] = lpn
	}
	for lpn := 0; lpn < depth; lpn++ {
		submit(lpn)
	}
	qp.Ring(now)
	for next := depth; ; next++ {
		c, ok := qp.Reap()
		if !ok {
			break
		}
		want := stamped(lpnOf[c.Slot])
		if c.Err != nil || !bytes.Equal(c.Data, want) {
			t.Fatalf("read of page %d: err %v, payload intact: %v", lpnOf[c.Slot], c.Err, bytes.Equal(c.Data, want))
		}
		if next < pages {
			submit(next)
			qp.Ring(now)
		}
		// Let everything in flight land while c.Data is still lent.
		deadline := time.Now().Add(5 * time.Second)
		for landed := false; !landed; time.Sleep(50 * time.Microsecond) {
			qp.mu.Lock()
			landed = qp.rung == 0
			qp.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatal("in-flight reads never landed while nobody reaped")
			}
		}
		if !bytes.Equal(c.Data, want) {
			t.Fatalf("page %d's reaped payload was overwritten by a later arrival", lpnOf[c.Slot])
		}
	}
	if len(lpnOf) != pages {
		t.Fatalf("read %d pages, want %d", len(lpnOf), pages)
	}
}

// TestHandshakeFailureClosesConn: a connect whose handshake fails —
// the peer hangs up, or answers with something that is not an accept —
// returns the error and closes the connection it dialed.
func TestHandshakeFailureClosesConn(t *testing.T) {
	for name, peer := range map[string]func(net.Conn){
		"hangup": func(srv net.Conn) { srv.Close() },
		"keep-alive for accept": func(srv net.Conn) {
			(&frameReader{r: srv}).readFrame()
			var f frameBuf
			f.start(frameKeepAlive)
			srv.Write(f.finish())
		},
	} {
		t.Run(name, func(t *testing.T) {
			var cli net.Conn
			dial := func() (net.Conn, error) {
				var srv net.Conn
				cli, srv = net.Pipe()
				go peer(srv)
				return cli, nil
			}
			if _, err := NewClient(dial).QueuePair(0, 4, hostif.ClassMedium, 1); err == nil {
				t.Fatal("queue pair opened over a failed handshake")
			}
			if _, err := NewClient(dial).Admin(); err == nil {
				t.Fatal("admin client opened over a failed handshake")
			}
			if _, err := cli.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("write on the dialed connection: %v, want it closed", err)
			}
		})
	}
}

// TestFramePushedBehindAcceptIsNotLost: the handshake reads the accept
// through the pair's own buffered reader, so a frame the server sent in
// the same burst reaches the pair instead of dying with a reader the
// handshake threw away.
func TestFramePushedBehindAcceptIsNotLost(t *testing.T) {
	dial := func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			(&frameReader{r: srv}).readFrame()
			var f frameBuf
			f.start(frameAccept)
			f.u32(1)
			f.u32(4)
			f.u64(7)
			burst := append([]byte(nil), f.finish()...)
			f.start(frameGoaway)
			srv.Write(append(burst, f.finish()...))
		}()
		return cli, nil
	}
	qp, err := NewClient(dial).QueuePair(0, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()
	deadline := time.Now().Add(5 * time.Second)
	for qp.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the goaway sent behind the accept never reached the pair")
		}
		time.Sleep(time.Millisecond)
	}
	if err := qp.Err(); !errors.Is(err, ErrGoaway) {
		t.Fatalf("Err = %v, want ErrGoaway", err)
	}
}
