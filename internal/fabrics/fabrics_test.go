package fabrics_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// testRig builds a small served controller: OX-Block over the default
// rig, host attached, server listening on an ephemeral TCP port.
func testRig(t *testing.T, logicalPages int64) (*fabrics.Server, string, vclock.Time) {
	t.Helper()
	_, ctrl, err := exp.DefaultRig().Build()
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: logicalPages}, 0)
	if err != nil {
		t.Fatalf("oxblock: %v", err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	if _, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d)); err != nil {
		t.Fatalf("attach: %v", err)
	}
	srv := fabrics.NewServer(host)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv, l.Addr().String(), now
}

// waitQPs polls the controller identity until the live I/O queue-pair
// count drains to want — connection cleanup runs on the server's
// handler goroutine, so tests observe it asynchronously.
func waitQPs(t *testing.T, admin *fabrics.AdminClient, now vclock.Time, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		id, err := admin.Identify(now)
		if err != nil {
			t.Fatalf("identify: %v", err)
		}
		if id.IOQueuePairs == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue pairs stuck at %d, want %d", id.IOQueuePairs, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPRoundtrip drives the full stack over a real socket: admin
// identify, a write, and a read whose payload must come back intact.
func TestTCPRoundtrip(t *testing.T) {
	_, addr, now := testRig(t, 1024)
	cli := fabrics.Dial(addr)

	admin, err := cli.Admin()
	if err != nil {
		t.Fatalf("admin connect: %v", err)
	}
	defer admin.Close()
	id, err := admin.Identify(now)
	if err != nil {
		t.Fatalf("identify: %v", err)
	}
	if id.Namespaces != 1 {
		t.Fatalf("namespaces = %d, want 1", id.Namespaces)
	}
	ns, err := admin.IdentifyNamespace(now, 1)
	if err != nil {
		t.Fatalf("identify namespace: %v", err)
	}
	if ns.Capacity != 1024 {
		t.Fatalf("namespace capacity = %d, want 1024", ns.Capacity)
	}

	qp, err := cli.QueuePair(now, 4, hostif.ClassHigh, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	defer qp.Close()

	payload := make([]byte, 4*4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cmd := qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, 8, payload
	if err := qp.Push(now, cmd); err != nil {
		t.Fatalf("write: %v", err)
	}
	wc := qp.MustReap()
	if wc.Err != nil {
		t.Fatalf("write completion: %v", wc.Err)
	}
	if wc.Done <= now {
		t.Fatalf("write Done %v not after doorbell %v", wc.Done, now)
	}

	cmd = qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, 8, 4
	if err := qp.Push(wc.Done, cmd); err != nil {
		t.Fatalf("read: %v", err)
	}
	rc := qp.MustReap()
	if rc.Err != nil {
		t.Fatalf("read completion: %v", rc.Err)
	}
	if !bytes.Equal(rc.Data, payload) {
		t.Fatalf("read returned wrong bytes (%d of %d correct prefix)",
			commonPrefix(rc.Data, payload), len(payload))
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestAdminErrorsOverFabric pins the admin error path: a bad log page
// and a bad namespace come back as the canonical host errors, and the
// connection keeps working afterwards.
func TestAdminErrorsOverFabric(t *testing.T) {
	_, addr, now := testRig(t, 256)
	admin, err := fabrics.Dial(addr).Admin()
	if err != nil {
		t.Fatalf("admin connect: %v", err)
	}
	defer admin.Close()
	if _, err := admin.GetLogPage(now, hostif.LogPage(200), 0); !errors.Is(err, hostif.ErrBadLogPage) {
		t.Fatalf("bad log page: got %v", err)
	}
	if _, err := admin.IdentifyNamespace(now, 42); !errors.Is(err, hostif.ErrBadNSID) {
		t.Fatalf("bad nsid: got %v", err)
	}
	if _, err := admin.Identify(now); err != nil {
		t.Fatalf("identify after errors: %v", err)
	}
}

// TestSubmitRejectRidesAsCompletion: a command the server cannot
// submit comes back as an error completion carrying the canonical
// error, and the queue pair survives to run the next command.
func TestSubmitRejectRidesAsCompletion(t *testing.T) {
	_, addr, now := testRig(t, 256)
	qp, err := fabrics.Dial(addr).QueuePair(now, 2, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	defer qp.Close()

	cmd := qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.Pages = hostif.OpRead, 99, 1
	if err := qp.Push(now, cmd); err != nil {
		t.Fatalf("push: %v", err)
	}
	comp := qp.MustReap()
	if !errors.Is(comp.Err, hostif.ErrBadNSID) {
		t.Fatalf("bad-namespace read completed with %v, want %v", comp.Err, hostif.ErrBadNSID)
	}
	cmd = qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, 0, make([]byte, 4096)
	if err := qp.Push(comp.Done, cmd); err != nil {
		t.Fatalf("push after reject: %v", err)
	}
	if comp := qp.MustReap(); comp.Err != nil {
		t.Fatalf("write after reject: %v", comp.Err)
	}
}

// TestClientDepthGate: the client refuses submissions past the
// negotiated depth without a wire round trip, exactly like the
// in-process arena.
func TestClientDepthGate(t *testing.T) {
	_, addr, now := testRig(t, 256)
	qp, err := fabrics.Dial(addr).QueuePair(now, 2, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	defer qp.Close()
	for i := 0; i < 2; i++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(i), make([]byte, 4096)
		if _, err := qp.Submit(cmd); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cmd := qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.Pages = hostif.OpRead, 1, 1
	if _, err := qp.Submit(cmd); !errors.Is(err, hostif.ErrQueueFull) {
		t.Fatalf("third submit at depth 2: got %v, want %v", err, hostif.ErrQueueFull)
	}
	qp.ReleaseCommand(cmd)
	qp.Ring(now)
	for i := 0; i < 2; i++ {
		if comp := qp.MustReap(); comp.Err != nil {
			t.Fatalf("completion %d: %v", i, comp.Err)
		}
	}
}

// TestServerSurvivesAbruptDisconnect kills connections mid-batch —
// doorbell rung, completions never read — and checks the server reaps
// the queue pair, releases its slots, and keeps serving new clients.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	_, addr, now := testRig(t, 1024)
	cli := fabrics.Dial(addr)
	admin, err := cli.Admin()
	if err != nil {
		t.Fatalf("admin connect: %v", err)
	}
	defer admin.Close()

	for round := 0; round < 5; round++ {
		qp, err := cli.QueuePair(now, 8, hostif.ClassMedium, 4)
		if err != nil {
			t.Fatalf("round %d: queue pair: %v", round, err)
		}
		for i := 0; i < 8; i++ {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(i*8), make([]byte, 4096)
			if _, err := qp.Submit(cmd); err != nil {
				t.Fatalf("round %d: submit %d: %v", round, i, err)
			}
		}
		qp.Ring(now)
		// Hang up with all eight completions unread.
		qp.Close()
		waitQPs(t, admin, now, 0)
	}

	// The controller must still serve a full roundtrip.
	qp, err := cli.QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("post-churn queue pair: %v", err)
	}
	defer qp.Close()
	cmd := qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.Pages = hostif.OpRead, 1, 1
	if err := qp.Push(now, cmd); err != nil {
		t.Fatalf("post-churn push: %v", err)
	}
	if comp := qp.MustReap(); comp.Err != nil {
		t.Fatalf("post-churn completion: %v", comp.Err)
	}
}

// TestReapAfterConnectionDrop: a client blocked in Reap when its
// connection dies must unblock with ok=false and a terminal error, not
// hang.
func TestReapAfterConnectionDrop(t *testing.T) {
	srv, addr, now := testRig(t, 256)
	qp, err := fabrics.Dial(addr).QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	srv.Close() // kills every tracked connection
	done := make(chan struct{})
	go func() {
		defer close(done)
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.Pages = hostif.OpRead, 1, 1
		if err := qp.Push(now, cmd); err != nil {
			return // write failed fast: also fine
		}
		if _, ok := qp.Reap(); ok {
			t.Error("reap succeeded on a dead connection")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reap hung after connection drop")
	}
	if qp.Err() == nil {
		t.Fatal("dead queue pair reports no terminal error")
	}
}

// TestChurnStress is the -race workout: many goroutines dialing,
// writing, and dropping connections — half of them abruptly with
// completions unread — while admin clients hammer identify. The
// assertions are freedom from panics, races and deadlocks, full
// queue-pair drain, and a working controller afterwards.
func TestChurnStress(t *testing.T) {
	_, addr, now := testRig(t, 4096)
	cli := fabrics.Dial(addr)

	const workers = 12
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				qp, err := cli.QueuePair(now, 4, hostif.Class(w%4), 2)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: dial: %w", w, r, err)
					return
				}
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					cmd := qp.AcquireCommand()
					cmd.Op, cmd.NSID, cmd.Data = hostif.OpWrite, 1, make([]byte, 4096)
					cmd.LPN = int64(rng.Intn(4096))
					if _, err := qp.Submit(cmd); err != nil {
						errs <- fmt.Errorf("worker %d round %d: submit: %w", w, r, err)
						return
					}
				}
				qp.Ring(now)
				if rng.Intn(2) == 0 {
					qp.Close() // abrupt: completions unread
					continue
				}
				for i := 0; i < n; i++ {
					if comp := qp.MustReap(); comp.Err != nil {
						errs <- fmt.Errorf("worker %d round %d: completion: %w", w, r, comp.Err)
						return
					}
				}
				qp.Close()
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			admin, err := cli.Admin()
			if err != nil {
				errs <- fmt.Errorf("admin %d: %w", w, err)
				return
			}
			defer admin.Close()
			for r := 0; r < rounds*4; r++ {
				if _, err := admin.Identify(now); err != nil {
					errs <- fmt.Errorf("admin %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	admin, err := cli.Admin()
	if err != nil {
		t.Fatalf("post-stress admin: %v", err)
	}
	defer admin.Close()
	waitQPs(t, admin, now, 0)
}

// TestLoopbackMatchesTCP: the same command sequence over loopback and
// over a real socket produces identical virtual-time completions — the
// transport medium cannot influence simulated time.
func TestLoopbackMatchesTCP(t *testing.T) {
	run := func(cli *fabrics.Client, now vclock.Time) []vclock.Time {
		qp, err := cli.QueuePair(now, 4, hostif.ClassMedium, 1)
		if err != nil {
			t.Fatalf("queue pair: %v", err)
		}
		defer qp.Close()
		var times []vclock.Time
		at := now
		for i := 0; i < 16; i++ {
			cmd := qp.AcquireCommand()
			if i%2 == 0 {
				cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(i*4), make([]byte, 4*4096)
			} else {
				cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, int64((i-1)*4), 4
			}
			if err := qp.Push(at, cmd); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				t.Fatalf("completion %d: %v", i, comp.Err)
			}
			times = append(times, comp.Done)
			at = comp.Done
		}
		return times
	}

	srvT, addr, nowT := testRig(t, 1024)
	_ = srvT
	tcpTimes := run(fabrics.Dial(addr), nowT)

	srvL, _, nowL := testRig(t, 1024)
	loopTimes := run(fabrics.Loopback(srvL), nowL)

	if nowT != nowL {
		t.Fatalf("rig attach instants differ: %v vs %v", nowT, nowL)
	}
	for i := range tcpTimes {
		if tcpTimes[i] != loopTimes[i] {
			t.Fatalf("completion %d: tcp %v, loopback %v", i, tcpTimes[i], loopTimes[i])
		}
	}
}

// goroutineID names the calling goroutine, from the header line of its
// stack trace ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(fields[1])
}

// reapWatchConn counts the socket reads that return bytes by who made
// them: the driver goroutine or anybody else.
type reapWatchConn struct {
	net.Conn
	driver       string
	mine, others *atomic.Int64
}

func (c *reapWatchConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if goroutineID() == c.driver {
			c.mine.Add(1)
		} else {
			c.others.Add(1)
		}
	}
	return n, err
}

// TestCompletionsAreReadWhileReaping pins the hand-off the transport no
// longer makes: on a busy depth-1 loop the goroutine that waits for a
// completion is the one that reads it off the socket. The reader of
// last resort may take a frame now and then (it yields as soon as it
// sees the pair is driven), so the bar is 95 %, not all.
func TestCompletionsAreReadWhileReaping(t *testing.T) {
	_, addr, now := testRig(t, 256)
	var mine, others atomic.Int64
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &reapWatchConn{Conn: conn, driver: goroutineID(), mine: &mine, others: &others}, nil
	}
	qp, err := fabrics.NewClient(dial).QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	defer qp.Close()
	const ops = 2000
	for i := 0; i < ops; i++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, int64(i%256), 1
		if err := qp.Push(now, cmd); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		c, ok := qp.Reap()
		if !ok || c.Err != nil {
			t.Fatalf("reap %d: ok=%v err=%v", i, ok, c.Err)
		}
		now = c.Done
	}
	in, out := mine.Load(), others.Load()
	t.Logf("%d ops: %d reads on the reaping goroutine (handshake included), %d on others", ops, in, out)
	if in < ops*95/100 {
		t.Fatalf("only %d of %d completions were read by the reaping goroutine (%d reads by others)", in, ops, out)
	}
}

// TestUnreapedLoopbackPairDoesNotBlockNeighbour: a loopback pipe has no
// buffer and a completion may be pushed from another connection's
// handler, so a pair that rang and is not being reaped must still be
// read by someone, or its neighbour's completions wait behind it. One
// goroutine rings A, rings B, and reaps B before A.
func TestUnreapedLoopbackPairDoesNotBlockNeighbour(t *testing.T) {
	srv, _, now := testRig(t, 256)
	cli := fabrics.Loopback(srv)
	a, err := cli.QueuePair(now, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("pair A: %v", err)
	}
	defer a.Close()
	b, err := cli.QueuePair(now, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("pair B: %v", err)
	}
	defer b.Close()
	push := func(qp *fabrics.QueuePair, lpn int64) {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, lpn, 1
		if err := qp.Push(now, cmd); err != nil {
			t.Errorf("push: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := int64(0); round < 20; round++ {
			// A synchronous op first: it leaves A's last-resort reader
			// yielding to the driver, the state in which A is least read.
			push(a, round)
			a.MustReap()
			push(a, round)
			push(a, round+1)
			push(b, round)
			if c := b.MustReap(); c.Err != nil {
				t.Errorf("B round %d: %v", round, c.Err)
			}
			for i := 0; i < 2; i++ {
				if c := a.MustReap(); c.Err != nil {
					t.Errorf("A round %d: %v", round, c.Err)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an unreaped pair blocked its neighbour")
	}
}
