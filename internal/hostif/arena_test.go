package hostif

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lightlsm"
	"repro/internal/vclock"
)

// TestArenaRecyclesSlotAfterReap pins the allocation-free contract:
// a closed submit/reap loop must hand the same Command storage back on
// every AcquireCommand, because the reap recycled it.
func TestArenaRecyclesSlotAfterReap(t *testing.T) {
	h, _ := testHost(t, vclock.Microsecond)
	qp := openQP(t, h, 1)

	first := qp.AcquireCommand()
	ptr := first
	for i := 0; i < 100; i++ {
		cmd := ptr
		if i > 0 {
			cmd = qp.AcquireCommand()
			if cmd != first {
				t.Fatalf("iteration %d: arena handed out new storage %p, want recycled %p", i, cmd, first)
			}
		}
		cmd.Op, cmd.LPN = OpWrite, int64(i)
		if err := qp.Push(vclock.Time(i), cmd); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		c := qp.MustReap()
		if c.Slot != uint64(i) {
			t.Fatalf("iteration %d: slot %d", i, c.Slot)
		}
	}
}

// TestArenaReapClearsCommand checks recycling drops payload references
// and zeroes fields before the next acquisition.
func TestArenaReapClearsCommand(t *testing.T) {
	h, _ := testHost(t, vclock.Microsecond)
	qp := openQP(t, h, 1)
	cmd := qp.AcquireCommand()
	cmd.Op, cmd.Data = OpWrite, make([]byte, 64)
	if err := qp.Push(0, cmd); err != nil {
		t.Fatal(err)
	}
	qp.MustReap()
	again := qp.AcquireCommand()
	if again != cmd {
		t.Fatalf("want recycled storage")
	}
	if again.Op != 0 || again.Data != nil {
		t.Fatalf("recycled command not cleared: %+v", again)
	}
}

// TestArenaReuseBeforeReapDetected: resubmitting an arena command whose
// completion has not been reaped is driver misuse and must be caught.
func TestArenaReuseBeforeReapDetected(t *testing.T) {
	h, _ := testHost(t, vclock.Microsecond)
	qp := openQP(t, h, 4)

	cmd := qp.AcquireCommand()
	cmd.Op = OpWrite
	if _, err := qp.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	// Still staged (doorbell not rung): resubmission is already misuse.
	if _, err := qp.Submit(cmd); !errors.Is(err, ErrCommandInFlight) {
		t.Fatalf("staged resubmit: %v, want ErrCommandInFlight", err)
	}
	qp.Ring(0)
	// Visible but unexecuted: still in flight.
	if _, err := qp.Submit(cmd); !errors.Is(err, ErrCommandInFlight) {
		t.Fatalf("rung resubmit: %v, want ErrCommandInFlight", err)
	}
	// Executed but unreaped: the slot is still held.
	h.Drain()
	if _, err := qp.Submit(cmd); !errors.Is(err, ErrCommandInFlight) {
		t.Fatalf("pre-reap resubmit: %v, want ErrCommandInFlight", err)
	}
	qp.MustReap()
	// Reaped: the slot was recycled, the old pointer is dead.
	if _, err := qp.Submit(cmd); !errors.Is(err, ErrCommandRecycled) {
		t.Fatalf("post-reap resubmit: %v, want ErrCommandRecycled", err)
	}
	// The sanctioned path works again.
	fresh := qp.AcquireCommand()
	fresh.Op = OpWrite
	if err := qp.Push(0, fresh); err != nil {
		t.Fatal(err)
	}
	qp.MustReap()
}

// TestDriverOwnedCommandsBypassArena: commands the driver allocates
// itself are not tracked and may be resubmitted freely (the examples
// and old drivers do this).
func TestDriverOwnedCommandsBypassArena(t *testing.T) {
	h, _ := testHost(t, vclock.Microsecond)
	qp := openQP(t, h, 1)
	cmd := &Command{Op: OpWrite}
	for i := 0; i < 3; i++ {
		if err := qp.Push(vclock.Time(i), cmd); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		qp.MustReap()
	}
}

// TestShardedHostConcurrentStress hammers Submit/Ring/Reap from many
// goroutines on their own queue pairs (≥8, each with arena commands)
// while others call ReapAny and Outstanding — run under -race in CI to
// pin the per-queue-pair locking discipline.
func TestShardedHostConcurrentStress(t *testing.T) {
	h, _ := testHost(t, vclock.Microsecond)
	const queues = 8
	const opsPerQueue = 200
	qps := make([]*QueuePair, queues)
	for i := range qps {
		qps[i] = openQP(t, h, 4)
	}

	var wg sync.WaitGroup
	errs := make(chan error, queues)
	for i := range qps {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			qp := qps[q]
			reaped := 0
			for issued := 0; issued < opsPerQueue; {
				burst := 0
				for burst < qp.Depth() && issued < opsPerQueue {
					cmd := qp.AcquireCommand()
					cmd.Op, cmd.LPN = OpWrite, int64(q*1000+issued)
					if _, err := qp.Submit(cmd); err != nil {
						errs <- fmt.Errorf("queue %d submit %d: %w", q, issued, err)
						return
					}
					issued++
					burst++
				}
				qp.Ring(vclock.Time(issued) * vclock.Time(vclock.Microsecond))
				for {
					if _, ok := qp.Reap(); !ok {
						break
					}
					reaped++
				}
				_ = qp.Outstanding()
			}
			for reaped < opsPerQueue {
				if _, ok := qp.Reap(); ok {
					reaped++
				}
			}
		}(i)
	}
	// Concurrent global observers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h.Drain()
			_ = h.Executed()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := h.Executed(); got != queues*opsPerQueue {
		t.Fatalf("executed %d commands, want %d", got, queues*opsPerQueue)
	}
	for i, qp := range qps {
		if n := qp.Outstanding(); n != 0 {
			t.Fatalf("queue %d still holds %d slots", i, n)
		}
	}
}

// TestRejectedClientCallsReleaseTheirCommand: a typed client call whose
// push is rejected returns the arena command it acquired, so repeated
// rejections leave the arena's command count unchanged — the lsm.Env
// client on a deleted queue pair (ErrQueueClosed) and the admin reads
// on a full admin queue (ErrQueueFull).
func TestRejectedClientCallsReleaseTheirCommand(t *testing.T) {
	host := NewHost(testController(t), HostConfig{})
	t.Cleanup(host.Close)
	env, err := lightlsm.New(host.ctrl, lightlsm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := AttachLSM(host, env)
	if err != nil {
		t.Fatal(err)
	}
	qp := cli.q.(*QueuePair)
	if err := host.Admin().DeleteIOQueuePair(0, qp); err != nil {
		t.Fatal(err)
	}
	admin := host.Admin()
	aq := admin.Queue()
	for {
		if _, err := aq.Submit(&Command{Op: OpAdminIdentify}); errors.Is(err, ErrQueueFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	calls := []struct {
		name string
		q    *QueuePair
		call func() error
		want error
	}{
		{"CreateTable on a deleted queue pair", qp, func() error { _, err := cli.CreateTable(0); return err }, ErrQueueClosed},
		{"Identify on a full admin queue", aq, func() error { _, err := admin.Identify(0); return err }, ErrQueueFull},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, c.want) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.want)
		}
		arena := len(c.q.state)
		for i := 0; i < 8; i++ {
			if err := c.call(); !errors.Is(err, c.want) {
				t.Fatalf("%s, call %d: %v, want %v", c.name, i, err, c.want)
			}
		}
		if n := len(c.q.state); n != arena {
			t.Errorf("%s: the arena grew from %d to %d commands over 8 rejected calls", c.name, arena, n)
		}
	}
	aq.Ring(0)
	for aq.Outstanding() > 0 {
		aq.MustReap()
	}
}
