package hostif

import (
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// sqe is one submission-queue entry.
type sqe struct {
	cmd   *Command
	slot  uint64
	ready vclock.Time // doorbell instant (valid once rung)
}

// Arena command states (tracked per queue pair, keyed by pointer, so
// drivers remain free to overwrite a whole Command value).
const (
	cmdFree     uint8 = iota // on the free list, must be re-acquired
	cmdAcquired              // owned by the driver, submittable
	cmdInflight              // submitted, completion not yet reaped
)

// QueuePair is one submission/completion queue pair. A host actor owns
// a queue pair and drives it in three steps: Submit stages commands in
// submission-queue slots, Ring makes every staged entry visible to the
// controller at one doorbell instant (batched submission), and Reap
// consumes completion-queue entries. Push is the depth-1 convenience
// (Submit + Ring). SetNotify replaces Reap-polling with interrupt-
// style completion notification.
//
// I/O queue pairs are created by the admin command AdminCreateIOQP
// (AdminClient.CreateIOQueuePair) with a depth and a WRR arbitration
// Class, and retired by AdminDeleteIOQP once idle. Queue 0 is the
// admin queue pair, which carries only admin opcodes and is served
// with strict priority.
//
// Depth bounds the commands in flight: staged, visible, executing and
// completed-but-unreaped entries all hold their slot until reaped,
// exactly like an NVMe queue pair whose CQ entries must be consumed
// before their SQ slots recycle.
//
// All queue-pair state sits behind the pair's own mutex: Submit, Ring
// and slot accounting on one queue pair never contend with other queue
// pairs of the same Host. A single queue pair is driven by one actor at
// a time; different queue pairs may be driven concurrently.
type QueuePair struct {
	host  *Host
	id    int
	depth int
	class Class
	admin bool // queue 0: admin opcodes only, strict priority

	// headReady mirrors the doorbell timestamp of the oldest visible
	// entry (noHead when none) so the host's arbitration scan reads one
	// atomic per queue instead of taking every queue's mutex.
	headReady atomic.Int64

	mu        sync.Mutex
	closed    bool             // deleted via AdminDeleteIOQP
	staged    ring[sqe]        // submitted, doorbell not yet rung
	rung      ring[sqe]        // visible to the controller, FIFO
	cq        ring[Completion] // completions awaiting Reap
	executing int              // popped from rung, completion not yet queued
	nextSlot  uint64

	// Command arena: recycled at Reap, with misuse detection.
	free  []*Command
	state map[*Command]uint8

	// lent is the read buffer behind the last reaped completion's Data,
	// back to the host's pool at the pair's next reap (readbuf.go).
	lent []byte

	// Interrupt coalescing (SetNotify): fire notifyFn per notifyEvery
	// completions; notifyPend/notifyLast track the open batch.
	notifyFn    func(Notification)
	notifyEvery int
	notifyPend  int
	notifyLast  vclock.Time
}

// ID reports the queue pair's identifier (arbitration tie-break key;
// 0 is the admin queue).
func (qp *QueuePair) ID() int { return qp.id }

// Depth reports the configured queue depth.
func (qp *QueuePair) Depth() int { return qp.depth }

// Class reports the queue pair's WRR arbitration class.
func (qp *QueuePair) Class() Class { return qp.class }

// inflightLocked counts slots held: staged + visible + executing +
// unreaped completions. Caller holds qp.mu.
func (qp *QueuePair) inflightLocked() int {
	return qp.staged.len() + qp.rung.len() + qp.executing + qp.cq.len()
}

// AcquireCommand returns a Command from the queue pair's arena. The
// command is owned by the caller until submitted; its slot is recycled
// automatically when its completion is reaped, so a closed submit/reap
// loop reuses the same storage forever. Fields are zeroed.
func (qp *QueuePair) AcquireCommand() *Command {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if n := len(qp.free); n > 0 {
		cmd := qp.free[n-1]
		qp.free = qp.free[:n-1]
		qp.state[cmd] = cmdAcquired
		return cmd
	}
	if qp.state == nil {
		qp.state = make(map[*Command]uint8)
	}
	cmd := new(Command)
	qp.state[cmd] = cmdAcquired
	return cmd
}

// recycleLocked returns an arena command to the free list after its
// completion was reaped. Driver-owned commands pass through untouched.
// Caller holds qp.mu.
func (qp *QueuePair) recycleLocked(cmd *Command) {
	if cmd == nil {
		return
	}
	if _, ok := qp.state[cmd]; !ok {
		return // not arena-owned
	}
	*cmd = Command{} // drop payload references
	qp.state[cmd] = cmdFree
	qp.free = append(qp.free, cmd)
}

// ReleaseCommand returns an acquired-but-unsubmitted arena command to
// the free list: the discard path for a command whose Submit was
// rejected (queue full, bad namespace, plane mismatch), so rejection
// under backpressure does not leak arena slots. In-flight and already-
// recycled commands are left untouched — their misuse is detected at
// the next Submit.
func (qp *QueuePair) ReleaseCommand(cmd *Command) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if st, ok := qp.state[cmd]; ok && st == cmdAcquired {
		qp.recycleLocked(cmd)
	}
}

// Submit stages cmd in the next free submission slot without ringing
// the doorbell. It returns the slot, or ErrQueueFull when every slot is
// held by an in-flight or unreaped command. Plane mismatches are
// rejected (ErrAdminOnly / ErrIOOnAdmin): admin opcodes belong on the
// admin queue, data opcodes on I/O queues; a deleted queue returns
// ErrQueueClosed. Arena commands are checked for misuse: resubmitting
// one whose completion has not been reaped returns ErrCommandInFlight,
// and submitting one already recycled at Reap returns
// ErrCommandRecycled.
func (qp *QueuePair) Submit(cmd *Command) (uint64, error) {
	if cmd.Op.IsAdmin() != qp.admin {
		if qp.admin {
			return 0, ErrIOOnAdmin
		}
		return 0, ErrAdminOnly
	}
	if !cmd.Op.IsAdmin() {
		if err := checkNSID(qp.host.namespaces(), cmd.NSID); err != nil {
			return 0, err
		}
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.closed {
		return 0, ErrQueueClosed
	}
	st, arena := qp.state[cmd]
	if arena {
		switch st {
		case cmdInflight:
			return 0, ErrCommandInFlight
		case cmdFree:
			return 0, ErrCommandRecycled
		}
	}
	if qp.inflightLocked() >= qp.depth {
		return 0, ErrQueueFull
	}
	slot := qp.nextSlot
	qp.nextSlot++
	qp.staged.push(sqe{cmd: cmd, slot: slot})
	if arena {
		qp.state[cmd] = cmdInflight
	}
	return slot, nil
}

// Ring rings the doorbell at virtual instant now: every staged entry
// becomes visible to the controller with submission timestamp now, in
// slot order. It returns the number of entries made visible.
func (qp *QueuePair) Ring(now vclock.Time) int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	n := qp.staged.len()
	if n == 0 {
		return 0
	}
	wasEmpty := qp.rung.len() == 0
	for i := 0; i < n; i++ {
		e := qp.staged.pop()
		e.ready = now
		qp.rung.push(e)
	}
	if wasEmpty {
		qp.headReady.Store(int64(now))
	}
	return n
}

// takeHead pops the oldest visible entry and refreshes the atomic
// doorbell timestamp. Caller holds execMu (only the arbitration loop
// consumes visible entries).
func (qp *QueuePair) takeHead() (sqe, bool) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.rung.len() == 0 {
		return sqe{}, false
	}
	e := qp.rung.pop()
	if qp.rung.len() > 0 {
		qp.headReady.Store(int64(qp.rung.at(0).ready))
	} else {
		qp.headReady.Store(noHead)
	}
	qp.executing++
	return e, true
}

// complete queues an executed command's completion and advances the
// notification coalescing batch. Caller holds execMu.
func (qp *QueuePair) complete(c Completion) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	qp.cq.push(c)
	qp.executing--
	qp.noteCompletion(c.Done)
}

// Push submits cmd and rings the doorbell at now: the single-command
// submission every blocking driver uses.
func (qp *QueuePair) Push(now vclock.Time, cmd *Command) error {
	if _, err := qp.Submit(cmd); err != nil {
		return err
	}
	qp.Ring(now)
	return nil
}

// Reap pops the oldest completion-queue entry, first letting the host
// execute every visible command. It reports false when the completion
// queue is empty. Reaping recycles the completed command's arena slot
// and ends the loan of the previous reaped completion's read Data.
func (qp *QueuePair) Reap() (Completion, bool) {
	h := qp.host
	h.execMu.Lock()
	h.drainLocked()
	notes := h.takeNotes()
	qp.mu.Lock()
	var c Completion
	ok := qp.cq.len() > 0
	if ok {
		c = qp.cq.pop()
		qp.recycleLocked(c.cmd)
		qp.lendLocked(&c)
	}
	qp.mu.Unlock()
	h.execMu.Unlock()
	h.deliver(notes)
	return c, ok
}

// MustReap is Reap for drivers whose protocol guarantees a completion
// is pending; it panics on an empty completion queue (driver bug).
func (qp *QueuePair) MustReap() Completion {
	c, ok := qp.Reap()
	if !ok {
		panic("hostif: MustReap on empty completion queue")
	}
	return c
}

// Outstanding reports slots currently held (in flight plus unreaped).
func (qp *QueuePair) Outstanding() int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.inflightLocked()
}

// Err reports why the queue pair takes no more commands: ErrQueueClosed
// once deleted, nil while live.
func (qp *QueuePair) Err() error {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.closed {
		return ErrQueueClosed
	}
	return nil
}
