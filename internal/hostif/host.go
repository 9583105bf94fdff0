package hostif

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ox"
)

// HostConfig tunes the host interface.
type HostConfig struct {
	// ChargeHostLink charges the controller host link (PCIe/40GE) for
	// each data command's payload before dispatch and for returned read
	// data after completion — the host hop of a user I/O. Drivers that
	// model the host link themselves leave it off. Admin commands are
	// host-memory operations and are never charged.
	ChargeHostLink bool

	// Weights are the WRR arbitration credit bursts; zero fields take
	// DefaultWeights (8/4/2).
	Weights Weights

	// Executor selects the command-service engine: ExecutorSerial (the
	// reference oracle; the zero value) runs every granted command
	// inline in the arbitration loop, and ExecutorBatched decouples
	// arbitration from media execution, overlapping grants with
	// disjoint footprints on a worker pool. Both produce bit-identical
	// completions; see engine.go. NewHost refuses ExecutorBatched
	// together with ChargeHostLink.
	Executor ExecutorKind

	// Workers sizes the engine's worker pool; zero selects GOMAXPROCS.
	// Ignored by the serial executor. The worker count affects
	// wall-clock speed only, never results.
	Workers int
}

// Host is the host-interface runtime: it owns the attached namespaces
// and queue pairs, and executes visible commands in deterministic
// arbitration order. One Host fronts one ox.Controller.
//
// The host carries both planes of the NVMe-style surface. Queue 0 is
// the admin queue pair, created with the host; every management
// operation — namespace attach, I/O queue-pair create/delete, identify,
// log pages — is a typed admin command issued through Admin(). I/O
// queue pairs come from AdminCreateIOQP with a depth and a WRR Class.
//
// Locking discipline: queue-pair state (slot accounting, staging,
// completion reaping, the command arena, notification coalescing)
// lives behind each QueuePair's own mutex, so concurrent submitters on
// different queue pairs never contend. One execMu serializes the
// arbitration-and-execution step — picking the next head by admin >
// urgent > WRR credits (a scan over per-queue atomic doorbell
// timestamps) and running it through the namespace adapter or the
// admin executor. Namespace and queue-pair registration use
// copy-on-write snapshots read lock-free on the submission path. Lock
// order: execMu → setupMu → QueuePair.mu, never the reverse; the
// engine's resultMu is a leaf. Notification callbacks run with no host
// lock held.
type Host struct {
	ctrl *ox.Controller
	cfg  HostConfig

	setupMu sync.Mutex // serializes snapshot writers (attach/open/delete)
	ns      atomic.Pointer[[]Namespace]
	qps     atomic.Pointer[[]*QueuePair]
	nextQID int // monotonic: queue IDs are never reused

	adminQP *QueuePair
	weights Weights

	execMu  sync.Mutex // arbitration + execution + completion consumption
	credits [3]int     // high/medium/low WRR credits (execMu)
	grants  int64      // serial-sequencer grants (execMu; engine keeps its own)
	notes   []Notification
	noteBox *[]Notification // pool box the current notes buffer rides in

	// eng is the execution engine (nil with ExecutorSerial).
	eng *engine

	executed  atomic.Int64
	notifiers atomic.Int32 // queue pairs with a notify handler

	reads readPool // read buffers the queue pairs lend (readbuf.go)
}

// adminDepth sizes the admin queue pair (queue 0).
const adminDepth = 16

// NewHost builds a host interface over the controller. The admin queue
// pair (queue 0) is created with the host; everything else is attached
// through admin commands.
func NewHost(ctrl *ox.Controller, cfg HostConfig) *Host {
	if ctrl == nil {
		panic("hostif: nil controller")
	}
	h := &Host{ctrl: ctrl, cfg: cfg, weights: cfg.Weights.withDefaults()}
	switch cfg.Executor {
	case "", ExecutorSerial:
	case ExecutorBatched:
		if cfg.ChargeHostLink {
			panic("hostif: the engine cannot charge the host link (every charged command would run inline)")
		}
		h.eng = newEngine(cfg.Workers)
	default:
		panic(fmt.Sprintf("hostif: unknown executor %q", cfg.Executor))
	}
	h.credits = [3]int{h.weights.High, h.weights.Medium, h.weights.Low}
	h.noteBox = notePool.Get().(*[]Notification)
	h.notes = (*h.noteBox)[:0]
	h.adminQP = h.openQueuePair(adminDepth, ClassMedium)
	h.adminQP.admin = true
	return h
}

// namespaces returns the current namespace snapshot (lock-free).
func (h *Host) namespaces() []Namespace {
	if p := h.ns.Load(); p != nil {
		return *p
	}
	return nil
}

// queuePairs returns the current queue-pair snapshot (lock-free).
func (h *Host) queuePairs() []*QueuePair {
	if p := h.qps.Load(); p != nil {
		return *p
	}
	return nil
}

// attachNamespace appends ns and returns its NSID (1-based). Reached
// through OpAdminNamespaceAttach.
func (h *Host) attachNamespace(ns Namespace) int {
	h.setupMu.Lock()
	defer h.setupMu.Unlock()
	cur := h.namespaces()
	next := make([]Namespace, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ns
	h.ns.Store(&next)
	return len(next)
}

// namespaceOf resolves a command's NSID (0 = namespace 1).
func (h *Host) namespaceOf(nsid int) (Namespace, error) {
	ns := h.namespaces()
	if err := checkNSID(ns, nsid); err != nil {
		return nil, err
	}
	if nsid == 0 {
		nsid = 1
	}
	return ns[nsid-1], nil
}

// checkNSID validates a command's namespace id against a snapshot.
func checkNSID(ns []Namespace, nsid int) error {
	if nsid == 0 && len(ns) > 0 {
		return nil
	}
	if nsid < 1 || nsid > len(ns) {
		return ErrBadNSID
	}
	return nil
}

// openQueuePair creates a queue pair with the given depth (minimum 1)
// and arbitration class. Reached through OpAdminCreateIOQP.
func (h *Host) openQueuePair(depth int, class Class) *QueuePair {
	h.setupMu.Lock()
	defer h.setupMu.Unlock()
	qp := h.addQueuePairLocked(h.nextQID, depth, class)
	h.nextQID++
	return qp
}

// addQueuePairLocked appends a fresh queue pair with ID qid to the
// queue-pair snapshot. Caller holds setupMu.
func (h *Host) addQueuePairLocked(qid, depth int, class Class) *QueuePair {
	if depth < 1 {
		depth = 1
	}
	cur := h.queuePairs()
	qp := &QueuePair{host: h, id: qid, depth: depth, class: class}
	qp.headReady.Store(noHead)
	next := make([]*QueuePair, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = qp
	h.qps.Store(&next)
	return qp
}

// reopenQueuePair recreates a previously deleted I/O queue pair under
// its original ID — the resumption path of a fabric session whose
// connection died: the recreated pair is the same logical queue
// continuing, so it keeps the arbitration tie-break identity its
// earlier incarnation held. The ID must have been issued before and
// must not be live (ErrBadQueueID / ErrQueueBusy otherwise); the
// never-reused discipline of nextQID is preserved because only IDs the
// host itself once handed out can come back. Reached through
// OpAdminCreateIOQP with a non-zero QID.
func (h *Host) reopenQueuePair(qid, depth int, class Class) (*QueuePair, error) {
	h.setupMu.Lock()
	defer h.setupMu.Unlock()
	if qid <= 0 || qid >= h.nextQID {
		return nil, fmt.Errorf("%w: queue %d was never issued", ErrBadQueueID, qid)
	}
	for _, qp := range h.queuePairs() {
		if qp.id == qid {
			return nil, fmt.Errorf("%w: queue %d is live", ErrQueueBusy, qid)
		}
	}
	return h.addQueuePairLocked(qid, depth, class), nil
}

// deleteQueuePair removes the idle I/O queue pair qid from arbitration
// and closes it to further submission. Queue IDs are never reused, so
// arbitration tie-breaks stay stable across deletions. Reached through
// OpAdminDeleteIOQP; caller holds execMu.
func (h *Host) deleteQueuePair(qid int) error {
	h.setupMu.Lock()
	defer h.setupMu.Unlock()
	cur := h.queuePairs()
	idx := -1
	for i, qp := range cur {
		if qp.id == qid {
			idx = i
			break
		}
	}
	if idx < 0 || cur[idx].admin {
		return ErrBadQueueID
	}
	qp := cur[idx]
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return ErrBadQueueID
	}
	if qp.inflightLocked() > 0 {
		qp.mu.Unlock()
		return ErrQueueBusy
	}
	qp.closed = true
	qp.releaseLentLocked()
	if qp.notifyFn != nil {
		// Drop the registration so a deleted queue never pins the
		// host's notifier count (and with it the drain-end flush scan).
		qp.notifyFn = nil
		h.notifiers.Add(-1)
	}
	qp.mu.Unlock()
	next := make([]*QueuePair, 0, len(cur)-1)
	next = append(next, cur[:idx]...)
	next = append(next, cur[idx+1:]...)
	h.qps.Store(&next)
	return nil
}

// Executed reports the total number of I/O commands executed
// (diagnostics; admin commands are not counted).
func (h *Host) Executed() int64 { return h.executed.Load() }

// Close releases the host's execution engine: the worker goroutines of
// a batched executor exit. Close is the only thing that stops them —
// there is no finalizer — so whoever builds a host with an engine must
// Close it, or its workers (and, through them, the host and the device
// under it) stay reachable for the life of the process. Close also
// ends every queue pair's read-buffer loan. Close is idempotent. The
// host must be idle — no Drain/Reap in progress and none issued
// afterwards.
func (h *Host) Close() {
	if h.eng != nil {
		h.eng.stop()
	}
	for _, qp := range h.queuePairs() {
		qp.mu.Lock()
		qp.releaseLentLocked()
		qp.mu.Unlock()
	}
}

// Drain executes every visible command across all queue pairs in
// arbitration order, filling the completion queues and delivering any
// due notifications.
func (h *Host) Drain() {
	h.execMu.Lock()
	h.drainLocked()
	notes := h.takeNotes()
	h.execMu.Unlock()
	h.deliver(notes)
}

// noHead is the per-queue doorbell timestamp meaning "no visible
// command" — it loses every arbitration comparison.
const noHead = math.MaxInt64

// drainLocked is the arbitration loop: while any submission queue has
// a visible command, let the arbiter pick one (admin strictly first,
// then urgent, then the weighted classes by credit — see arbitrate),
// serve its head, and repeat. Within a queue, commands execute in slot
// (FIFO) order. The order is a pure function of the submission
// history, which is what keeps figure tables bit-identical across
// runs. Partial notification batches are flushed when the drain runs
// dry (the coalescing-timer analog).
//
// With ExecutorBatched the same grant order feeds the worker pool
// instead (engine.go); the reorder stage restores this loop's
// completion order exactly, so both paths satisfy the same contract.
//
// Caller holds execMu and delivers takeNotes() after releasing it.
func (h *Host) drainLocked() {
	if h.eng != nil {
		h.drainEngineLocked()
		return
	}
	for {
		best := h.arbitrate()
		if best == nil {
			h.flushNotifies()
			return
		}
		e, ok := best.takeHead()
		if !ok {
			continue
		}
		h.grants++
		best.complete(h.exec(best, e))
		if !e.cmd.Op.IsAdmin() {
			h.executed.Add(1)
		}
	}
}

// exec runs one command: optional host-link transfer in, the namespace
// adapter (which routes through the FTL's own controller and media
// accounting) or the admin executor, optional host-link transfer of
// returned data out. Caller holds execMu; no queue-pair mutex is held.
func (h *Host) exec(qp *QueuePair, e sqe) Completion {
	cmd := e.cmd
	if cmd.Op.IsAdmin() {
		res := h.execAdmin(e.ready, cmd)
		res.Status = StatusOf(res.Err)
		return Completion{
			QueueID:   qp.id,
			Slot:      e.slot,
			Op:        cmd.Op,
			NSID:      cmd.NSID,
			Submitted: e.ready,
			Done:      e.ready,
			Result:    res,
			cmd:       cmd,
		}
	}
	start := e.ready
	if h.cfg.ChargeHostLink && len(cmd.Data) > 0 {
		start = h.ctrl.HostTransfer(start, int64(len(cmd.Data)))
	}
	ns := h.namespaces()
	var res Result
	if err := checkNSID(ns, cmd.NSID); err != nil {
		res = Result{End: start, Err: err}
	} else {
		nsid := cmd.NSID
		if nsid == 0 {
			nsid = 1
		}
		res = h.execute(ns[nsid-1], start, cmd)
	}
	if h.cfg.ChargeHostLink && res.Err == nil {
		n := res.Transfer
		if n == 0 {
			n = int64(len(res.Data))
		}
		if n > 0 {
			res.End = h.ctrl.HostTransfer(res.End, n)
		}
	}
	res.Status = StatusOf(res.Err)
	return Completion{
		QueueID:   qp.id,
		Slot:      e.slot,
		Op:        cmd.Op,
		NSID:      cmd.NSID,
		Submitted: e.ready,
		Done:      res.End,
		Result:    res,
		cmd:       cmd,
	}
}

// ReapAny executes every visible command, then pops the globally
// earliest I/O completion across the I/O queue pairs — ordered by
// (Done, queueID, slot). Closed-loop drivers use it to advance the host
// actor whose command finishes first. It reports false when every I/O
// completion queue is empty. Admin completions are never returned:
// they belong to whoever drives the admin queue (AdminClient reaps its
// own submissions), so a data-plane ReapAny loop can run concurrently
// with control-plane calls without stealing their completions.
func (h *Host) ReapAny() (Completion, bool) {
	h.execMu.Lock()
	h.drainLocked()
	notes := h.takeNotes()
	// Completion queues are only mutated under execMu, so the scan sees
	// a stable snapshot; per-queue mutexes are taken around each access
	// to stay ordered with concurrent Outstanding/Submit readers.
	var bestQP *QueuePair
	bestIdx := -1
	var bestC Completion
	for _, qp := range h.queuePairs() {
		if qp.admin {
			continue
		}
		qp.mu.Lock()
		for i := 0; i < qp.cq.len(); i++ {
			c := qp.cq.at(i)
			if bestQP == nil || earlier(c, &bestC) {
				bestQP, bestIdx, bestC = qp, i, *c
			}
		}
		qp.mu.Unlock()
	}
	if bestQP == nil {
		h.execMu.Unlock()
		h.deliver(notes)
		return Completion{}, false
	}
	bestQP.mu.Lock()
	c := bestQP.cq.removeAt(bestIdx)
	bestQP.recycleLocked(c.cmd)
	bestQP.lendLocked(&c)
	bestQP.mu.Unlock()
	h.execMu.Unlock()
	h.deliver(notes)
	return c, true
}

// earlier orders completions by (Done, queueID, slot).
func earlier(a, b *Completion) bool {
	if a.Done != b.Done {
		return a.Done < b.Done
	}
	if a.QueueID != b.QueueID {
		return a.QueueID < b.QueueID
	}
	return a.Slot < b.Slot
}
