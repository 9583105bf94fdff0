package hostif

import (
	"sync"

	"repro/internal/vclock"
)

// Notification is one interrupt-style completion signal: the queue
// pair has Coalesced completions ready to Reap, the last of which
// finished at virtual instant At. The callback runs outside every host
// lock, so it may Reap, Submit and Ring freely.
type Notification struct {
	// Queue is the queue pair whose completions are ready.
	Queue *QueuePair
	// At is the completion instant of the last coalesced completion —
	// the virtual time the interrupt fires.
	At vclock.Time
	// Coalesced is the number of completions this signal covers.
	Coalesced int
}

// SetNotify registers interrupt-style completion notification on the
// queue pair, replacing spin-polling Reap. Modeled on NVMe interrupt
// coalescing: the host fires fn once per threshold completions (the
// aggregation threshold), and flushes a partial batch at the end of
// every execution drain (the analog of the coalescing timer — no
// completion waits for traffic that may never come). threshold < 1
// means 1: fire on every completion. A nil fn disables notification.
//
// Delivery is deterministic: signals fire in completion order (drain-
// end flushes in queue-ID order), each carrying the virtual instant of
// its last completion, after the drain releases the execution lock.
// The callback runs on whichever goroutine drove the drain — with
// concurrent drivers it must be goroutine-safe. Notification does not
// consume completions: the callback (or anyone else) still Reaps, and
// virtual timing is identical to polling, which
// TestNotifyMatchesPollTiming pins.
func (qp *QueuePair) SetNotify(threshold int, fn func(Notification)) {
	if threshold < 1 {
		threshold = 1
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if (fn != nil) == (qp.notifyFn != nil) {
		// Same registration state: just swap the handler in place.
	} else if fn != nil {
		qp.host.notifiers.Add(1)
	} else {
		qp.host.notifiers.Add(-1)
	}
	qp.notifyFn = fn
	qp.notifyEvery = threshold
	qp.notifyPend = 0
}

// noteCompletion records one completion toward the queue pair's
// coalescing threshold, appending a due notification to the host's
// pending list. Caller holds execMu and qp.mu.
func (qp *QueuePair) noteCompletion(done vclock.Time) {
	if qp.notifyFn == nil {
		return
	}
	qp.notifyPend++
	qp.notifyLast = done
	if qp.notifyPend >= qp.notifyEvery {
		qp.host.notes = append(qp.host.notes, Notification{
			Queue:     qp,
			At:        done,
			Coalesced: qp.notifyPend,
		})
		qp.notifyPend = 0
	}
}

// flushNotifies appends a signal for every queue pair holding a
// partial coalescing batch — called once at the end of a drain, in
// queue-ID order. Caller holds execMu.
func (h *Host) flushNotifies() {
	if h.notifiers.Load() == 0 {
		return
	}
	for _, qp := range h.queuePairs() {
		qp.mu.Lock()
		if qp.notifyFn != nil && qp.notifyPend > 0 {
			h.notes = append(h.notes, Notification{
				Queue:     qp,
				At:        qp.notifyLast,
				Coalesced: qp.notifyPend,
			})
			qp.notifyPend = 0
		}
		qp.mu.Unlock()
	}
}

// notePool recycles boxed pending-notification buffers. The box (a
// *[]Notification) travels intact from takeNotes through deliver and
// back into the pool, so notification-mode drivers allocate nothing at
// steady state and poll-mode drivers (which always take the nil fast
// path) never touch the pool at all.
var notePool = sync.Pool{New: func() any { return new([]Notification) }}

// takeNotes detaches the pending notification list as a boxed slice,
// leaving a recycled buffer in its place. Caller holds execMu; the
// result is delivered after the lock is released.
func (h *Host) takeNotes() *[]Notification {
	if len(h.notes) == 0 {
		return nil
	}
	box := h.noteBox
	*box = h.notes
	fresh := notePool.Get().(*[]Notification)
	h.notes = (*fresh)[:0]
	h.noteBox = fresh
	return box
}

// deliver invokes the callbacks for a detached notification list, in
// order, holding no locks, then recycles the box.
func (h *Host) deliver(box *[]Notification) {
	if box == nil {
		return
	}
	notes := *box
	for i := range notes {
		n := notes[i]
		n.Queue.mu.Lock()
		fn := n.Queue.notifyFn
		n.Queue.mu.Unlock()
		if fn != nil {
			fn(n)
		}
	}
	*box = notes[:0]
	notePool.Put(box)
}
