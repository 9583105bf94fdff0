package hostif

import (
	"math/bits"
	"sync"

	"repro/internal/vclock"
)

// Read buffers are lent, not given. An OpRead on OX-Block or OX-ZNS
// lands in a buffer from its host's read pool, and the completion's
// Data aliases it. The queue pair lends the buffer to its driver until
// the pair's next reaped completion (Reap, MustReap, or ReapAny
// returning one of the pair's completions), until the pair is deleted,
// or until the host is closed — the contract fabrics.QueuePair keeps
// for its received data. A failed read returns its buffer at once and
// completes with nil Data. One pool serves the whole host, so memory
// follows the reads in flight, not the number of queue pairs.

// maxLentRead is the largest read served from the pool (OX-Block's
// largest transaction). A longer read gets a fresh buffer the driver
// keeps, so one outsized read never pins its size in the pool.
const maxLentRead = 1 << 20

// readPool is a host's free list of read buffers, by power-of-two size
// class: class k holds buffers of capacity 1<<k. A class never holds
// more buffers than were once lent at the same time. Its mutex is a
// leaf: workers take buffers while queue pairs return them.
type readPool struct {
	mu   sync.Mutex
	free [bits.UintSize][][]byte
}

// lendable reports whether a read of n bytes is served from the pool.
func lendable(n int) bool { return n > 0 && n <= maxLentRead }

// get returns a buffer of length n from class ⌈log2 n⌉. Its contents
// are whatever its last read left there.
func (p *readPool) get(n int) []byte {
	k := bits.Len(uint(n - 1))
	p.mu.Lock()
	if l := p.free[k]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[k] = l[:len(l)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<k)
}

// put returns a buffer that get handed out.
func (p *readPool) put(b []byte) {
	k := bits.Len(uint(cap(b) - 1))
	p.mu.Lock()
	p.free[k] = append(p.free[k], b)
	p.mu.Unlock()
}

// readBuffer returns the destination of an OpRead of n bytes: a buffer
// from the executing host's pool, or a fresh one when the command runs
// outside a host or the read is not lendable.
func (cmd *Command) readBuffer(n int) []byte {
	if cmd.reads != nil && lendable(n) {
		return cmd.reads.get(n)
	}
	return make([]byte, n)
}

// readResult completes an OpRead that read into dst, the buffer
// readBuffer returned. A failed read gives a pooled buffer back at once.
func (cmd *Command) readResult(end vclock.Time, err error, dst []byte) Result {
	lent := cmd.reads != nil && lendable(len(dst))
	if err != nil {
		if lent {
			cmd.reads.put(dst)
		}
		return Result{End: end, Err: err}
	}
	return Result{End: end, Data: dst, lent: lent}
}

// execute runs a data command on ns at now. An OpRead reaches the
// host's read pool through the command, which comes back exactly as
// submitted.
func (h *Host) execute(ns Namespace, now vclock.Time, cmd *Command) Result {
	if cmd.Op != OpRead {
		return ns.Execute(now, cmd)
	}
	cmd.reads = &h.reads
	res := ns.Execute(now, cmd)
	cmd.reads = nil
	return res
}

// lendLocked hands a reaped completion's read buffer to the driver and
// takes back the one lent with the pair's previous reaped completion.
// Caller holds qp.mu.
func (qp *QueuePair) lendLocked(c *Completion) {
	qp.releaseLentLocked()
	if c.lent {
		qp.lent = c.Data
	}
}

// releaseLentLocked returns the buffer the pair has lent, if any.
// Caller holds qp.mu.
func (qp *QueuePair) releaseLentLocked() {
	if qp.lent != nil {
		qp.host.reads.put(qp.lent)
		qp.lent = nil
	}
}
