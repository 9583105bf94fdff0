package hostif

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the execution engine — the second stage of the host's
// two-stage command service, selected by ExecutorBatched. The first
// stage (the sequencer) is the arbitration loop in host.go: it picks
// grants in deterministic WRR order, gathering up to grantBatch of them
// per arbitration acquisition, assigns each a monotonic sequence number
// and classifies its media footprint through Namespace.Footprint. This
// stage takes those grants and runs them on a pool of workers,
// overlapping commands whose footprints are disjoint while conflicting,
// admin and footprint-unknown commands act as barriers. Completions
// come back through a reorder stage keyed by sequence number, so
// queue-pair completion order, notification order and every
// virtual-time result are bit-for-bit identical to the serial executor.
//
// Why this is deterministic: the sequencer dispatches in sequence
// order, and a grant is not dispatched while any in-flight command's
// footprint conflicts with it. Footprints are conservative (see the
// Footprint contract in hostif.go): two commands allowed in flight
// together share no virtual-time resource and no mutable FTL state, so
// their reservations commute and every Result.End equals its serial
// value. The reorder stage then releases completions to the queue pairs
// strictly in sequence order, which is exactly the serial executor's
// completion order.
//
// Who runs a dispatched job: the jobs channel is buffered at the pool
// size. When the send would block — every worker busy and the channel
// full — the sequencer runs the job itself and posts the result into
// the reorder stage exactly as a worker would (ExecutorLog.SelfRun
// counts these). This cannot move a result: the footprint check ran
// before the job joined the in-flight window, so it commutes with
// everything still running on the workers, and its completion is
// released in sequence order like any other. A blocking send parked
// the sequencer until a worker took a job, and then left it waiting
// for a CPU; running the job instead keeps every core on media work.
// Two variants lost on zns_engine_append (2 vCPUs) and are not used:
// an unbuffered jobs channel (−11 % against the blocking send) and a
// pool of GOMAXPROCS−1 workers (below caller-runs on the same seeds).
//
// The reorder stage is a ring of slots indexed by sequence number over
// the in-flight window (dispatched sequence numbers are contiguous from
// nextRelease: an inline grant runs only after a full drain), so a
// finished job is stored in place and a dispatch allocates nothing.

// ExecutorKind selects the host's command-service engine.
type ExecutorKind string

const (
	// ExecutorSerial executes every granted command inline in the
	// arbitration loop — the reference oracle. The zero value of
	// HostConfig.Executor selects it.
	ExecutorSerial ExecutorKind = "serial"
	// ExecutorBatched decouples arbitration from media execution: the
	// sequencer pulls up to grantBatch WRR grants per arbitration
	// acquisition, footprint-classifying the whole batch up front, and
	// grants with disjoint footprints run concurrently on a worker
	// pool. Conflicts within a batch become intra-batch barriers;
	// completions release in strict grant order through a deterministic
	// reorder stage, so results are bit-identical to the serial oracle.
	ExecutorBatched ExecutorKind = "batched"
)

// grantBatch caps the grants the sequencer gathers per arbitration
// acquisition. It decides wall-clock amortization only, never results;
// on a 2-vCPU box batches of 1 and of 16 traded the lead from run to
// run on the scale sweep at 64 and 512 PUs, so it is not a knob.
const grantBatch = 16

// ExecutorLog is the LogExecutor admin log page: the pipeline counters
// that make the execution engine observable over queue 0.
type ExecutorLog struct {
	// Executor and Workers echo the host configuration.
	Executor ExecutorKind
	Workers  int
	// Grants counts commands granted by the sequencer (I/O and admin).
	Grants int64
	// Acquisitions counts arbitration acquisitions: sequencer rendezvous
	// at which at least one grant was pulled. The serial executor
	// acquires once per grant; the engine amortizes up to 16 grants per
	// acquisition, so Acquisitions/Grants is the amortization actually
	// realized.
	Acquisitions int64
	// Dispatched counts grants handed to the worker pool.
	Dispatched int64
	// SelfRun counts the dispatched grants the sequencer ran itself
	// because every worker was busy and the job queue was full (a
	// subset of Dispatched; see engine.go).
	SelfRun int64
	// Inline counts grants executed inline in the sequencer: admin
	// commands and commands naming an unknown namespace.
	Inline int64
	// Overlapped counts dispatches that entered the pool while at least
	// one other command was already in flight — the concurrency the
	// engine actually realized.
	Overlapped int64
	// BarrierStalls counts the times an inline command had to wait for
	// the pipeline to drain before executing.
	BarrierStalls int64
	// ConflictStalls counts the times a dispatch waited for an
	// in-flight command with a conflicting footprint to complete — with
	// the batched executor, the intra-batch conflict barriers.
	ConflictStalls int64
	// MaxInflight is the high-water mark of concurrently dispatched
	// commands.
	MaxInflight int
}

// execJob is one granted command in flight through the worker pool.
type execJob struct {
	seq uint64
	qp  *QueuePair
	e   sqe
	ns  Namespace
}

// run executes the job's data path. It mirrors Host.exec for a data
// command on an engine host, which never charges the host link: the
// namespace adapter does all controller and media accounting itself.
func (j execJob) run() Completion {
	cmd := j.e.cmd
	res := j.qp.host.execute(j.ns, j.e.ready, cmd)
	res.Status = StatusOf(res.Err)
	return Completion{
		QueueID:   j.qp.id,
		Slot:      j.e.slot,
		Op:        cmd.Op,
		NSID:      cmd.NSID,
		Submitted: j.e.ready,
		Done:      res.End,
		Result:    res,
		cmd:       cmd,
	}
}

// doneSlot is one reorder-stage slot: a dispatched command's
// completion, parked until every earlier sequence number has released.
type doneSlot struct {
	done bool
	qp   *QueuePair
	c    Completion
}

// minDoneSlots is the initial reorder ring size (a power of two); the
// sequencer doubles it when the in-flight window outgrows it.
const minDoneSlots = 64

// inflightCmd tracks one dispatched command's footprint until its
// completion is released.
type inflightCmd struct {
	seq uint64
	fp  Footprint
}

// grant is one arbitrated command gathered into a sequencer batch,
// footprint-classified at gather time. The namespace snapshot the
// classification read stays valid for the whole batch because an
// inline-class grant (the only kind that can mutate host structures)
// always terminates the batch it joins.
type grant struct {
	qp     *QueuePair
	e      sqe
	seq    uint64
	inline bool
	ns     Namespace
	fp     Footprint
}

// engine is the worker pool plus the reorder stage. The fields below
// resultMu are owned by the sequencer: they are only touched from the
// arbitration loop, under the host's execMu.
type engine struct {
	workers  int
	jobs     chan execJob
	stopOnce sync.Once

	resultMu sync.Mutex
	resultC  *sync.Cond
	done     []doneSlot // reorder ring, indexed by seq & (len(done)-1)

	// Sequencer state (execMu).
	nextSeq     uint64        // next sequence number to assign
	nextRelease uint64        // next sequence number to complete
	inflight    []inflightCmd // dispatched, completion not yet released
	batchBuf    []grant       // reusable gather buffer
	stats       ExecutorLog   // counters only; executorLog fills the identity
}

// newEngine starts a worker pool of the given size (minimum 1; zero
// selects GOMAXPROCS). Workers live until the engine is stopped.
func newEngine(workers int) *engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := &engine{
		workers:  workers,
		jobs:     make(chan execJob, workers),
		done:     make([]doneSlot, minDoneSlots),
		batchBuf: make([]grant, 0, grantBatch),
	}
	eng.resultC = sync.NewCond(&eng.resultMu)
	for i := 0; i < workers; i++ {
		go eng.worker()
	}
	return eng
}

// stop terminates the worker goroutines; idempotent. The pipeline must
// be idle (every drain leaves it empty).
func (eng *engine) stop() { eng.stopOnce.Do(func() { close(eng.jobs) }) }

// worker executes jobs and parks each result in the reorder stage.
// Jobs in flight together never conflict, so which worker runs which
// job — and in what wall-clock order — cannot affect any result.
func (eng *engine) worker() {
	for j := range eng.jobs {
		eng.post(j, j.run())
	}
}

// post parks a finished job's completion in its reorder slot.
func (eng *engine) post(j execJob, c Completion) {
	eng.resultMu.Lock()
	s := &eng.done[j.seq&uint64(len(eng.done)-1)]
	s.done, s.qp, s.c = true, j.qp, c
	eng.resultC.Signal()
	eng.resultMu.Unlock()
}

// reserve makes room in the reorder ring for sequence number seq,
// doubling the ring and re-placing the in-flight window when seq would
// wrap onto an unreleased slot. Caller is the sequencer.
func (eng *engine) reserve(seq uint64) {
	n := uint64(len(eng.done))
	if seq-eng.nextRelease < n {
		return
	}
	for seq-eng.nextRelease >= n {
		n *= 2
	}
	grown := make([]doneSlot, n)
	eng.resultMu.Lock()
	old := eng.done
	for s := eng.nextRelease; s < seq; s++ {
		grown[s&(n-1)] = old[s&uint64(len(old)-1)]
	}
	eng.done = grown
	eng.resultMu.Unlock()
}

// Release modes of the reorder stage.
const (
	releaseReady = iota // pop whatever is already finished
	releaseOne          // block until at least one completion releases
	releaseAll          // block until the pipeline is empty
)

// release pops finished completions from the reorder stage in sequence
// order and posts them to their queue pairs — the only place engine
// completions become visible, which is what keeps completion-queue and
// notification order identical to the serial executor. Caller is the
// sequencer, holding execMu.
func (eng *engine) release(h *Host, mode int) {
	for {
		eng.resultMu.Lock()
		s := &eng.done[eng.nextRelease&uint64(len(eng.done)-1)]
		for !s.done {
			if mode == releaseReady || len(eng.inflight) == 0 {
				eng.resultMu.Unlock()
				return
			}
			eng.resultC.Wait()
		}
		d := *s
		*s = doneSlot{}
		eng.resultMu.Unlock()

		if len(eng.inflight) == 0 || eng.inflight[0].seq != eng.nextRelease {
			panic(fmt.Sprintf("hostif: reorder stage released seq %d out of order", eng.nextRelease))
		}
		eng.inflight = eng.inflight[:copy(eng.inflight, eng.inflight[1:])]
		eng.nextRelease++
		d.qp.complete(d.c)
		h.executed.Add(1)
		if mode == releaseOne {
			mode = releaseReady
		}
	}
}

// barrier drains the pipeline completely: every dispatched command
// completes and releases. Caller holds execMu.
func (eng *engine) barrier(h *Host) {
	if len(eng.inflight) > 0 {
		eng.stats.BarrierStalls++
	}
	eng.release(h, releaseAll)
}

// conflicts reports whether fp conflicts with any in-flight command.
func (eng *engine) conflicts(fp Footprint) bool {
	for i := range eng.inflight {
		if fp.Conflicts(eng.inflight[i].fp) {
			return true
		}
	}
	return false
}

// dispatch hands one granted command to the worker pool, first waiting
// for any conflicting in-flight command to complete. When the job
// queue is full the sequencer runs the command itself rather than wait
// for a worker. Caller holds execMu.
func (eng *engine) dispatch(h *Host, j execJob, fp Footprint) {
	if eng.conflicts(fp) {
		eng.stats.ConflictStalls++
		for eng.conflicts(fp) {
			eng.release(h, releaseOne)
		}
	}
	if n := len(eng.inflight); n > 0 {
		eng.stats.Overlapped++
		if n+1 > eng.stats.MaxInflight {
			eng.stats.MaxInflight = n + 1
		}
	} else if eng.stats.MaxInflight == 0 {
		eng.stats.MaxInflight = 1
	}
	eng.reserve(j.seq)
	eng.inflight = append(eng.inflight, inflightCmd{seq: j.seq, fp: fp})
	eng.stats.Dispatched++
	select {
	case eng.jobs <- j:
	default:
		eng.stats.SelfRun++
		eng.post(j, j.run())
	}
}

// drainEngineLocked is the engine twin of drainLocked: the sequencer
// grants commands in arbitration order and feeds the execution engine;
// the reorder stage posts completions back in grant order. Per
// arbitration acquisition it gathers up to grantBatch grants,
// footprint-classifying each as it is pulled, so the
// arbitration/release bookkeeping amortizes across the batch. Grant
// order is untouched by batching: arbitrate is a pure function of the
// doorbell and credit state, and neither gathering nor dispatching
// rings a doorbell, so pulling B grants back-to-back yields the same
// sequence the serial loop grants one at a time. An inline-class grant
// (admin, bad NSID) terminates its batch: admin
// execution mutates the snapshots classification reads, so no grant is
// ever classified after an unexecuted admin command. Caller holds
// execMu and delivers takeNotes() after releasing it.
func (h *Host) drainEngineLocked() {
	eng := h.eng
	for {
		// Opportunistically retire finished work so the in-flight window
		// (and its conflict scans) stay short.
		eng.release(h, releaseReady)

		// Gather one batch of grants.
		batch := eng.batchBuf[:0]
		for len(batch) < grantBatch {
			best := h.arbitrate()
			if best == nil {
				break
			}
			e, ok := best.takeHead()
			if !ok {
				continue
			}
			g := grant{qp: best, e: e, seq: eng.nextSeq}
			eng.nextSeq++
			eng.stats.Grants++
			cmd := e.cmd

			// Inline classes — each acts as a full barrier at dispatch.
			// Admin commands mutate host structures the sequencer itself
			// reads; a bad NSID never reaches an adapter. (An engine host
			// never charges the host link: NewHost refuses it.)
			g.inline = cmd.Op.IsAdmin()
			if !g.inline {
				if err := checkNSID(h.namespaces(), cmd.NSID); err != nil {
					g.inline = true
				} else {
					nsid := cmd.NSID
					if nsid == 0 {
						nsid = 1
					}
					g.ns = h.namespaces()[nsid-1]
					g.fp = g.ns.Footprint(cmd).normalize()
				}
			}
			batch = append(batch, g)
			if g.inline {
				break
			}
		}
		eng.batchBuf = batch
		if len(batch) == 0 {
			eng.release(h, releaseAll)
			h.flushNotifies()
			return
		}
		eng.stats.Acquisitions++

		// Dispatch the batch in grant order. Intra-batch footprint
		// conflicts stall in dispatch until the conflicting in-flight
		// command releases; inline grants drain the pipeline first.
		for i := range batch {
			g := &batch[i]
			if g.inline {
				eng.barrier(h)
				if eng.nextRelease != g.seq {
					panic("hostif: sequencer released past an inline command")
				}
				eng.nextRelease = g.seq + 1
				eng.stats.Inline++
				g.qp.complete(h.exec(g.qp, g.e))
				if !g.e.cmd.Op.IsAdmin() {
					h.executed.Add(1)
				}
				continue
			}
			eng.dispatch(h, execJob{seq: g.seq, qp: g.qp, e: g.e, ns: g.ns}, g.fp)
		}
	}
}

// executorLog snapshots the sequencer counters. Caller holds execMu
// (the admin path). A serial sequencer reports its grant count with
// every grant inline and one acquisition per grant, every pipeline
// counter zero.
func (h *Host) executorLog() ExecutorLog {
	if h.eng == nil {
		return ExecutorLog{Executor: ExecutorSerial, Grants: h.grants, Acquisitions: h.grants, Inline: h.grants}
	}
	log := h.eng.stats
	log.Executor, log.Workers = ExecutorBatched, h.eng.workers
	return log
}
