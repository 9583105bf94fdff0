package hostif

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// slowNS is a Namespace with a controllable footprint: commands on
// different lanes reserve disjoint resources (overlap-safe), commands
// on one lane share that lane's resource. Lane = cmd.Zone; cmd.LPN
// tags the command for ordering checks.
type slowNS struct {
	dom   *int
	lanes []*vclock.Resource
	dur   vclock.Duration

	// classified and executing, when set, are called at the top of
	// Footprint and Execute: tests use them to order the sequencer
	// against the workers.
	classified func(cmd *Command)
	executing  func(cmd *Command)

	mu    sync.Mutex
	order []int64
}

func newSlowNS(lanes int, dur vclock.Duration) *slowNS {
	ns := &slowNS{dom: new(int), dur: dur}
	for i := 0; i < lanes; i++ {
		ns.lanes = append(ns.lanes, vclock.NewResource(fmt.Sprintf("lane%d", i)))
	}
	return ns
}

func (ns *slowNS) Name() string { return "slow" }

func (ns *slowNS) Footprint(cmd *Command) Footprint {
	if ns.classified != nil {
		ns.classified(cmd)
	}
	if cmd.Op == OpFlush {
		return ExclusiveFootprint(ns.dom) // the barrier op
	}
	return GroupFootprint(ns.dom, cmd.Zone)
}

func (ns *slowNS) Execute(now vclock.Time, cmd *Command) Result {
	if ns.executing != nil {
		ns.executing(cmd)
	}
	_, end := ns.lanes[cmd.Zone].Acquire(now, ns.dur)
	ns.mu.Lock()
	ns.order = append(ns.order, cmd.LPN)
	ns.mu.Unlock()
	return Result{End: end}
}

// engineHost builds a host with the batched executor over a fresh test
// controller.
func engineHost(t testing.TB, workers int) *Host {
	t.Helper()
	h := NewHost(testController(t), HostConfig{Executor: ExecutorBatched, Workers: workers})
	t.Cleanup(h.Close)
	return h
}

// TestClosedEngineHostIsCollectable pins Close as the whole lifetime
// contract of an engine host: once closed and dropped, the host and
// everything attached to it are garbage. (NewHost used to set a
// finalizer on the host; the host sits on a cycle with its queue
// pairs, Go never frees a cycle holding a finalizer, and every engine
// rig leaked with the device under it.)
func TestClosedEngineHostIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		ns := newSlowNS(1, vclock.Microsecond)
		runtime.SetFinalizer(ns, func(*slowNS) { close(freed) })
		h := NewHost(testController(t), HostConfig{Executor: ExecutorBatched, Workers: 2})
		if _, err := h.Admin().AttachNamespace(0, ns); err != nil {
			t.Fatal(err)
		}
		h.Close()
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a closed engine host is still reachable after its last reference was dropped")
}

// compKey is the comparable projection of a Completion used by the
// equivalence tests (payload slices are checked separately or nil).
type compKey struct {
	QueueID   int
	Slot      uint64
	Op        Op
	NSID      int
	Submitted vclock.Time
	Done      vclock.Time
	Err       error
	Offset    int64
	Handle    uint64
	Blocks    int
}

func keyOf(c Completion) compKey {
	return compKey{
		QueueID: c.QueueID, Slot: c.Slot, Op: c.Op, NSID: c.NSID,
		Submitted: c.Submitted, Done: c.Done, Err: c.Err,
		Offset: c.Offset, Handle: c.Handle, Blocks: c.Blocks,
	}
}

// TestPipelinedOverlapsDisjointFootprints proves the engine actually
// overlaps: commands on disjoint lanes dispatched from distinct queue
// pairs report realized overlap in the executor log page, and the
// completion order still matches arbitration order.
func TestPipelinedOverlapsDisjointFootprints(t *testing.T) {
	h := engineHost(t, 4)
	ns := newSlowNS(4, 50*vclock.Microsecond)
	attachNS(t, h, ns)
	qps := make([]*QueuePair, 4)
	for i := range qps {
		qps[i] = openQP(t, h, 2)
	}
	for round := 0; round < 8; round++ {
		for i, qp := range qps {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.Zone, cmd.LPN = OpWrite, i, int64(round*10+i)
			if err := qp.Push(vclock.Time(round)*vclock.Time(vclock.Millisecond), cmd); err != nil {
				t.Fatal(err)
			}
		}
		h.Drain()
		for _, qp := range qps {
			if _, ok := qp.Reap(); !ok {
				t.Fatal("missing completion")
			}
		}
	}
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.Executor != ExecutorBatched || log.Workers != 4 {
		t.Fatalf("log identity: %+v", log)
	}
	if log.Dispatched == 0 || log.Overlapped == 0 {
		t.Fatalf("no realized overlap: %+v", log)
	}
	if log.MaxInflight < 2 {
		t.Fatalf("MaxInflight %d, want ≥ 2: %+v", log.MaxInflight, log)
	}
}

// TestPipelinedConflictSerializesInOrder pins the barrier rule:
// same-lane commands from different queues execute in grant order even
// with many workers available, and the exclusive op stalls the
// pipeline. Command 1 is held on its worker until the sequencer has
// classified command 2, so command 2 always finds command 1 in flight
// and the conflict stall is certain, not a race between the two.
func TestPipelinedConflictSerializesInOrder(t *testing.T) {
	h := engineHost(t, 8)
	ns := newSlowNS(2, 10*vclock.Microsecond)
	granted := make(chan struct{})
	ns.classified = func(cmd *Command) {
		if cmd.LPN == 2 {
			close(granted)
		}
	}
	ns.executing = func(cmd *Command) {
		if cmd.LPN != 1 {
			return
		}
		select {
		case <-granted:
		case <-time.After(10 * time.Second):
			t.Error("command 2 was never granted while command 1 ran")
		}
	}
	attachNS(t, h, ns)
	q0, q1, q2 := openQP(t, h, 4), openQP(t, h, 4), openQP(t, h, 4)

	push := func(qp *QueuePair, at vclock.Time, lane int, id int64, op Op) {
		t.Helper()
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.Zone, cmd.LPN = op, lane, id
		if err := qp.Push(at, cmd); err != nil {
			t.Fatal(err)
		}
	}
	// All on lane 0: arbitration order is doorbell order (10, 20, 30),
	// and execution on the shared lane must follow it exactly.
	push(q0, 10, 0, 1, OpWrite)
	push(q1, 20, 0, 2, OpWrite)
	push(q2, 30, 0, 3, OpFlush) // exclusive
	push(q0, 40, 1, 4, OpWrite)
	h.Drain()
	ns.mu.Lock()
	got := append([]int64(nil), ns.order...)
	ns.mu.Unlock()
	want := []int64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.ConflictStalls == 0 {
		t.Fatalf("expected conflict stalls on the shared lane: %+v", log)
	}
}

// TestSaturatedEngineMatchesSerial pins the caller-runs dispatch: with
// one worker the job queue fills at once, so the sequencer runs jobs
// itself, and the completions and coalesced notifications must still
// match the serial executor's, in order. The first command to execute
// is held until a second one starts beside it; with one worker that
// second command can only be a job the sequencer ran itself, so
// SelfRun > 0 is certain, not a race.
func TestSaturatedEngineMatchesSerial(t *testing.T) {
	const queues, perQueue, lanes = 4, 8, 8
	type entry struct {
		QueueID int
		Slot    uint64
		Done    vclock.Time
		Status  Status
	}
	run := func(cfg HostConfig) ([]entry, []Notification, ExecutorLog) {
		h := NewHost(testController(t), cfg)
		t.Cleanup(h.Close)
		ns := newSlowNS(lanes, 7*vclock.Microsecond)
		if cfg.Executor == ExecutorBatched {
			var calls atomic.Int32
			second := make(chan struct{})
			ns.executing = func(*Command) {
				switch calls.Add(1) {
				case 1:
					select {
					case <-second:
					case <-time.After(10 * time.Second):
						t.Error("no command ran beside the first: the sequencer never ran a job itself")
					}
				case 2:
					close(second)
				}
			}
		}
		attachNS(t, h, ns)
		var notes []Notification
		qps := make([]*QueuePair, queues)
		for i := range qps {
			qps[i] = openQP(t, h, perQueue)
			qps[i].SetNotify(3, func(n Notification) {
				n.Queue = nil // pointer differs across runs
				notes = append(notes, n)
			})
		}
		// Queue pair i puts command k on lane (2i+k) mod 8: the first
		// grants (queue pair 0's burst) are pairwise disjoint, later
		// ones share lanes with earlier queue pairs' commands, and one
		// flush is an exclusive barrier mid-stream.
		for i, qp := range qps {
			for k := 0; k < perQueue; k++ {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.Zone, cmd.LPN = OpWrite, (2*i+k)%lanes, int64(i*100+k)
				if i == 2 && k == 4 {
					cmd.Op = OpFlush
				}
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
			}
			qp.Ring(0)
		}
		h.Drain()
		var out []entry
		for _, qp := range qps {
			for {
				c, ok := qp.Reap()
				if !ok {
					break
				}
				out = append(out, entry{c.QueueID, c.Slot, c.Done, c.Status})
			}
		}
		log, err := h.Admin().ExecutorStats(0)
		if err != nil {
			t.Fatal(err)
		}
		return out, notes, log
	}
	serial, serialNotes, _ := run(HostConfig{})
	got, gotNotes, log := run(HostConfig{Executor: ExecutorBatched, Workers: 1})
	if len(serial) != queues*perQueue || len(got) != len(serial) {
		t.Fatalf("completions: serial %d, batched %d, want %d", len(serial), len(got), queues*perQueue)
	}
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("completion %d diverged:\nserial  %+v\nbatched %+v", i, serial[i], got[i])
		}
	}
	if len(serialNotes) == 0 || len(gotNotes) != len(serialNotes) {
		t.Fatalf("notifications: serial %d, batched %d", len(serialNotes), len(gotNotes))
	}
	for i := range serialNotes {
		if gotNotes[i] != serialNotes[i] {
			t.Fatalf("notification %d diverged: serial %+v, batched %+v", i, serialNotes[i], gotNotes[i])
		}
	}
	if log.SelfRun == 0 || log.SelfRun > log.Dispatched {
		t.Fatalf("SelfRun %d of %d dispatched, want 0 < SelfRun ≤ Dispatched: %+v", log.SelfRun, log.Dispatched, log)
	}
}

// TestPipelinedNotifyMatchesSerial pins notification-order equality:
// coalesced interrupt delivery sees the same batches at the same
// virtual instants under both executors.
func TestPipelinedNotifyMatchesSerial(t *testing.T) {
	run := func(cfg HostConfig) []Notification {
		h := NewHost(testController(t), cfg)
		ns := newSlowNS(4, 11*vclock.Microsecond)
		attachNS(t, h, ns)
		qp := openQP(t, h, 8)
		var notes []Notification
		qp.SetNotify(3, func(n Notification) {
			n.Queue = nil // pointer differs across runs
			notes = append(notes, n)
		})
		for i := 0; i < 8; i++ {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.Zone, cmd.LPN = OpWrite, i%4, int64(i)
			if _, err := qp.Submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
		qp.Ring(0)
		h.Drain()
		for {
			if _, ok := qp.Reap(); !ok {
				break
			}
		}
		return notes
	}
	serial := run(HostConfig{})
	got := run(HostConfig{Executor: ExecutorBatched, Workers: 4})
	if len(serial) == 0 || len(serial) != len(got) {
		t.Fatalf("notifications %d vs %d", len(serial), len(got))
	}
	for i := range serial {
		if serial[i] != got[i] {
			t.Fatalf("notification %d diverged: %+v vs %+v", i, serial[i], got[i])
		}
	}
}

// znsHost builds a ZNS namespace on a cache-less multi-group rig — the
// configuration whose disjoint-group writes genuinely overlap — and
// returns the host, NSID and zone report.
func znsHost(t testing.TB, cfg HostConfig, groups int) (*Host, int, []zns.ZoneInfo) {
	t.Helper()
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 8,
		PagesPerBlock:  12,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups:       groups,
		PUsPerGroup:  2,
		ChunksPerPU:  8,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      0, // no write-back cache: group-scoped writes commute
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
	tgt, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(ctrl, cfg)
	t.Cleanup(h.Close)
	nsid, err := h.Admin().AttachNamespace(0, NewZoneNamespace(tgt))
	if err != nil {
		t.Fatal(err)
	}
	report, err := h.Admin().ZoneReport(0, nsid)
	if err != nil {
		t.Fatal(err)
	}
	return h, nsid, report
}

// TestPipelinedZNSMatchesSerial drives real media: zone appends, reads
// and resets across every group of a cache-less device, verifying
// virtual completion times are bit-identical between executors. This is
// the end-to-end audit that the device's per-PU sharding and per-group
// channels actually permit the overlap the footprints promise.
func TestPipelinedZNSMatchesSerial(t *testing.T) {
	const groups = 4
	run := func(cfg HostConfig) []compKey {
		h, nsid, report := znsHost(t, cfg, groups)
		// One zone per group, one queue pair per group.
		zoneOf := make([]int, 0, groups)
		seen := map[int]bool{}
		for _, zi := range report {
			if !seen[zi.Group] {
				seen[zi.Group] = true
				zoneOf = append(zoneOf, zi.Index)
			}
		}
		if len(zoneOf) != groups {
			t.Fatalf("zones per group: %d, want %d", len(zoneOf), groups)
		}
		qps := make([]*QueuePair, groups)
		for i := range qps {
			qps[i] = openQP(t, h, 2)
		}
		id, err := h.Admin().IdentifyNamespace(0, nsid)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]byte, id.BlockSize)
		for i := range block {
			block[i] = byte(i)
		}
		var out []compKey
		for round := 0; round < 6; round++ {
			for i, qp := range qps {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.Zone, cmd.Data = OpZoneAppend, nsid, zoneOf[i], block
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
				cmd = qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.Zone = OpRead, nsid, zoneOf[i]
				cmd.LPN, cmd.Length = 0, int64(id.BlockSize)
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
				qp.Ring(vclock.Time(round) * vclock.Time(vclock.Millisecond))
			}
			for {
				c, ok := h.ReapAny()
				if !ok {
					break
				}
				// Payload contents are covered by the zns tests; the
				// equivalence oracle here is identity of virtual timing.
				out = append(out, keyOf(c))
			}
		}
		return out
	}
	serial := run(HostConfig{})
	got := run(HostConfig{Executor: ExecutorBatched, Workers: groups})
	if len(serial) != len(got) || len(serial) == 0 {
		t.Fatalf("completions %d vs %d", len(serial), len(got))
	}
	for i := range serial {
		if serial[i] != got[i] {
			t.Fatalf("completion %d diverged:\nserial  %+v\nbatched %+v", i, serial[i], got[i])
		}
	}
}

// TestReorderRingGrows holds the first command on the only worker
// until the sequencer has run all but one of the rest itself, so more
// than minDoneSlots completions wait behind it in the reorder stage:
// the ring must grow without losing or reordering any of them. (At
// most one later command can sit in the job queue, hence n-2.) Each
// queue pair writes its own namespace, one lane per command, so no two
// commands conflict.
func TestReorderRingGrows(t *testing.T) {
	const queues, perQueue = 3, minDoneSlots/2 + 8
	const n = queues * perQueue
	run := func(cfg HostConfig) []compKey {
		h := NewHost(testController(t), cfg)
		t.Cleanup(h.Close)
		var others atomic.Int32
		rest := make(chan struct{})
		gate := func(cmd *Command) {
			if cmd.LPN != 0 {
				if others.Add(1) == n-2 {
					close(rest)
				}
				return
			}
			select {
			case <-rest:
			case <-time.After(10 * time.Second):
				t.Error("the sequencer did not run the commands queued behind the first")
			}
		}
		qps := make([]*QueuePair, queues)
		for i := range qps {
			ns := newSlowNS(perQueue, vclock.Microsecond)
			if cfg.Executor == ExecutorBatched {
				ns.executing = gate
			}
			nsid := attachNS(t, h, ns)
			qp := openQP(t, h, perQueue)
			for k := 0; k < perQueue; k++ {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.Zone, cmd.LPN = OpWrite, nsid, k, int64(i*perQueue+k)
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
			}
			qps[i] = qp
		}
		for _, qp := range qps {
			qp.Ring(0)
		}
		var out []compKey
		for {
			c, ok := h.ReapAny()
			if !ok {
				break
			}
			out = append(out, keyOf(c))
		}
		return out
	}
	serial := run(HostConfig{})
	got := run(HostConfig{Executor: ExecutorBatched, Workers: 1})
	if len(serial) != n || len(got) != n {
		t.Fatalf("completions: serial %d, batched %d, want %d", len(serial), len(got), n)
	}
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("completion %d diverged:\nserial  %+v\nbatched %+v", i, serial[i], got[i])
		}
	}
}

// TestNewHostRefusesEngineBehindHostLink pins the configuration NewHost
// rejects besides an unknown executor: the engine on a host that
// charges the host link, where every data command would run inline.
func TestNewHostRefusesEngineBehindHostLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHost accepted ExecutorBatched with ChargeHostLink")
		}
	}()
	NewHost(testController(t), HostConfig{ChargeHostLink: true, Executor: ExecutorBatched})
}
