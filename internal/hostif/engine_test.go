package hostif

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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
	if cmd.Op == OpFlush {
		return ExclusiveFootprint(ns.dom) // the barrier op
	}
	return GroupFootprint(ns.dom, cmd.Zone)
}

func (ns *slowNS) Execute(now vclock.Time, cmd *Command) Result {
	_, end := ns.lanes[cmd.Zone].Acquire(now, ns.dur)
	ns.mu.Lock()
	ns.order = append(ns.order, cmd.LPN)
	ns.mu.Unlock()
	return Result{End: end}
}

// pipelinedHost builds a host with the pipelined executor over a fresh
// test controller.
func pipelinedHost(t testing.TB, workers int) *Host {
	t.Helper()
	h := NewHost(testController(t), HostConfig{Executor: ExecutorPipelined, Workers: workers})
	t.Cleanup(h.Close)
	return h
}

// TestClosedEngineHostIsCollectable pins Close as the whole lifetime
// contract of an engine host: once closed and dropped, the host and
// everything attached to it are garbage. (NewHost used to set a
// finalizer on the host; the host sits on a cycle with its domains, Go
// never frees a cycle holding a finalizer, and every engine rig leaked
// with the device under it.)
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

// TestPipelinedMatchesSerialRandomized is the executor-equivalence
// oracle at the host level: a randomized multi-queue workload with
// mixed footprints (disjoint lanes, same-lane conflicts, exclusive
// barriers, admin interleavings) must produce completion streams that
// are bit-identical — same order, same virtual times — under both
// executors.
func TestPipelinedMatchesSerialRandomized(t *testing.T) {
	const queues, rounds, lanes = 6, 40, 4
	run := func(cfg HostConfig) []Completion {
		ctrl := testController(t)
		h := NewHost(ctrl, cfg)
		ns := newSlowNS(lanes, 9*vclock.Microsecond)
		attachNS(t, h, ns)
		qps := make([]*QueuePair, queues)
		for i := range qps {
			qps[i] = openQP(t, h, 4)
		}
		rng := rand.New(rand.NewSource(42))
		var out []Completion
		now := vclock.Time(0)
		for r := 0; r < rounds; r++ {
			// Stage a random batch on each queue, one shared doorbell
			// instant per queue.
			for qi, qp := range qps {
				batch := rng.Intn(4)
				for b := 0; b < batch; b++ {
					op := OpWrite
					if rng.Intn(8) == 0 {
						op = OpFlush // exclusive: acts as a barrier
					}
					cmd := qp.AcquireCommand()
					cmd.Op = op
					cmd.Zone = rng.Intn(lanes)
					cmd.LPN = int64(r*1000 + qi*100 + b)
					if _, err := qp.Submit(cmd); err != nil {
						t.Fatal(err)
					}
				}
				qp.Ring(now.Add(vclock.Duration(rng.Intn(50)) * vclock.Microsecond))
			}
			// Interleave control plane: an admin identify mid-stream.
			if r%7 == 3 {
				if _, err := h.Admin().Identify(now); err != nil {
					t.Fatal(err)
				}
			}
			for {
				c, ok := h.ReapAny()
				if !ok {
					break
				}
				out = append(out, c)
			}
			now = now.Add(200 * vclock.Microsecond)
		}
		return out
	}
	serial := run(HostConfig{})
	for _, workers := range []int{1, 4} {
		pipe := run(HostConfig{Executor: ExecutorPipelined, Workers: workers})
		if len(pipe) != len(serial) {
			t.Fatalf("workers=%d: %d completions vs serial %d", workers, len(pipe), len(serial))
		}
		for i := range serial {
			if keyOf(serial[i]) != keyOf(pipe[i]) {
				t.Fatalf("workers=%d: completion %d diverged:\nserial    %+v\npipelined %+v",
					workers, i, serial[i], pipe[i])
			}
		}
	}
}

// TestPipelinedOverlapsDisjointFootprints proves the engine actually
// overlaps: commands on disjoint lanes dispatched from distinct queue
// pairs report realized overlap in the executor log page, and the
// completion order still matches arbitration order.
func TestPipelinedOverlapsDisjointFootprints(t *testing.T) {
	h := pipelinedHost(t, 4)
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
	if log.Executor != ExecutorPipelined || log.Workers != 4 {
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
// pipeline.
func TestPipelinedConflictSerializesInOrder(t *testing.T) {
	h := pipelinedHost(t, 8)
	ns := newSlowNS(2, 10*vclock.Microsecond)
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
	pipe := run(HostConfig{Executor: ExecutorPipelined, Workers: 4})
	if len(serial) == 0 || len(serial) != len(pipe) {
		t.Fatalf("notifications %d vs %d", len(serial), len(pipe))
	}
	for i := range serial {
		if serial[i] != pipe[i] {
			t.Fatalf("notification %d diverged: %+v vs %+v", i, serial[i], pipe[i])
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
	pipe := run(HostConfig{Executor: ExecutorPipelined, Workers: groups})
	if len(serial) != len(pipe) || len(serial) == 0 {
		t.Fatalf("completions %d vs %d", len(serial), len(pipe))
	}
	for i := range serial {
		if serial[i] != pipe[i] {
			t.Fatalf("completion %d diverged:\nserial    %+v\npipelined %+v", i, serial[i], pipe[i])
		}
	}
}

// TestPipelinedStressRace is the 8-queue mixed-footprint stress for the
// worker pool and reorder stage, meant for -race: concurrent submitters
// drive group-scoped appends, reads, exclusive resets and admin log
// reads while reapers consume completions.
func TestPipelinedStressRace(t *testing.T) {
	const groups, rounds = 4, 30
	h, nsid, report := znsHost(t, HostConfig{Executor: ExecutorPipelined, Workers: 4}, groups)
	// Two queue pairs per group: eight concurrent submitters with
	// overlapping (same-group) and disjoint (cross-group) footprints.
	zoneOf := make([][]int, groups)
	for _, zi := range report {
		zoneOf[zi.Group] = append(zoneOf[zi.Group], zi.Index)
	}
	id, err := h.Admin().IdentifyNamespace(0, nsid)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*groups; w++ {
		qp := openQP(t, h, 2)
		wg.Add(1)
		go func(w int, qp *QueuePair) {
			defer wg.Done()
			g := w % groups
			zone := zoneOf[g][w/groups%len(zoneOf[g])]
			block := make([]byte, id.BlockSize)
			now := vclock.Time(0)
			for r := 0; r < rounds; r++ {
				cmd := qp.AcquireCommand()
				switch r % 6 {
				case 5:
					cmd.Op, cmd.NSID, cmd.Zone = OpZoneReset, nsid, zone
				case 2:
					cmd.Op, cmd.NSID, cmd.Zone = OpRead, nsid, zone
					cmd.LPN, cmd.Length = 0, int64(id.BlockSize)
				default:
					cmd.Op, cmd.NSID, cmd.Zone, cmd.Data = OpZoneAppend, nsid, zone, block
				}
				if err := qp.Push(now, cmd); err != nil {
					t.Error(err)
					return
				}
				// Reap's drain executes every visible command (waiting out
				// the pipeline), so the completion is always present even
				// when another goroutine's drain ran ours.
				c := qp.MustReap()
				if c.Err != nil {
					t.Errorf("worker %d round %d: %v", w, r, c.Err)
					return
				}
				now = c.Done
			}
		}(w, qp)
	}
	wg.Wait()
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * groups * rounds); log.Grants < want {
		t.Fatalf("grants %d, want ≥ %d (%+v)", log.Grants, want, log)
	}
}
