package hostif

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// lendRig attaches an OX-Block namespace whose pages 0..15 each hold
// their own index, over a device with inj's faults (nil = none).
func lendRig(t *testing.T, cfg HostConfig, inj *fault.Injector) (*Host, int, vclock.Time) {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 2, PUsPerGroup: 2, ChunksPerPU: 16, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 8, MaxOpenPerPU: 64,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = d.Write(now, 0, pageRun(0, 16)); err != nil {
		t.Fatal(err)
	}
	h := NewHost(ctrl, cfg)
	t.Cleanup(h.Close)
	return h, attachNS(t, h, NewBlockNamespace(d)), now
}

// pageRun is pages [lpn, lpn+n), each filled with its own index.
func pageRun(lpn, n int) []byte {
	var b []byte
	for i := lpn; i < lpn+n; i++ {
		b = append(b, bytes.Repeat([]byte{byte(i)}, 4096)...)
	}
	return b
}

// lentTo reports whether b is the buffer qp lends now.
func lentTo(qp *QueuePair, b []byte) bool {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return len(qp.lent) > 0 && &qp.lent[0] == &b[0]
}

// pooled reports whether b is on the host's free list.
func pooled(h *Host, b []byte) bool {
	h.reads.mu.Lock()
	defer h.reads.mu.Unlock()
	for _, l := range h.reads.free {
		for _, x := range l {
			if &x[:1][0] == &b[0] {
				return true
			}
		}
	}
	return false
}

// reapers are the three ways a driver takes a completion of qp.
var reapers = []struct {
	name string
	reap func(h *Host, qp *QueuePair) Completion
}{
	{"Reap", func(h *Host, qp *QueuePair) Completion {
		c, ok := qp.Reap()
		if !ok {
			panic("empty completion queue")
		}
		return c
	}},
	{"MustReap", func(h *Host, qp *QueuePair) Completion { return qp.MustReap() }},
	{"ReapAny", func(h *Host, qp *QueuePair) Completion {
		c, ok := h.ReapAny()
		if !ok || c.QueueID != qp.ID() {
			panic(fmt.Sprintf("ReapAny returned queue %d (ok %v), want %d", c.QueueID, ok, qp.ID()))
		}
		return c
	}},
}

// executors are the two host configurations the lending tests run
// under.
var executors = []struct {
	name string
	cfg  HostConfig
}{
	{"serial", HostConfig{}},
	{"batched", HostConfig{Executor: ExecutorBatched, Workers: 2}},
}

// TestReadDataLentUntilNextReap pins the lending contract under both
// executors and all three reap paths: a read's Data survives reads on
// its own and other queue pairs until its pair's next reap, which
// returns the buffer to the host's pool; a driver-owned command comes
// back as submitted; a failed read completes with nil Data and gives
// its buffer back; deleting the pair and closing the host end a loan.
func TestReadDataLentUntilNextReap(t *testing.T) {
	for _, ex := range executors {
		for _, r := range reapers {
			t.Run(ex.name+"/"+r.name, func(t *testing.T) {
				h, nsid, now := lendRig(t, ex.cfg, nil)
				a, b := openQP(t, h, 1), openQP(t, h, 1)
				read := func(qp *QueuePair, lpn int64) Completion {
					t.Helper()
					cmd := qp.AcquireCommand()
					cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = OpRead, nsid, lpn, 1
					if err := qp.Push(now, cmd); err != nil {
						t.Fatal(err)
					}
					c := r.reap(h, qp)
					if c.Err != nil || !bytes.Equal(c.Data, pageRun(int(lpn), 1)) {
						t.Fatalf("read of page %d: %v", lpn, c.Err)
					}
					return c
				}

				// A driver-owned command: the host must hand it back as it
				// was submitted, with no pooled buffer left in it.
				cmd := &Command{Op: OpRead, NSID: nsid, LPN: 1, Pages: 1}
				before := *cmd
				if err := a.Push(now, cmd); err != nil {
					t.Fatal(err)
				}
				c1 := r.reap(h, a)
				if !reflect.DeepEqual(*cmd, before) {
					t.Fatalf("driver-owned command changed: %+v, submitted %+v", *cmd, before)
				}
				d1 := c1.Data
				if !bytes.Equal(d1, pageRun(1, 1)) {
					t.Fatal("first read returned the wrong page")
				}

				// Reads on another pair, and one on a's own pair that
				// executes but is not reaped, leave d1 alone.
				read(b, 2)
				read(b, 3)
				arena := a.AcquireCommand()
				arena.Op, arena.NSID, arena.LPN, arena.Pages = OpRead, nsid, 4, 1
				if err := a.Push(now, arena); err != nil {
					t.Fatal(err)
				}
				h.Drain()
				if !bytes.Equal(d1, pageRun(1, 1)) {
					t.Fatal("lent Data changed before its pair's next reap")
				}

				// a's next reap ends the loan: the buffer is the next one
				// the pool lends.
				if c := r.reap(h, a); !bytes.Equal(c.Data, pageRun(4, 1)) {
					t.Fatal("second read on a returned the wrong page")
				}
				if !pooled(h, d1) {
					t.Fatal("a's next reap did not return the first buffer")
				}
				if c := read(b, 5); &c.Data[0] != &d1[0] {
					t.Fatal("the next read did not reuse the returned buffer")
				}

				// Deleting a pair ends its loan.
				lent := read(a, 6).Data
				if err := h.Admin().DeleteIOQueuePair(now, a); err != nil {
					t.Fatal(err)
				}
				if lentTo(a, lent) || !pooled(h, lent) {
					t.Fatal("deleting the pair kept its buffer lent")
				}

				// Closing the host ends every loan.
				lent = read(b, 7).Data
				h.Close()
				if lentTo(b, lent) || !pooled(h, lent) {
					t.Fatal("closing the host kept a buffer lent")
				}
			})
			t.Run(ex.name+"/"+r.name+"/failed", func(t *testing.T) { failedReadsReturnTheirBuffers(t, ex.cfg, r.reap) })
		}
	}
}

// failedReadsReturnTheirBuffers reads through a fault injector that
// fails about half the reads: each failure completes with nil Data and
// gives its buffer straight back, so a depth-1 pair never uses more
// than two buffers (one lent, one being read into).
func failedReadsReturnTheirBuffers(t *testing.T, cfg HostConfig, reap func(*Host, *QueuePair) Completion) {
	inj := fault.New(fault.Config{Seed: 5, ReadErrorRate: 0.5})
	h, nsid, now := lendRig(t, cfg, inj)
	qp := openQP(t, h, 1)
	seen := map[*byte]bool{}
	failed := 0
	for i := 0; i < 64; i++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = OpRead, nsid, int64(i%16), 1
		if err := qp.Push(now, cmd); err != nil {
			t.Fatal(err)
		}
		c := reap(h, qp)
		if c.Err != nil {
			if c.Status != StatusMediaRead || c.Data != nil {
				t.Fatalf("read %d failed with status %v and %d bytes of Data", i, c.Status, len(c.Data))
			}
			failed++
			continue
		}
		if !bytes.Equal(c.Data, pageRun(i%16, 1)) {
			t.Fatalf("read %d returned the wrong page", i)
		}
		seen[&c.Data[0]] = true
	}
	if failed == 0 || failed == 64 {
		t.Fatalf("%d of 64 reads failed: the test needs both kinds", failed)
	}
	if len(seen) > 2 {
		t.Fatalf("a depth-1 pair read into %d buffers: failed reads leak theirs", len(seen))
	}
}

// TestConcurrentZoneReadsLend reads zones on eight groups at once under
// the engine, so workers take buffers from the one pool concurrently.
// Every completion carries its own group's stamp, and every pair's lent
// Data keeps its stamp while the other pairs' completions are reaped.
func TestConcurrentZoneReadsLend(t *testing.T) {
	const groups = 8
	h, nsid, report := znsHost(t, HostConfig{Executor: ExecutorBatched, Workers: 4}, groups)
	id, err := h.Admin().IdentifyNamespace(0, nsid)
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := make([]int, groups)
	for i := len(report) - 1; i >= 0; i-- {
		zoneOf[report[i].Group] = report[i].Index
	}
	stamp := func(g, blk int) []byte {
		b := make([]byte, id.BlockSize)
		binary.LittleEndian.PutUint64(b, uint64(g<<8|blk))
		return b
	}
	qps := make([]*QueuePair, groups)
	first := 0
	for g := range qps {
		qps[g] = openQP(t, h, 3)
		if g == 0 {
			first = qps[g].ID()
		}
		for blk := 0; blk < 2; blk++ {
			if err := qps[g].Push(0, &Command{Op: OpZoneAppend, NSID: nsid, Zone: zoneOf[g], Data: stamp(g, blk)}); err != nil {
				t.Fatal(err)
			}
			if c := qps[g].MustReap(); c.Err != nil {
				t.Fatal(c.Err)
			}
		}
	}
	holds := func(g int, data []byte) bool {
		return len(data) == 2*id.BlockSize &&
			bytes.Equal(data[:id.BlockSize], stamp(g, 0)) && bytes.Equal(data[id.BlockSize:], stamp(g, 1))
	}
	lent := make([][]byte, groups)
	for round := 0; round < 20; round++ {
		for g, qp := range qps {
			for k := 0; k < 3; k++ {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.Zone, cmd.Length = OpRead, nsid, zoneOf[g], int64(2*id.BlockSize)
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
			}
			qp.Ring(vclock.Time(round) * vclock.Time(vclock.Millisecond))
		}
		for n := 0; n < 3*groups; n++ {
			c, ok := h.ReapAny()
			if !ok {
				t.Fatalf("round %d: %d completions, want %d", round, n, 3*groups)
			}
			g := c.QueueID - first
			if c.Err != nil || !holds(g, c.Data) {
				t.Fatalf("round %d: group %d read %v or another group's bytes", round, g, c.Err)
			}
			lent[g] = c.Data
			for o, d := range lent {
				if d != nil && !holds(o, d) {
					t.Fatalf("round %d: group %d's lent Data changed before its next reap", round, o)
				}
			}
		}
	}
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.Overlapped == 0 {
		t.Fatalf("no zone reads overlapped: %+v", log)
	}
}

// TestBlockReadAllocatesNothing drives 4 KB and 32 KB block reads
// through an in-process queue pair: at steady state the destination is
// a pooled buffer and the read allocates nothing.
func TestBlockReadAllocatesNothing(t *testing.T) {
	h, nsid, now := lendRig(t, HostConfig{}, nil)
	qp := openQP(t, h, 1)
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		i++
		lpn, pages := int64(i%16), 1
		if i%3 == 0 {
			lpn, pages = 8, 8
		}
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = OpRead, nsid, lpn, pages
		if err := qp.Push(now, cmd); err != nil {
			t.Fatal(err)
		}
		c := qp.MustReap()
		if c.Err != nil || len(c.Data) != pages*4096 || c.Data[0] != byte(lpn) {
			t.Fatalf("read %d: %v", i, c.Err)
		}
		now = c.Done
	})
	if allocs != 0 {
		t.Fatalf("a block read allocates %.1f objects, want 0", allocs)
	}
}

// TestZoneReadAllocatesNothing does the same for two-block zone reads:
// neither the destination nor the target's per-block address lists
// allocate at steady state.
func TestZoneReadAllocatesNothing(t *testing.T) {
	h, nsid, report := znsHost(t, HostConfig{}, 2)
	id, err := h.Admin().IdentifyNamespace(0, nsid)
	if err != nil {
		t.Fatal(err)
	}
	qp := openQP(t, h, 1)
	zone := report[0].Index
	for blk := 0; blk < 2; blk++ {
		if err := qp.Push(0, &Command{Op: OpZoneAppend, NSID: nsid, Zone: zone, Data: bytes.Repeat([]byte{byte(blk + 1)}, id.BlockSize)}); err != nil {
			t.Fatal(err)
		}
		if c := qp.MustReap(); c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	var now vclock.Time
	allocs := testing.AllocsPerRun(300, func() {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.Zone, cmd.Length = OpRead, nsid, zone, int64(2*id.BlockSize)
		if err := qp.Push(now, cmd); err != nil {
			t.Fatal(err)
		}
		c := qp.MustReap()
		if c.Err != nil || c.Data[0] != 1 || c.Data[id.BlockSize] != 2 {
			t.Fatalf("zone read: %v", c.Err)
		}
		now = c.Done
	})
	if allocs != 0 {
		t.Fatalf("a zone read allocates %.1f objects, want 0", allocs)
	}
}
