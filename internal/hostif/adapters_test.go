package hostif

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/lightlsm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/oxeleos"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// attachNS attaches ns through the admin queue — the only way in.
func attachNS(t testing.TB, h *Host, ns Namespace) int {
	t.Helper()
	nsid, err := h.Admin().AttachNamespace(0, ns)
	if err != nil {
		t.Fatal(err)
	}
	return nsid
}

// openQP creates a medium-class I/O queue pair through the admin queue.
func openQP(t testing.TB, h *Host, depth int) *QueuePair {
	t.Helper()
	qp, err := h.Admin().CreateIOQueuePair(0, depth, ClassMedium)
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

// testController builds a small simulated device + controller.
func testController(t testing.TB) *ox.Controller {
	t.Helper()
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 16,
		PagesPerBlock:  12,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups:       2,
		PUsPerGroup:  2,
		ChunksPerPU:  16,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      8,
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
	return ctrl
}

// TestBlockNamespaceMatchesDirect is the zero-overhead proof behind the
// driver migration: the same OX-Block op sequence issued directly and
// through a queue pair yields bit-identical completion times and data.
func TestBlockNamespaceMatchesDirect(t *testing.T) {
	const pages = 512
	run := func(viaQP bool) ([]vclock.Time, [][]byte) {
		ctrl := testController(t)
		d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: pages}, 0)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 8*4096)
		for i := range data {
			data[i] = byte(i)
		}
		var times []vclock.Time
		var reads [][]byte
		if !viaQP {
			for i := 0; i < 6; i++ {
				now, err = d.Write(now, int64(i*16), data)
				if err != nil {
					t.Fatal(err)
				}
				times = append(times, now)
			}
			got, end, err := d.Read(now, 16, 8)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, end)
			reads = append(reads, got)
			end, err = d.Trim(end, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, end)
			return times, reads
		}
		host := NewHost(ctrl, HostConfig{})
		nsid := attachNS(t, host, NewBlockNamespace(d))
		qp := openQP(t, host, 1)
		do := func(cmd *Command, at vclock.Time) Completion {
			t.Helper()
			if err := qp.Push(at, cmd); err != nil {
				t.Fatal(err)
			}
			c := qp.MustReap()
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			return c
		}
		for i := 0; i < 6; i++ {
			c := do(&Command{Op: OpWrite, NSID: nsid, LPN: int64(i * 16), Data: data}, now)
			now = c.Done
			times = append(times, now)
		}
		c := do(&Command{Op: OpRead, NSID: nsid, LPN: 16, Pages: 8}, now)
		times = append(times, c.Done)
		reads = append(reads, bytes.Clone(c.Data)) // lent until the next reap
		c = do(&Command{Op: OpTrim, NSID: nsid, LPN: 0, Pages: 16}, c.Done)
		times = append(times, c.Done)
		return times, reads
	}
	dt, dr := run(false)
	qt, qr := run(true)
	if len(dt) != len(qt) {
		t.Fatalf("op counts differ: %d vs %d", len(dt), len(qt))
	}
	for i := range dt {
		if dt[i] != qt[i] {
			t.Fatalf("op %d: direct %v vs queue-pair %v", i, dt[i], qt[i])
		}
	}
	if !bytes.Equal(dr[0], qr[0]) {
		t.Fatal("read data differs between direct and queue-pair paths")
	}
}

func TestBlockPartitionIsolation(t *testing.T) {
	ctrl := testController(t)
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, HostConfig{})
	nsA, err := NewBlockPartition(d, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	nsB, err := NewBlockPartition(d, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := attachNS(t, host, nsA)
	b := attachNS(t, host, nsB)
	qp := openQP(t, host, 1)

	data := make([]byte, 4096)
	for i := range data {
		data[i] = 0x5A
	}
	if err := qp.Push(now, &Command{Op: OpWrite, NSID: b, LPN: 3, Data: data}); err != nil {
		t.Fatal(err)
	}
	wc := qp.MustReap()
	if wc.Err != nil {
		t.Fatal(wc.Err)
	}
	// Namespace A still reads zeros at LPN 3; namespace B sees the data.
	if err := qp.Push(wc.Done, &Command{Op: OpRead, NSID: a, LPN: 3, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	ra := qp.MustReap()
	if ra.Err != nil || ra.Data[0] != 0 {
		t.Fatalf("partition A leaked partition B's write: %v %x", ra.Err, ra.Data[0])
	}
	if err := qp.Push(ra.Done, &Command{Op: OpRead, NSID: b, LPN: 3, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	rb := qp.MustReap()
	if rb.Err != nil || rb.Data[0] != 0x5A {
		t.Fatalf("partition B lost its write: %v %x", rb.Err, rb.Data[0])
	}
	// Out-of-range commands are rejected inside the partition bounds.
	if err := qp.Push(rb.Done, &Command{Op: OpRead, NSID: a, LPN: 120, Pages: 16}); err != nil {
		t.Fatal(err)
	}
	if oob := qp.MustReap(); !errors.Is(oob.Err, oxblock.ErrRange) {
		t.Fatalf("cross-partition read: %v, want ErrRange", oob.Err)
	}
}

func TestZoneNamespaceOps(t *testing.T) {
	ctrl := testController(t)
	tgt, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, HostConfig{})
	nsid := attachNS(t, host, NewZoneNamespace(tgt))
	qp := openQP(t, host, 2)

	block := make([]byte, tgt.BlockSize())
	for i := range block {
		block[i] = 0xCD
	}
	for i := 0; i < 2; i++ {
		if _, err := qp.Submit(&Command{Op: OpZoneAppend, NSID: nsid, Zone: 1, Data: block}); err != nil {
			t.Fatal(err)
		}
	}
	qp.Ring(0)
	a1, a2 := qp.MustReap(), qp.MustReap()
	if a1.Err != nil || a2.Err != nil {
		t.Fatal(a1.Err, a2.Err)
	}
	if a1.Offset != 0 || a2.Offset != int64(tgt.BlockSize()) {
		t.Fatalf("append offsets %d/%d", a1.Offset, a2.Offset)
	}
	if err := qp.Push(a2.Done, &Command{
		Op: OpRead, NSID: nsid, Zone: 1, LPN: 0, Length: int64(tgt.BlockSize()),
	}); err != nil {
		t.Fatal(err)
	}
	rc := qp.MustReap()
	if rc.Err != nil || rc.Data[0] != 0xCD {
		t.Fatalf("zone read: %v", rc.Err)
	}
	// A length no zone holds (over a fabric, any client can send one) is
	// refused before it sizes a read buffer.
	if err := qp.Push(rc.Done, &Command{Op: OpRead, NSID: nsid, Zone: 1, Length: 1 << 50}); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); !errors.Is(c.Err, zns.ErrUnwritten) || c.Data != nil {
		t.Fatalf("oversized zone read: %v, want ErrUnwritten", c.Err)
	}
	if err := qp.Push(rc.Done, &Command{Op: OpZoneReset, NSID: nsid, Zone: 1}); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); c.Err != nil {
		t.Fatal(c.Err)
	}
	zi, err := tgt.Zone(1)
	if err != nil || zi.WP != 0 {
		t.Fatalf("zone not reset: %+v %v", zi, err)
	}
	// Unsupported op on this namespace.
	if err := qp.Push(0, &Command{Op: OpTableCreate, NSID: nsid}); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); !errors.Is(c.Err, ErrUnsupported) {
		t.Fatalf("table-create on zns: %v, want ErrUnsupported", c.Err)
	}
}

func TestEleosNamespaceOps(t *testing.T) {
	ctrl := testController(t)
	store, err := oxeleos.New(ctrl, oxeleos.Config{BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, HostConfig{})
	nsid := attachNS(t, host, NewEleosNamespace(store))
	qp := openQP(t, host, 1)

	buf := make([]byte, 64*1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	descs := []PageDesc{{ID: 7, Offset: 100, Length: 5000}}
	if err := qp.Push(0, &Command{Op: OpFlush, NSID: nsid, Data: buf, Descs: descs}); err != nil {
		t.Fatal(err)
	}
	fc := qp.MustReap()
	if fc.Err != nil {
		t.Fatal(fc.Err)
	}
	if err := qp.Push(fc.Done, &Command{Op: OpRead, NSID: nsid, LPN: 7}); err != nil {
		t.Fatal(err)
	}
	rc := qp.MustReap()
	if rc.Err != nil {
		t.Fatal(rc.Err)
	}
	if len(rc.Data) != 5000 || !bytes.Equal(rc.Data, buf[100:5100]) {
		t.Fatalf("page read returned %d bytes", len(rc.Data))
	}
	if err := qp.Push(rc.Done, &Command{Op: OpTrim, NSID: nsid, LPN: 7}); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); c.Err != nil {
		t.Fatal(c.Err)
	}
	if err := qp.Push(0, &Command{Op: OpRead, NSID: nsid, LPN: 7}); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); !errors.Is(c.Err, oxeleos.ErrNotFound) {
		t.Fatalf("read after delete: %v, want ErrNotFound", c.Err)
	}
}

// TestEnvClientMatchesDirect proves the mini-RocksDB sees identical
// timing whether it calls LightLSM directly or through queue pairs —
// the property that keeps the Figure 5/6 tables bit-identical.
func TestEnvClientMatchesDirect(t *testing.T) {
	type step struct {
		end vclock.Time
	}
	run := func(viaQP bool) []step {
		ctrl := testController(t)
		env, err := lightlsm.New(ctrl, lightlsm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		block := make([]byte, env.BlockSize())
		if !viaQP {
			w, err := env.CreateTable(0)
			if err != nil {
				t.Fatal(err)
			}
			now := vclock.Time(0)
			for i := 0; i < 4; i++ {
				if now, err = w.Append(now, block); err != nil {
					t.Fatal(err)
				}
				steps = append(steps, step{end: now})
			}
			h, end, err := w.Commit(now)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{end: end})
			dst := make([]byte, env.BlockSize())
			if end, err = env.ReadBlock(end, h, 2, dst); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{end: end})
			if end, err = env.DeleteTable(end, h); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{end: end})
			return steps
		}
		host := NewHost(ctrl, HostConfig{})
		cli, err := AttachLSM(host, env)
		if err != nil {
			t.Fatal(err)
		}
		w, err := cli.CreateTable(0)
		if err != nil {
			t.Fatal(err)
		}
		now := vclock.Time(0)
		for i := 0; i < 4; i++ {
			if now, err = w.Append(now, block); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{end: now})
		}
		h, end, err := w.Commit(now)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{end: end})
		dst := make([]byte, cli.BlockSize())
		if end, err = cli.ReadBlock(end, h, 2, dst); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{end: end})
		if end, err = cli.DeleteTable(end, h); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{end: end})
		return steps
	}
	direct := run(false)
	viaQP := run(true)
	if len(direct) != len(viaQP) {
		t.Fatalf("step counts differ: %d vs %d", len(direct), len(viaQP))
	}
	for i := range direct {
		if direct[i].end != viaQP[i].end {
			t.Fatalf("step %d: direct %v vs queue-pair %v", i, direct[i].end, viaQP[i].end)
		}
	}
}

func TestHostLinkCharging(t *testing.T) {
	ctrl := testController(t)
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, HostConfig{ChargeHostLink: true})
	nsid := attachNS(t, host, NewBlockNamespace(d))
	qp := openQP(t, host, 1)
	before := ctrl.Stats()
	data := make([]byte, 4*4096)
	if err := qp.Push(now, &Command{Op: OpWrite, NSID: nsid, LPN: 0, Data: data}); err != nil {
		t.Fatal(err)
	}
	wc := qp.MustReap()
	if wc.Err != nil {
		t.Fatal(wc.Err)
	}
	if err := qp.Push(wc.Done, &Command{Op: OpRead, NSID: nsid, LPN: 0, Pages: 4}); err != nil {
		t.Fatal(err)
	}
	rc := qp.MustReap()
	if rc.Err != nil {
		t.Fatal(rc.Err)
	}
	after := ctrl.Stats()
	if got := after.BytesHost - before.BytesHost; got != 2*int64(len(data)) {
		t.Fatalf("host link carried %d bytes, want %d (write in + read out)", got, 2*len(data))
	}
	if after.HostTransfers-before.HostTransfers != 2 {
		t.Fatalf("host transfers %d, want 2", after.HostTransfers-before.HostTransfers)
	}
}
