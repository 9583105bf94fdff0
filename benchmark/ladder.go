package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"time"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// The ladder drives three canonical operations directly at the public
// API of each boundary of the stack, with nothing above it, so that the
// difference between two consecutive rungs is what the upper one adds:
//
//	write4k, read4k   4 KB random write and read, the OX-Block path
//	append96k         one unit of write appended, the OX-ZNS path
//
// A rung does the least its API allows for the operation: one page
// program on a chip (a 4 KB payload still costs a whole 16 KB page), one
// ws_min vector write on the device, one Write on the FTL. The ox rung
// adds the controller accounting calls of one operation to the device
// call. From hostif_serial up a rung is one command, submitted and
// reaped, on one queue pair.
var (
	ladderOps   = []string{"write4k", "read4k", "append96k"}
	ladderRungs = []string{"nand", "ocssd", "ox", "ftl", "hostif_serial", "hostif_engine", "fabrics_loopback", "fabrics_tcp"}
)

const (
	ladderPages   = 4096 // the namespace reads and writes draw from
	ladderBatches = 5    // ns_per_op is the median of this many batches
)

// ladderRig is one rung: the three operations and what releases it.
type ladderRig struct {
	ops   [3]func(i int) error // indexed like ladderOps; i indexes the seeded sequence
	close func()
}

// runLadder measures every rung with n operations of each kind, drawn
// from one sequence seeded by seed, and returns the ladder metrics.
func runLadder(seed int64, n int) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = rng.Int63n(ladderPages)
	}
	out := make(map[string]float64)
	for _, rung := range ladderRungs {
		rig, err := newLadderRig(rung, seq)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", rung, err)
		}
		for o, op := range ladderOps {
			ns, allocs, err := timeOp(rig.ops[o], n)
			if err != nil {
				rig.close()
				return nil, fmt.Errorf("ladder %s %s: %w", rung, op, err)
			}
			out["ladder."+op+"."+rung+".ns_per_op"] = ns
			out["ladder."+op+"."+rung+".allocs_per_op"] = allocs
		}
		rig.close()
	}
	return out, nil
}

// timeOp runs op n times in batches and returns the median batch's
// ns per operation and the mean allocations per operation.
func timeOp(op func(i int) error, n int) (nsPerOp, allocsPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	per := n / ladderBatches
	var batches []float64
	for b := 0; b < ladderBatches; b++ {
		t0 := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			if err := op(i); err != nil {
				return 0, 0, err
			}
		}
		batches = append(batches, float64(time.Since(t0))/float64(per))
	}
	runtime.ReadMemStats(&m1)
	return median(batches), float64(m1.Mallocs-m0.Mallocs) / float64(per*ladderBatches), nil
}

// ladderPayload is a non-zero 96 KB payload; its head is a 4 KB page.
func ladderPayload() []byte {
	p := make([]byte, 96<<10)
	rand.New(rand.NewSource(rigSeed)).Read(p)
	return p
}

func newLadderRig(rung string, seq []int64) (*ladderRig, error) {
	switch rung {
	case "nand":
		return ladderNAND(seq)
	case "ocssd", "ox":
		return ladderDevice(rung == "ox", seq)
	case "ftl":
		return ladderFTL(seq)
	default:
		return ladderQueue(rung, seq)
	}
}

// ladderNAND drives one chip. Blocks are erased and reused when full, so
// the erase is amortised into the writes as a reset is further up.
func ladderNAND(seq []int64) (*ladderRig, error) {
	geo := geometry(1, 1, 32, 48, 0).Chip
	chip, err := nand.New(geo, nand.DefaultTiming(geo.Cell), nand.Reliability{}, rigSeed)
	if err != nil {
		return nil, err
	}
	payload := ladderPayload()
	page := make([]byte, geo.PageBytes())
	copy(page, payload[:pageBytes])
	// Block 0 of plane 0 holds the pages read4k reads; write4k fills
	// block 1 of plane 0 and append96k block 3 of both planes.
	for pg := 0; pg < geo.PagesPerBlock; pg++ {
		if err := chip.Program(0, 0, pg, page, nil); err != nil {
			return nil, err
		}
	}
	program := func(plane, blk int, cursor *int, data []byte) error {
		if *cursor == geo.PagesPerBlock {
			if err := chip.Erase(plane, blk); err != nil {
				return err
			}
			*cursor = 0
		}
		err := chip.Program(plane, blk, *cursor, data, nil)
		*cursor++
		return err
	}
	var wCur int
	var aCur [2]int
	return &ladderRig{close: func() {}, ops: [3]func(int) error{
		func(i int) error { return program(0, 1, &wCur, page) },
		func(i int) error {
			_, _, err := chip.Read(0, 0, int(seq[i])%geo.PagesPerBlock)
			return err
		},
		func(i int) error {
			// One 96 KB stripe: three paired pages on each plane.
			for off := 0; off < len(payload); off += geo.PageBytes() {
				plane := off / geo.PageBytes() % geo.Planes
				if err := program(plane, 3, &aCur[plane], payload[off:off+geo.PageBytes()]); err != nil {
					return err
				}
			}
			return nil
		},
	}}, nil
}

// ladderDevice drives the ocssd.Device, and with accounting also the
// controller calls one operation makes around it. The OX-Block path
// runs on a device with a write-back cache and the OX-ZNS path on one
// without, as they do under their FTLs.
func ladderDevice(accounting bool, seq []int64) (*ladderRig, error) {
	dev, ctrl, err := newController(geometry(8, 4, 16, 48, 32), nil)
	if err != nil {
		return nil, err
	}
	zdev, zctrl, err := newController(geometry(4, 1, 2, 48, 0), nil)
	if err != nil {
		return nil, err
	}
	geo := dev.Geometry()
	payload := ladderPayload()
	unit := make([]byte, geo.WSMin*pageBytes) // a 4 KB page padded to ws_min, as OX-Block pads it
	copy(unit, payload[:pageBytes])
	var now vclock.Time
	// Chunk 0 of every PU of group 0 holds the sectors read4k reads.
	readChunks := make([]ocssd.ChunkID, geo.PUsPerGroup)
	for u := range readChunks {
		readChunks[u] = ocssd.ChunkID{Group: 0, PU: u, Chunk: 0}
		for s := 0; s < geo.SectorsPerChunk(); s += geo.WSOpt {
			if _, now, err = dev.Append(now, readChunks[u], payload); err != nil {
				return nil, err
			}
		}
	}
	// A writer fills its chunk, then resets it and starts over.
	writer := func(dev *ocssd.Device, id ocssd.ChunkID, data []byte) func() error {
		room := geo.ChunkBytes()
		var now vclock.Time
		return func() (err error) {
			if room == 0 {
				if now, err = dev.Reset(now, id); err != nil {
					return err
				}
				room = geo.ChunkBytes()
			}
			room -= int64(len(data))
			_, now, err = dev.Append(now, id, data)
			return err
		}
	}
	write := writer(dev, ocssd.ChunkID{Group: 1, PU: 0, Chunk: 0}, unit)
	appendUnit := writer(zdev, ocssd.ChunkID{Group: 1, PU: 0, Chunk: 0}, payload)
	dst := make([]byte, pageBytes)
	ppa := make([]ocssd.PPA, 1)
	return &ladderRig{close: func() {}, ops: [3]func(int) error{
		func(i int) error {
			if accounting {
				ctrl.NoteUserIO()
				now = ctrl.CPUWork(now, vclock.Microsecond)
			}
			return write()
		},
		func(i int) error {
			if accounting {
				ctrl.NoteUserIO()
				now = ctrl.CPUWork(now, vclock.Microsecond)
			}
			lpn := int(seq[i])
			ppa[0] = readChunks[lpn%len(readChunks)].PPAOf(lpn / len(readChunks) % geo.SectorsPerChunk())
			var err error
			now, err = dev.VectorRead(now, ppa, dst)
			return err
		},
		func(i int) error {
			if accounting {
				zctrl.NoteUserIO()
			}
			return appendUnit()
		},
	}}, nil
}

// ladderBlockFTL builds the OX-Block device of the rungs from ftl up: a
// small one, prefilled and overwritten until it has wrapped once, so that a rung measures the steady state (flash pages
// reused, the collector running) and not first-touch page faults.
func ladderBlockFTL() (*oxblock.Device, vclock.Time, error) {
	dev, ctrl, err := newController(geometry(8, 4, 4, 48, 32), nil)
	if err != nil {
		return nil, 0, err
	}
	blk, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: ladderPages, CheckpointInterval: vclock.Second}, 0)
	if err != nil {
		return nil, 0, err
	}
	payload := ladderPayload()
	for lpn := int64(0); lpn < ladderPages; lpn += 16 {
		if now, err = blk.Write(now, lpn, payload[:16*pageBytes]); err != nil {
			return nil, 0, err
		}
	}
	// A 4 KB write takes 28 sectors of flash (the data unit, the WAL unit
	// and the padding of the WAL's stripe).
	wrap := dev.Geometry().TotalBytes() / (28 * pageBytes)
	for i := int64(0); i < wrap; i++ {
		if now, err = blk.Write(now, i%ladderPages, payload[:pageBytes]); err != nil {
			return nil, 0, err
		}
	}
	return blk, now, nil
}

// ladderZoneFTL builds the OX-ZNS target of the append96k rungs: four
// zones on a cache-less device, filled in turn and reset when full.
func ladderZoneFTL() (*zns.Target, error) {
	_, ctrl, err := newController(geometry(4, 1, 2, 48, 0), nil)
	if err != nil {
		return nil, err
	}
	return zns.New(ctrl, zns.Config{})
}

// zoneCursor walks the zones of a target: the zone to append to next,
// and whether it must be reset first.
type zoneCursor struct {
	zones, perZone, zone, filled int
}

func newZoneCursor(tgt *zns.Target) *zoneCursor {
	return &zoneCursor{zones: tgt.Zones(), perZone: int(tgt.ZoneCapacity()) / tgt.BlockSize()}
}

func (c *zoneCursor) next() (zone int, reset bool) {
	if c.filled == c.perZone {
		c.zone, c.filled = (c.zone+1)%c.zones, 0
		reset = true
	}
	c.filled++
	return c.zone, reset
}

func ladderFTL(seq []int64) (*ladderRig, error) {
	blk, now, err := ladderBlockFTL()
	if err != nil {
		return nil, err
	}
	tgt, err := ladderZoneFTL()
	if err != nil {
		return nil, err
	}
	payload := ladderPayload()
	cur := newZoneCursor(tgt)
	var znow vclock.Time
	return &ladderRig{close: func() {}, ops: [3]func(int) error{
		func(i int) error {
			var err error
			now, err = blk.Write(now, seq[i], payload[:pageBytes])
			return err
		},
		func(i int) error {
			var err error
			_, now, err = blk.Read(now, seq[i], 1)
			return err
		},
		func(i int) error {
			zone, reset := cur.next()
			var err error
			if reset {
				if znow, err = tgt.Reset(znow, zone); err != nil {
					return err
				}
			}
			_, znow, err = tgt.Append(znow, zone, payload)
			return err
		},
	}}, nil
}

// syncQueue is one command at a time on either kind of queue pair.
type syncQueue interface {
	AcquireCommand() *hostif.Command
	Push(now vclock.Time, cmd *hostif.Command) error
	MustReap() hostif.Completion
}

// ladderQueue builds the rungs that submit commands: a serial host, the
// batched engine, the loopback fabric and a real TCP socket. The host
// link is not charged on any of them, so consecutive rungs differ only
// in how the command travels.
func ladderQueue(rung string, seq []int64) (*ladderRig, error) {
	cfg := hostif.HostConfig{}
	if rung == "hostif_engine" {
		cfg.Executor = hostif.ExecutorBatched
	}
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	// open serves ns on a host of its own and returns a depth-1 queue
	// pair to it, in process or across the rung's transport.
	open := func(ctrl *ox.Controller, ns hostif.Namespace, now vclock.Time) (syncQueue, error) {
		host := hostif.NewHost(ctrl, cfg)
		closers = append(closers, func() { closeHost(host) })
		admin := host.Admin()
		if _, err := admin.AttachNamespace(now, ns); err != nil {
			return nil, err
		}
		if strings.HasPrefix(rung, "hostif_") {
			return admin.CreateIOQueuePair(now, 1, hostif.ClassMedium)
		}
		srv := fabrics.NewServer(host)
		cli := fabrics.Loopback(srv)
		if rung == "fabrics_tcp" {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(l) }()
			closers = append(closers, func() { srv.Close(); <-served })
			cli = fabrics.Dial(l.Addr().String())
		} else {
			closers = append(closers, srv.Close)
		}
		qp, err := cli.QueuePair(now, 1, hostif.ClassMedium, 1)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { qp.Close() })
		return qp, nil
	}
	blk, bnow, err := ladderBlockFTL()
	if err != nil {
		return nil, err
	}
	tgt, err := ladderZoneFTL()
	if err != nil {
		return nil, err
	}
	bq, err := open(blk.Controller(), hostif.NewBlockNamespace(blk), bnow)
	if err != nil {
		closeAll()
		return nil, err
	}
	zq, err := open(tgt.Controller(), hostif.NewZoneNamespace(tgt), 0)
	if err != nil {
		closeAll()
		return nil, err
	}
	// do pushes the command fill describes and reaps its completion.
	do := func(q syncQueue, now *vclock.Time, fill func(*hostif.Command)) error {
		cmd := q.AcquireCommand()
		fill(cmd)
		if err := q.Push(*now, cmd); err != nil {
			return err
		}
		comp := q.MustReap()
		*now = comp.Done
		return comp.Err
	}
	payload := ladderPayload()
	cur := newZoneCursor(tgt)
	var znow vclock.Time
	return &ladderRig{close: closeAll, ops: [3]func(int) error{
		func(i int) error {
			return do(bq, &bnow, func(c *hostif.Command) { c.Op, c.LPN, c.Data = hostif.OpWrite, seq[i], payload[:pageBytes] })
		},
		func(i int) error {
			return do(bq, &bnow, func(c *hostif.Command) { c.Op, c.LPN, c.Pages = hostif.OpRead, seq[i], 1 })
		},
		func(i int) error {
			zone, reset := cur.next()
			if reset {
				if err := do(zq, &znow, func(c *hostif.Command) { c.Op, c.Zone = hostif.OpZoneReset, zone }); err != nil {
					return err
				}
			}
			return do(zq, &znow, func(c *hostif.Command) { c.Op, c.Zone, c.Data = hostif.OpZoneAppend, zone, payload })
		},
	}}, nil
}
