package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// rigSeed seeds the simulated NAND of every rig. It stays fixed: -seed
// drives only the generator (addresses, keys, mix, payload stamps), so
// two seeds load the same simulated hardware.
const rigSeed = 1

const pageBytes = 4096

// geometry is the repo's scaled testbed (dual-plane TLC, 96 KB unit of
// write, 4 KB sectors) at the given shape. Rigs are built from the
// ocssd, nand and ox constructors, not from internal/exp.
func geometry(groups, pusPerGroup, chunksPerPU, pagesPerBlock, cacheMB int) ocssd.Geometry {
	return ocssd.Finish(ocssd.Geometry{
		Groups:      groups,
		PUsPerGroup: pusPerGroup,
		ChunksPerPU: chunksPerPU,
		Chip: nand.Geometry{
			Planes:         2,
			BlocksPerPlane: chunksPerPU,
			PagesPerBlock:  pagesPerBlock,
			SectorsPerPage: 4,
			SectorSize:     pageBytes,
			OOBPerPage:     64,
			Cell:           nand.TLC,
		},
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      cacheMB,
		MaxOpenPerPU: 64,
	})
}

// newController builds the device and the OX controller over it, with
// the media wrapped when tr traces.
func newController(geo ocssd.Geometry, tr *tracer) (*ocssd.Device, *ox.Controller, error) {
	dev, err := ocssd.New(geo, ocssd.Options{Seed: rigSeed, PowerLossProtected: true})
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), tr.media(dev))
	if err != nil {
		return nil, nil, err
	}
	return dev, ctrl, nil
}

// deviceCounters reads what every rig has: the device and the
// controller over it, at virtual instant now.
func deviceCounters(dev *ocssd.Device, ctrl *ox.Controller, now vclock.Time) counters {
	geo := dev.Geometry()
	return counters{
		virtNow:           now,
		dev:               dev.Stats(),
		metaBytesPerChunk: float64(dev.MetadataBytes()) / float64(geo.TotalPUs()*geo.ChunksPerPU),
		ctrl:              ctrl.Stats(),
		// Utilisation over [0, now] times now is busy time, so that two
		// snapshots give the utilisation between them.
		coreBusy: ctrl.CoreUtilization(now) * float64(now),
	}
}

// blockQueue is the submission side both queue-pair kinds share
// (*hostif.QueuePair in process, *fabrics.QueuePair over TCP).
type blockQueue interface {
	AcquireCommand() *hostif.Command
	Submit(*hostif.Command) (uint64, error)
	Ring(now vclock.Time) int
}

// blockLoad is the seeded 4 KB random read/write mix over an OX-Block
// namespace, driven closed loop at a fixed queue depth on one queue
// pair, with its oracle: every page carries an (lpn, version) stamp, and
// every read must return the version of the last write submitted before
// it. One FIFO queue pair executes in submission order, so that version
// is known when the read is submitted.
type blockLoad struct {
	q    blockQueue
	reap func() (hostif.Completion, bool) // the earliest completion
	tr   *tracer

	rng      *rand.Rand
	pages    int64
	writePct int
	ver      []uint32 // version last submitted, per lpn
	filler   []byte   // what a page holds after its stamp
	now      vclock.Time
	slots    []blockSlot
}

type blockSlot struct {
	busy  bool
	write bool
	slot  uint64
	lpn   int64
	want  uint32 // version a read must return
	t0    int64  // wall instant of submission
	ord   int32
	buf   []byte
}

const stampBytes = 16

func newBlockLoad(seed int64, pages int64, depth, writePct int, tr *tracer) *blockLoad {
	b := &blockLoad{
		tr:       tr,
		rng:      rand.New(rand.NewSource(seed)),
		pages:    pages,
		writePct: writePct,
		ver:      make([]uint32, pages),
		filler:   make([]byte, pageBytes),
		slots:    make([]blockSlot, depth),
	}
	b.rng.Read(b.filler)
	for i := range b.slots {
		b.slots[i].buf = make([]byte, pageBytes)
		copy(b.slots[i].buf, b.filler)
	}
	return b
}

func stamp(page []byte, lpn int64, ver uint32) {
	binary.LittleEndian.PutUint64(page, uint64(lpn))
	binary.LittleEndian.PutUint32(page[8:], ver)
	binary.LittleEndian.PutUint32(page[12:], 0x0c55d)
}

// prefill writes every page once, version 0, in 64-page extents straight
// through an in-process queue pair.
func (b *blockLoad) prefill(qp *hostif.QueuePair, now vclock.Time) (vclock.Time, error) {
	const extent = 64
	buf := make([]byte, extent*pageBytes)
	for lpn := int64(0); lpn < b.pages; lpn += extent {
		n := min(extent, b.pages-lpn)
		for i := int64(0); i < n; i++ {
			page := buf[i*pageBytes : (i+1)*pageBytes]
			copy(page, b.filler)
			stamp(page, lpn+i, 0)
		}
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.LPN, cmd.Data = hostif.OpWrite, lpn, buf[:n*pageBytes]
		if err := qp.Push(now, cmd); err != nil {
			return now, err
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			return now, fmt.Errorf("prefill lpn %d: %w", lpn, comp.Err)
		}
		now = comp.Done
	}
	return now, nil
}

// precondition drives n unrecorded operations (set-up).
func (b *blockLoad) precondition(n int) error {
	var rec recorder
	if err := b.run(n, &rec); err != nil {
		return err
	}
	if rec.failed > 0 {
		return fmt.Errorf("preconditioning: %d of %d operations failed", rec.failed, rec.attempted)
	}
	return nil
}

// run drives n operations closed loop and drains.
func (b *blockLoad) run(n int, rec *recorder) error {
	b.tr.setReq(0, rec.ord)
	issued, outstanding := 0, 0
	for issued < n || outstanding > 0 {
		for issued < n && outstanding < len(b.slots) {
			if err := b.submit(rec); err != nil {
				return err
			}
			issued++
			outstanding++
		}
		inReap := b.tr.begin(laneDriver, spReap, -1)
		comp, ok := b.reap()
		t1 := clock()
		b.tr.endAt(laneDriver, inReap, t1)
		if !ok {
			return fmt.Errorf("completion queue ran dry with %d outstanding", outstanding)
		}
		outstanding--
		b.complete(comp, t1, rec)
	}
	return nil
}

func (b *blockLoad) submit(rec *recorder) error {
	var s *blockSlot
	for i := range b.slots {
		if !b.slots[i].busy {
			s = &b.slots[i]
			break
		}
	}
	s.busy = true
	s.lpn = b.rng.Int63n(b.pages)
	s.write = b.rng.Intn(100) < b.writePct
	cmd := b.q.AcquireCommand()
	cmd.LPN = s.lpn
	if s.write {
		b.ver[s.lpn]++
		stamp(s.buf, s.lpn, b.ver[s.lpn])
		cmd.Op, cmd.Data = hostif.OpWrite, s.buf
	} else {
		s.want = b.ver[s.lpn]
		cmd.Op, cmd.Pages = hostif.OpRead, 1
	}
	s.ord = rec.ord
	rec.ord++
	s.t0 = clock()
	b.tr.openOp(s.ord, s.t0)
	traced := b.tr.beginAt(laneDriver, spPush, s.ord, s.t0)
	slot, err := b.q.Submit(cmd)
	if err != nil {
		return err
	}
	b.q.Ring(b.now)
	b.tr.end(laneDriver, traced)
	s.slot = slot
	return nil
}

func (b *blockLoad) complete(comp hostif.Completion, t1 int64, rec *recorder) {
	var s *blockSlot
	for i := range b.slots {
		if b.slots[i].busy && b.slots[i].slot == comp.Slot {
			s = &b.slots[i]
			break
		}
	}
	if comp.Done > b.now {
		b.now = comp.Done
	}
	if s == nil {
		rec.attempted++
		rec.fail("completion for unknown slot %d", comp.Slot)
		return
	}
	s.busy = false
	b.tr.closeOp(s.ord, t1)
	bytesOut := 0
	switch {
	case comp.Err != nil:
		rec.fail("%v lpn %d: %v", comp.Op, s.lpn, comp.Err)
	case s.write:
		bytesOut = pageBytes
	case len(comp.Data) != pageBytes:
		rec.fail("read lpn %d returned %d bytes", s.lpn, len(comp.Data))
	default:
		var want [stampBytes]byte
		stamp(want[:], s.lpn, s.want)
		if !bytes.Equal(comp.Data[:stampBytes], want[:]) || !bytes.Equal(comp.Data[stampBytes:], b.filler[stampBytes:]) {
			rec.fail("read lpn %d: want version %d, got stamp %x", s.lpn, s.want, comp.Data[:stampBytes])
		}
	}
	rec.op(s.write, t1-s.t0, comp.Latency(), bytesOut)
}
