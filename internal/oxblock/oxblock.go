// Package oxblock implements OX-Block, the paper's generic FTL (§4.2):
// it "exposes Open-Channel SSDs as block devices", assumes 4 KB as the
// minimum read granularity and "maintains a 4KB-granularity page-level
// mapping table". Every write operation of up to 1 MB is a transaction
// (§4.3): atomicity and durability come from write-ahead logging plus
// checkpoints, exactly the machinery whose recovery cost Figure 3
// measures. Garbage collection marks one group at a time so that
// collection interference stays local (§4.3).
//
// Durability model: commit records are forced to the log with explicit
// stripe padding, so they survive any crash. Transaction *data* is
// acknowledged from the controller's write-back cache (§4.3: "writes
// complete as soon as they hit the storage controller cache") and
// sub-stripe tails live in controller DRAM until a wordline stripe
// fills; OX-Block therefore requires a power-loss-protected device
// (ocssd.Options.PowerLossProtected), as the DFC platform provided.
// Running it on a non-PLP device trades crash safety of the most recent
// sub-stripe writes, exactly the atomicity-fallacy trap §5 warns about.
package oxblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ftl/ftlcore"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// MaxTxPages bounds one transactional write: 256 × 4 KB = 1 MB, the
// paper's "random writes of up to 1 MB in size; each of these writes is
// a transaction".
const MaxTxPages = 256

// Errors returned by the block device.
var (
	ErrRange      = errors.New("oxblock: logical page out of range")
	ErrTxTooLarge = errors.New("oxblock: transaction exceeds 1 MB")
	ErrPageSize   = errors.New("oxblock: payload must be whole 4 KB pages")
	ErrSector     = errors.New("oxblock: device sector size must be 4 KB")
)

// Config sizes and tunes an OX-Block instance.
type Config struct {
	// LogicalPages is the exposed capacity in 4 KB pages. It must leave
	// physical headroom (overprovisioning) for GC and the log.
	LogicalPages int64
	// StripeWidth is the number of concurrently open data chunks
	// (0 = one per parallel unit: full horizontal striping).
	StripeWidth int
	// CheckpointInterval is the Ci of Figure 3; zero disables
	// checkpointing entirely (the blue line of the figure).
	CheckpointInterval vclock.Duration
	// CPUPerMapUpdate is controller CPU per mapping-table operation.
	CPUPerMapUpdate vclock.Duration
	// CPUPerRecordReplay is the per-record recovery cost (Figure 3's
	// slope). Zero selects the ftlcore default.
	CPUPerRecordReplay vclock.Duration
	// GCFreeThreshold/GCTargetFree control the collector; zero values
	// select ~8%/12% of the device's chunks.
	GCFreeThreshold int
	GCTargetFree    int
	// GlobalGC disables group marking (ablation for the §4.3 locality).
	GlobalGC bool
}

func (c *Config) fill(geo ocssd.Geometry) error {
	if geo.Chip.SectorSize != 4096 {
		return ErrSector
	}
	totalChunks := geo.TotalPUs() * geo.ChunksPerPU
	if c.StripeWidth <= 0 {
		c.StripeWidth = geo.TotalPUs()
	}
	if c.CPUPerMapUpdate <= 0 {
		c.CPUPerMapUpdate = vclock.Microsecond
	}
	if c.GCFreeThreshold <= 0 {
		c.GCFreeThreshold = totalChunks / 12
		if c.GCFreeThreshold < 2 {
			c.GCFreeThreshold = 2
		}
	}
	if c.GCTargetFree <= 0 {
		c.GCTargetFree = totalChunks / 8
		if c.GCTargetFree < c.GCFreeThreshold {
			c.GCTargetFree = c.GCFreeThreshold + 1
		}
	}
	if c.LogicalPages <= 0 {
		// Default: 70% of physical capacity.
		c.LogicalPages = int64(totalChunks) * int64(geo.SectorsPerChunk()) * 7 / 10
	}
	phys := int64(totalChunks) * int64(geo.SectorsPerChunk())
	if c.LogicalPages > phys*9/10 {
		return fmt.Errorf("oxblock: %d logical pages leave no overprovisioning (physical %d)",
			c.LogicalPages, phys)
	}
	return nil
}

// Stats aggregates block-device activity.
type Stats struct {
	Txns         int64
	PagesWritten int64
	PagesRead    int64
	Checkpoints  int64
	Recoveries   int64
}

// RecoveryReport describes one recovery run (the quantity of Figure 3).
type RecoveryReport struct {
	CheckpointFound  bool
	ReplayedRecords  int
	ReplayedSegments int
	Duration         vclock.Duration
}

// Device is an OX-Block block device over an Open-Channel SSD.
type Device struct {
	ctrl  *ox.Controller
	media ox.Media
	geo   ocssd.Geometry
	cfg   Config

	mu     sync.Mutex
	pmap   *ftlcore.PageMap
	val    *ftlcore.Validity
	rmap   *ftlcore.ReverseMap
	alloc  *ftlcore.Allocator
	wal    *ftlcore.WAL
	ckpt   *ftlcore.Checkpointer
	gc     *ftlcore.GC
	writer *ftlcore.StripeWriter

	epoch    uint64
	lastCkpt vclock.Time
	nextTx   uint64
	gcMoves  []byte      // pending RecGCMove payload for the victim in flight
	gcEnd    vclock.Time // virtual completion of the background collector
	stats    Stats
	offl     *offload.Engine

	// Scratch of Write, guarded by mu: the payload zero-padded to a ws_min
	// unit, and the commit record's mapping updates. Neither the stripe
	// writer nor the WAL keeps a reference past its call.
	padded ftlcore.PadScratch
	commit []byte
}

// ckptSlots picks the reserved checkpoint chunks deterministically: slot
// 0 lives on group 0, slot 1 on the last group, walking PUs then chunk
// indexes.
func ckptSlots(geo ocssd.Geometry, mapPages int) [2][]ocssd.ChunkID {
	need := ftlcore.SlotBytesNeeded(mapPages)
	perChunk := int(geo.ChunkBytes())
	chunks := (need + perChunk - 1) / perChunk
	var slots [2][]ocssd.ChunkID
	for s := 0; s < 2; s++ {
		g := 0
		if s == 1 {
			g = geo.Groups - 1
		}
		for i := 0; i < chunks; i++ {
			slots[s] = append(slots[s], ocssd.ChunkID{
				Group: g,
				PU:    i % geo.PUsPerGroup,
				Chunk: i / geo.PUsPerGroup * 2 % geo.ChunksPerPU,
			})
		}
	}
	// With one group, keep the two slots on disjoint chunk indexes.
	if geo.Groups == 1 {
		for i := range slots[1] {
			slots[1][i].Chunk = slots[1][i].Chunk + 1
		}
	}
	return slots
}

// New opens an OX-Block device on the controller's media. On first use
// it formats; when the media holds a checkpoint or log (e.g. after a
// crash), it recovers. The returned report is nil for a fresh format.
func New(ctrl *ox.Controller, cfg Config, now vclock.Time) (*Device, *RecoveryReport, vclock.Time, error) {
	geo := ctrl.Media().Geometry()
	if err := cfg.fill(geo); err != nil {
		return nil, nil, now, err
	}
	d := &Device{
		ctrl:  ctrl,
		media: ctrl.Media(),
		geo:   geo,
		cfg:   cfg,
		pmap:  ftlcore.NewPageMap(int(cfg.LogicalPages)),
		val:   ftlcore.NewValidity(geo),
		rmap:  ftlcore.NewReverseMap(geo),
		offl:  offload.NewEngine(geo.Groups, offload.DefaultConfig()),
	}
	slots := ckptSlots(geo, d.pmap.Pages())
	reserved := make(map[ocssd.ChunkID]bool)
	for _, s := range slots {
		for _, id := range s {
			reserved[id] = true
		}
	}
	var err error
	d.ckpt, err = ftlcore.NewCheckpointer(d.media, ctrl, slots, ftlcore.CheckpointConfig{})
	if err != nil {
		return nil, nil, now, err
	}

	// Recovery: load the newest checkpoint, scan for log segments,
	// replay, then survey the chunks.
	report := &RecoveryReport{}
	start := now
	ckptEpoch, ckptLSN, end, err := d.ckpt.Load(now, d.pmap)
	switch {
	case errors.Is(err, ftlcore.ErrNoCheckpoint):
		ckptEpoch, ckptLSN = 0, 0
	case err != nil:
		return nil, nil, end, err
	default:
		report.CheckpointFound = true
	}
	segs, maxEpoch, end, err := ftlcore.ScanLog(end, d.media, ctrl)
	if err != nil {
		return nil, nil, end, err
	}
	report.ReplayedSegments = len(segs)
	walCfg := ftlcore.WALConfig{
		Target:             ftlcore.AnyTarget(),
		CPUPerRecordReplay: cfg.CPUPerRecordReplay,
	}
	n, end, err := ftlcore.ReplayLog(end, d.media, ctrl, walCfg, segs, ckptEpoch, ckptLSN, d.applyRecord)
	if err != nil {
		return nil, nil, end, err
	}
	report.ReplayedRecords = n
	fresh := !report.CheckpointFound && len(segs) == 0

	// Rebuild validity and the reverse map from the mapping table.
	var rebuildCPU vclock.Duration
	for lpn := int64(0); lpn < cfg.LogicalPages; lpn++ {
		if ppa, ok := d.pmap.Lookup(lpn); ok {
			d.val.MarkValid(ppa)
			d.rmap.Set(ppa, lpn)
			rebuildCPU += 200 // 200ns per mapped entry
		}
	}
	end = ctrl.CPUWork(end, rebuildCPU)

	// Survey chunks: pool free ones, classify the rest.
	d.alloc = ftlcore.NewAllocator(d.media, reserved)
	d.gc = ftlcore.NewGC(d.media, ctrl, d.alloc, d.val, d.rmap, ftlcore.GCConfig{
		FreeThreshold: cfg.GCFreeThreshold,
		TargetFree:    cfg.GCTargetFree,
		GlobalVictims: cfg.GlobalGC,
	})
	d.gc.BeforeReset = d.persistGCMoves
	logChunks := make(map[ocssd.ChunkID]bool, len(segs))
	for _, s := range segs {
		logChunks[s.Chunk] = true
	}
	var oldLog []ocssd.ChunkID
	for _, ci := range d.media.Report() {
		if reserved[ci.ID] || ci.State == ocssd.ChunkOffline || ci.State == ocssd.ChunkFree {
			continue
		}
		if logChunks[ci.ID] {
			oldLog = append(oldLog, ci.ID)
			continue
		}
		// A written, non-log, non-checkpoint chunk holds data.
		if d.val.ValidCount(ci.ID) > 0 {
			d.gc.AddCandidate(ci.ID)
		} else if e, err := d.alloc.Release(end, ci.ID); err == nil {
			end = e
		}
	}

	// Fresh WAL in a new epoch, then persist a recovery checkpoint and
	// recycle the old log.
	d.epoch = maxEpoch + 1
	walCfg.Epoch = d.epoch
	d.wal, err = ftlcore.NewWAL(d.media, ctrl, d.alloc, walCfg)
	if err != nil {
		return nil, nil, end, err
	}
	if !fresh {
		if end, err = d.ckpt.Write(end, d.pmap, d.epoch, d.wal.NextLSN()); err != nil {
			return nil, nil, end, err
		}
		d.stats.Checkpoints++
		d.stats.Recoveries++
	}
	for _, id := range oldLog {
		if e, err := d.alloc.Release(end, id); err == nil {
			end = e
		}
	}
	d.writer, err = ftlcore.NewStripeWriter(d.media, d.alloc, ftlcore.AnyTarget(), cfg.StripeWidth)
	if err != nil {
		return nil, nil, end, err
	}
	d.lastCkpt = end
	report.Duration = end.Sub(start)
	if fresh {
		return d, nil, end, nil
	}
	return d, report, end, nil
}

// applyRecord is the replay function: it re-applies mapping updates.
func (d *Device) applyRecord(r ftlcore.Record) error {
	switch r.Type {
	case ftlcore.RecTxCommit, ftlcore.RecGCMove:
		if len(r.Payload)%16 != 0 {
			return fmt.Errorf("oxblock: malformed commit payload (%d bytes)", len(r.Payload))
		}
		for off := 0; off < len(r.Payload); off += 16 {
			lpn := int64(binary.LittleEndian.Uint64(r.Payload[off:]))
			ppa := ocssd.Unpack(binary.LittleEndian.Uint64(r.Payload[off+8:]))
			if _, _, err := d.pmap.Update(lpn, ppa); err != nil {
				return err
			}
		}
	case ftlcore.RecTrim:
		if len(r.Payload)%8 != 0 {
			return fmt.Errorf("oxblock: malformed trim payload")
		}
		for off := 0; off < len(r.Payload); off += 8 {
			lpn := int64(binary.LittleEndian.Uint64(r.Payload[off:]))
			if _, _, err := d.pmap.Unmap(lpn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Geometry reports the underlying device geometry.
func (d *Device) Geometry() ocssd.Geometry { return d.geo }

// Controller reports the OX controller the device accounts against —
// the execution domain of every OX-Block command. All commands share
// the device-wide transaction lock, the WAL and the controller's core
// pool and memory bus, so the host interface must never overlap two
// commands of the same controller domain.
func (d *Device) Controller() *ox.Controller { return d.ctrl }

// LogicalPages reports the exposed capacity in 4 KB pages.
func (d *Device) LogicalPages() int64 { return d.cfg.LogicalPages }

// Stats returns a snapshot of device statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// GCStats exposes the collector's counters.
func (d *Device) GCStats() ftlcore.GCStats { return d.gc.Stats() }

// WALRecords reports records appended in this incarnation.
func (d *Device) WALRecords() int64 { return d.wal.Records() }

// checkRange validates a page extent.
func (d *Device) checkRange(lpn int64, pages int) error {
	if lpn < 0 || pages <= 0 || lpn+int64(pages) > d.cfg.LogicalPages {
		return fmt.Errorf("%w: [%d,+%d) of %d", ErrRange, lpn, pages, d.cfg.LogicalPages)
	}
	return nil
}

// Write stores len(data)/4K pages at lpn as one transaction: data is
// placed on flash, the mapping is updated, and a commit record is forced
// to the recovery log before the call returns (§4.3: "the FTL must
// ensure atomicity and durability"). The transaction is atomic across a
// crash: either every page maps to the new data or none does.
func (d *Device) Write(now vclock.Time, lpn int64, data []byte) (vclock.Time, error) {
	secSize := d.geo.Chip.SectorSize
	if len(data) == 0 || len(data)%secSize != 0 {
		return now, ErrPageSize
	}
	pages := len(data) / secSize
	if pages > MaxTxPages {
		return now, ErrTxTooLarge
	}
	if err := d.checkRange(lpn, pages); err != nil {
		return now, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.NoteUserIO()

	// Data path: stripe the payload across open chunks. The stripe
	// writer needs ws_min multiples; pad the tail sectors with zeros and
	// map only the real pages.
	padded := data
	if rem := pages % d.geo.WSMin; rem != 0 {
		padded = d.padded.Fill(data, (pages+d.geo.WSMin-rem)*secSize)
	}
	ppas, end, err := d.writer.Append(now, padded)
	if err != nil {
		return now, err
	}
	d.noteAppIOs(ppas, now)

	// Mapping updates + commit record payload.
	if cap(d.commit) < pages*16 {
		d.commit = make([]byte, pages*16)
	}
	payload := d.commit[:pages*16]
	for i := 0; i < pages; i++ {
		old, had, err := d.pmap.Update(lpn+int64(i), ppas[i])
		if err != nil {
			return end, err
		}
		if had {
			d.val.MarkInvalid(old)
		}
		d.val.MarkValid(ppas[i])
		d.rmap.Set(ppas[i], lpn+int64(i))
		binary.LittleEndian.PutUint64(payload[i*16:], uint64(lpn+int64(i)))
		binary.LittleEndian.PutUint64(payload[i*16+8:], ppas[i].Pack())
	}
	end = d.ctrl.CPUWork(end, vclock.Duration(pages)*d.cfg.CPUPerMapUpdate)

	// Commit point: the WAL record is forced before acknowledging.
	d.nextTx++
	_, end, err = d.wal.Append(end, ftlcore.Record{
		Type:    ftlcore.RecTxCommit,
		TxID:    d.nextTx,
		Payload: payload,
	}, true)
	if err != nil {
		return end, err
	}
	d.stats.Txns++
	d.stats.PagesWritten += int64(pages)

	// Register filled data chunks with the collector.
	d.registerClosedChunks(ppas)

	// Background duties. The checkpoint is a synchronous controller I/O
	// (it blocks the triggering writer); collection runs in the
	// background — §4.3's "background threads" — so the caller does not
	// wait for it, but its media traffic interferes through the shared
	// channel and chip resources.
	if end, err = d.maybeCheckpoint(end); err != nil {
		return end, err
	}
	if d.gc.Needed() {
		// Collection starts at the triggering writer's clock; the writer
		// does not wait for it (background threads), but its media
		// reservations contend with concurrent application I/O.
		gcEnd, err := d.gc.Collect(end, d.remapForGC)
		if err != nil {
			return end, err
		}
		d.gcEnd = gcEnd
	}
	return end, nil
}

// Read returns pages*4K bytes starting at lpn. Unmapped pages read as
// zeros (block-device semantics for trimmed space).
func (d *Device) Read(now vclock.Time, lpn int64, pages int) ([]byte, vclock.Time, error) {
	if err := d.checkRange(lpn, pages); err != nil {
		return nil, now, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.NoteUserIO()
	return d.readLocked(now, lpn, pages)
}

// readLocked is the shared read path of Read and OffloadScan: mapping
// lookups, map CPU, one vector read of the mapped pages, zero-fill for
// unmapped ones. Caller holds mu.
func (d *Device) readLocked(now vclock.Time, lpn int64, pages int) ([]byte, vclock.Time, error) {
	secSize := d.geo.Chip.SectorSize
	out := make([]byte, pages*secSize)

	ppas := make([]ocssd.PPA, 0, pages)
	for i := 0; i < pages; i++ {
		if ppa, ok := d.pmap.Lookup(lpn + int64(i)); ok {
			ppas = append(ppas, ppa)
		}
	}
	end := d.ctrl.CPUWork(now, vclock.Duration(pages)*d.cfg.CPUPerMapUpdate)
	if len(ppas) > 0 {
		d.noteAppIOs(ppas, now)
		// Fully mapped (the common case): the device reads straight into
		// the buffer that is returned. With holes, the mapped pages are
		// read packed at the front and then spread out to their places.
		var err error
		end, err = d.media.VectorRead(end, ppas, out[:len(ppas)*secSize])
		if err != nil {
			return nil, end, err
		}
		if len(ppas) < pages {
			d.spreadMapped(out, lpn, pages, len(ppas))
		}
	}
	d.stats.PagesRead += int64(pages)
	return out, end, nil
}

// spreadMapped moves the mapped pages of an extent, read packed at the
// front of out, to their positions, leaving zeros at the unmapped ones.
// It walks backwards so that no page is overwritten before it has moved
// (page j's position is never below j). Caller holds mu.
func (d *Device) spreadMapped(out []byte, lpn int64, pages, mapped int) {
	secSize := d.geo.Chip.SectorSize
	j := mapped
	for i := pages - 1; i >= 0; i-- {
		dst := out[i*secSize : (i+1)*secSize]
		if _, ok := d.pmap.Lookup(lpn + int64(i)); !ok {
			clear(dst)
			continue
		}
		if j--; j != i {
			copy(dst, out[j*secSize:(j+1)*secSize])
		}
	}
}

// Offload returns the device's in-device compute engine (stats and
// cost model of the offloaded commands).
func (d *Device) Offload() *offload.Engine { return d.offl }

// OffloadScan runs a predicate-filtered range scan inside the device
// (OpOffloadScan): the extent is read into device RAM with the exact
// Read machinery (same mapping CPU, same media reservations), the
// offload engine's compute unit filters it at ScanMBps, and only the
// matching pages — framed by offload.EncodeScanResult — are returned
// for the host link. The host-side alternative reads the whole extent
// over the link and filters on the host; selectivity decides the
// winner. Media faults surface as the injector's typed errors so
// hostif.StatusOf classifies them like plain reads.
func (d *Device) OffloadScan(now vclock.Time, lpn int64, pages int, pred offload.Predicate) ([]byte, vclock.Time, error) {
	if err := d.checkRange(lpn, pages); err != nil {
		return nil, now, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.NoteUserIO()
	raw, end, err := d.readLocked(now, lpn, pages)
	if err != nil {
		return nil, end, fmt.Errorf("oxblock: offload scan: %w", err)
	}
	secSize := d.geo.Chip.SectorSize
	end = d.offl.ScanCost(end, int64(len(raw)))
	var idx []uint32
	var match []byte
	for i := 0; i < pages; i++ {
		page := raw[i*secSize : (i+1)*secSize]
		if pred.Match(page) {
			idx = append(idx, uint32(i))
			match = append(match, page...)
		}
	}
	res := offload.EncodeScanResult(secSize, idx, match)
	d.offl.NoteScan(pages, len(idx), int64(len(res)), int64(len(raw)))
	return res, end, nil
}

// Trim unmaps a page extent as one logged transaction.
func (d *Device) Trim(now vclock.Time, lpn int64, pages int) (vclock.Time, error) {
	if err := d.checkRange(lpn, pages); err != nil {
		return now, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.NoteUserIO()
	payload := make([]byte, pages*8)
	for i := 0; i < pages; i++ {
		old, had, err := d.pmap.Unmap(lpn + int64(i))
		if err != nil {
			return now, err
		}
		if had {
			d.val.MarkInvalid(old)
		}
		binary.LittleEndian.PutUint64(payload[i*8:], uint64(lpn+int64(i)))
	}
	end := d.ctrl.CPUWork(now, vclock.Duration(pages)*d.cfg.CPUPerMapUpdate)
	d.nextTx++
	_, end, err := d.wal.Append(end, ftlcore.Record{
		Type:    ftlcore.RecTrim,
		TxID:    d.nextTx,
		Payload: payload,
	}, true)
	return end, err
}

// Checkpoint forces a checkpoint now (normally driven by the interval).
func (d *Device) Checkpoint(now vclock.Time) (vclock.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked(now)
}

func (d *Device) checkpointLocked(now vclock.Time) (vclock.Time, error) {
	lsn := d.wal.NextLSN()
	end, err := d.ckpt.Write(now, d.pmap, d.epoch, lsn)
	if err != nil {
		return end, err
	}
	if end, err = d.wal.Truncate(end, lsn); err != nil {
		return end, err
	}
	d.lastCkpt = end
	d.stats.Checkpoints++
	return end, nil
}

func (d *Device) maybeCheckpoint(now vclock.Time) (vclock.Time, error) {
	if d.cfg.CheckpointInterval <= 0 {
		return now, nil
	}
	if now.Sub(d.lastCkpt) < d.cfg.CheckpointInterval {
		return now, nil
	}
	return d.checkpointLocked(now)
}

// remapForGC updates the mapping for a GC relocation and stages the move
// for the pre-reset log record.
func (d *Device) remapForGC(lba int64, old, moved ocssd.PPA) bool {
	cur, ok := d.pmap.Lookup(lba)
	if !ok || cur != old {
		return false
	}
	if _, _, err := d.pmap.Update(lba, moved); err != nil {
		return false
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(lba))
	binary.LittleEndian.PutUint64(buf[8:], moved.Pack())
	d.gcMoves = append(d.gcMoves, buf[:]...)
	return true
}

// persistGCMoves logs the staged relocations durably before the victim
// chunk is erased (wired as the collector's BeforeReset hook).
func (d *Device) persistGCMoves(now vclock.Time, victim ocssd.ChunkID) (vclock.Time, error) {
	if len(d.gcMoves) == 0 {
		return now, nil
	}
	payload := d.gcMoves
	d.gcMoves = nil
	d.nextTx++
	_, end, err := d.wal.Append(now, ftlcore.Record{
		Type:    ftlcore.RecGCMove,
		TxID:    d.nextTx,
		Payload: payload,
	}, true)
	return end, err
}

// registerClosedChunks hands chunks that the stripe writer has filled to
// the collector. A chunk is "closed" once its device write pointer hits
// capacity; the writer has already rotated past it.
func (d *Device) registerClosedChunks(ppas []ocssd.PPA) {
	spc := d.geo.SectorsPerChunk()
	seen := make(map[ocssd.ChunkID]bool)
	for _, p := range ppas {
		id := p.ChunkOf()
		if seen[id] {
			continue
		}
		seen[id] = true
		if info, err := d.media.Chunk(id); err == nil && info.State == ocssd.ChunkClosed && info.WP == spc {
			d.gc.AddCandidate(id)
		}
	}
}

// noteAppIOs records user I/O per touched group for the GC interference
// accounting of §4.3.
func (d *Device) noteAppIOs(ppas []ocssd.PPA, at vclock.Time) {
	seen := 0
	for _, p := range ppas {
		bit := 1 << uint(p.Group)
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		d.gc.NoteAppIO(p.Group, at)
	}
}

// FreeChunks reports the allocator's free pool size (diagnostics).
func (d *Device) FreeChunks() int { return d.alloc.FreeCount() }

// GCCandidates reports the collector's candidate count (diagnostics).
func (d *Device) GCCandidates() int { return d.gc.CandidateCount() }
