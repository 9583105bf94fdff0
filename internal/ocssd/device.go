// Package ocssd simulates an Open-Channel 2.0 SSD (§2.2 of the paper):
// a physical address space of groups × parallel units × chunks × logical
// blocks, vector read/write commands, chunk reset, device-side copy and
// a chunk report, on top of the NAND simulator. The device enforces the
// interface rules — writes land at the chunk write pointer in ws_min
// units, chunks are reset before rewrite — and abstracts planes and
// paired pages by buffering sub-stripe writes in controller DRAM until a
// full wordline stripe (ws_opt) can be programmed.
//
// Timing is virtual (internal/vclock): each group has a channel-bus
// resource and each PU a chip resource, so cross-group operations never
// interfere while same-group operations queue — exactly the isolation
// argument of §2.2 and §4.3.
//
// Concurrency mirrors the same isolation argument in wall-clock time:
// chunk metadata, stripe buffers and open-chunk accounting are sharded
// per parallel unit, so host threads driving disjoint PUs never contend
// on a device-wide lock (see DESIGN.md, "Per-PU locking"). Statistics
// are lock-free atomic counters. Virtual-time results are a pure
// function of the operation sequence and are unchanged by the sharding.
package ocssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/vclock"
)

// Errors reported by device commands.
var (
	ErrAddress      = errors.New("ocssd: address out of range")
	ErrWritePointer = errors.New("ocssd: write not at chunk write pointer")
	ErrWriteSize    = errors.New("ocssd: write size not a multiple of ws_min")
	ErrChunkState   = errors.New("ocssd: invalid chunk state for command")
	ErrChunkFull    = errors.New("ocssd: write beyond chunk capacity")
	ErrUnwritten    = errors.New("ocssd: read of unwritten sector")
	ErrOffline      = errors.New("ocssd: chunk is offline")
	ErrOpenLimit    = errors.New("ocssd: too many open chunks on parallel unit")
	ErrDataSize     = errors.New("ocssd: data length does not match sector count")
)

// ChunkState is the state machine of §2.2 / OCSSD 2.0 chunk reports.
type ChunkState uint8

// Chunk states.
const (
	ChunkFree ChunkState = iota
	ChunkOpen
	ChunkClosed
	ChunkOffline
)

func (s ChunkState) String() string {
	switch s {
	case ChunkFree:
		return "free"
	case ChunkOpen:
		return "open"
	case ChunkClosed:
		return "closed"
	case ChunkOffline:
		return "offline"
	default:
		return fmt.Sprintf("ChunkState(%d)", uint8(s))
	}
}

// ChunkInfo is one entry of the chunk report (get log page, §2.2).
type ChunkInfo struct {
	ID    ChunkID
	State ChunkState
	WP    int // write pointer: next writable sector
	Wear  int // reset count
}

// AsyncError is an asynchronous device notification (§2.2: bad media
// management and asynchronous error reporting).
type AsyncError struct {
	Chunk ChunkID
	Err   error
}

// Stats aggregates device-level operation counters.
type Stats struct {
	VectorWrites   int64
	VectorReads    int64
	Resets         int64
	Copies         int64
	SectorsWritten int64
	SectorsRead    int64
	CacheHitReads  int64
	MediaReads     int64
	PadSectors     int64
	GrownBadChunks int64
}

// devStats is the lock-free internal representation of Stats.
type devStats struct {
	vectorWrites   atomic.Int64
	vectorReads    atomic.Int64
	resets         atomic.Int64
	copies         atomic.Int64
	sectorsWritten atomic.Int64
	sectorsRead    atomic.Int64
	cacheHitReads  atomic.Int64
	mediaReads     atomic.Int64
	padSectors     atomic.Int64
	grownBadChunks atomic.Int64
}

func (s *devStats) snapshot() Stats {
	return Stats{
		VectorWrites:   s.vectorWrites.Load(),
		VectorReads:    s.vectorReads.Load(),
		Resets:         s.resets.Load(),
		Copies:         s.copies.Load(),
		SectorsWritten: s.sectorsWritten.Load(),
		SectorsRead:    s.sectorsRead.Load(),
		CacheHitReads:  s.cacheHitReads.Load(),
		MediaReads:     s.mediaReads.Load(),
		PadSectors:     s.padSectors.Load(),
		GrownBadChunks: s.grownBadChunks.Load(),
	}
}

// Options configures device construction.
type Options struct {
	Seed        int64
	Reliability nand.Reliability
	// Timing overrides the per-cell-type default when non-nil.
	Timing *nand.TimingProfile
	// PowerLossProtected keeps partially filled stripe buffers across a
	// Crash (capacitor-backed DRAM). Without it, un-programmed sectors
	// are lost on crash, which is what forces FTLs to use a WAL.
	PowerLossProtected bool
	// BackendPath enables the durable file backend: sector data persists
	// to this file and chunk-state transitions append to the companion
	// chunk-state log (LogPath). New formats the backend; OpenDevice
	// restores from it. Empty keeps the device purely in-memory, with
	// virtual timing identical either way.
	BackendPath string
	// Faults wires a deterministic fault injector into every media
	// operation (nil = fault-free).
	Faults *fault.Injector
}

// chunkMeta is the per-chunk controller record, packed to 24 bytes so a
// terabyte-scale geometry (512 PUs × thousands of chunks) keeps its whole
// chunk table in a few MiB of dense cache-friendly array. Two fields of
// the old 64-byte layout are gone, not shrunk: the partial-stripe buffer
// lives in the PU's slot table (bufSlot indexes it; open chunks are
// bounded by MaxOpenPerPU, total chunks are not), and the buffer's base
// sector is derived — bufBase = wp − len(buf)/sectorSize — because the
// write pointer always leads the buffer by exactly the buffered sectors.
type chunkMeta struct {
	flushEnd vclock.Time // latest NAND program completion for this chunk
	wp       int32       // write pointer: next writable sector
	wear     int32       // reset count
	bufSlot  int32       // index into the PU's stripe-buffer slots; -1 = none
	state    ChunkState
}

// puState is the per-parallel-unit shard of device state. Everything a
// write, read or reset touches on one PU — chunk metadata, the open-
// chunk count and the stripe-buffer slot table — lives behind this one
// mutex, so operations on distinct PUs never contend (§2.2: parallel
// units do not interfere across groups; here they do not even share a
// lock).
type puState struct {
	mu        sync.Mutex
	chunks    []chunkMeta
	open      int      // open chunk count on this PU
	bufs      [][]byte // stripe-buffer slots, indexed by chunkMeta.bufSlot
	freeSlots []int32  // recycled slot indices
}

// getSlot assigns a stripe-buffer slot to an opening chunk, recycling a
// released slot when one exists. Caller holds the PU lock.
func (p *puState) getSlot(stripeBytes int) int32 {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		p.bufs[s] = p.bufs[s][:0]
		return s
	}
	p.bufs = append(p.bufs, make([]byte, 0, stripeBytes))
	return int32(len(p.bufs) - 1)
}

// putSlot releases a chunk's stripe-buffer slot back to the free list.
// Negative slots (chunk had no buffer) are ignored. Caller holds the PU
// lock.
func (p *puState) putSlot(s int32) {
	if s >= 0 {
		p.freeSlots = append(p.freeSlots, s)
	}
}

// buffered returns the chunk's partial-stripe buffer (nil when the chunk
// holds no slot). Caller holds the PU lock.
func (p *puState) buffered(m *chunkMeta) []byte {
	if m.bufSlot < 0 {
		return nil
	}
	return p.bufs[m.bufSlot]
}

// Device is one simulated Open-Channel SSD.
type Device struct {
	geo  Geometry
	opts Options

	chips    [][]*nand.Chip       // [group][pu]
	channels []*vclock.Resource   // one bus per group
	chipRes  [][]*vclock.Resource // one resource per PU
	cache    *cacheTracker

	pus []puState // flat [group*PUsPerGroup + pu]

	// copyBufs recycles the staging buffers of device-side Copy.
	copyBufs sync.Pool

	// backend is the durable file store (nil = in-memory only); faults
	// is the injected-failure oracle (nil = fault-free).
	backend *backendStore
	faults  *fault.Injector

	stats devStats

	asyncC chan AsyncError

	faultMu     sync.Mutex
	faultEvents []FaultEvent
	// dieOnce gates the power-cut death sequence: concurrent media ops
	// may all observe the cut, but only one runs the PLP flush (which
	// takes every PU lock and must never run twice or race itself).
	dieOnce sync.Once
}

// New builds a device with the given geometry. The seed drives all
// failure injection; chips get distinct derived seeds. With
// Options.BackendPath the durable backend is formatted fresh; use
// OpenDevice to restore an existing backend instead.
func New(geo Geometry, opts Options) (*Device, error) {
	d, err := newDevice(geo, opts)
	if err != nil {
		return nil, err
	}
	if opts.BackendPath != "" {
		b, _, err := openBackend(opts.BackendPath, geo, true)
		if err != nil {
			return nil, err
		}
		d.backend = b
	}
	return d, nil
}

// OpenDevice brings a device up from an existing durable backend: the
// chunk-state log is scanned (torn tail truncated), every surviving
// chunk's state, write pointer and wear are restored, and the persisted
// sector data is re-programmed into the NAND model. Restore is a
// wall-clock-only operation; virtual time starts at zero as with New.
func OpenDevice(geo Geometry, opts Options) (*Device, error) {
	if opts.BackendPath == "" {
		return nil, errors.New("ocssd: OpenDevice requires Options.BackendPath")
	}
	d, err := newDevice(geo, opts)
	if err != nil {
		return nil, err
	}
	b, table, err := openBackend(opts.BackendPath, geo, false)
	if err != nil {
		return nil, err
	}
	d.backend = b
	if err := d.restore(table); err != nil {
		b.Close()
		return nil, err
	}
	return d, nil
}

func newDevice(geo Geometry, opts Options) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	timing := nand.DefaultTiming(geo.Chip.Cell)
	if opts.Timing != nil {
		timing = *opts.Timing
	}
	d := &Device{
		geo:      geo,
		opts:     opts,
		chips:    make([][]*nand.Chip, geo.Groups),
		channels: make([]*vclock.Resource, geo.Groups),
		chipRes:  make([][]*vclock.Resource, geo.Groups),
		pus:      make([]puState, geo.Groups*geo.PUsPerGroup),
		asyncC:   make(chan AsyncError, 1024),
	}
	var cacheBytes int64
	if geo.CacheMB > 0 {
		cacheBytes = int64(geo.CacheMB) << 20
		d.cache = newCacheTracker(cacheBytes)
	}
	for g := 0; g < geo.Groups; g++ {
		d.channels[g] = vclock.NewResource(fmt.Sprintf("ch%d", g))
		d.chips[g] = make([]*nand.Chip, geo.PUsPerGroup)
		d.chipRes[g] = make([]*vclock.Resource, geo.PUsPerGroup)
		for u := 0; u < geo.PUsPerGroup; u++ {
			seed := opts.Seed*1000003 + int64(g)*257 + int64(u) + 1
			chip, err := nand.New(geo.Chip, timing, opts.Reliability, seed)
			if err != nil {
				return nil, err
			}
			d.chips[g][u] = chip
			d.chipRes[g][u] = vclock.NewResource(fmt.Sprintf("chip%d.%d", g, u))
			pu := d.pu(g, u)
			pu.chunks = make([]chunkMeta, geo.ChunksPerPU)
			for c := range pu.chunks {
				pu.chunks[c].bufSlot = -1
				// A chunk is offline if any of its per-plane blocks is
				// factory bad (the chunk spans block c on every plane).
				for p := 0; p < geo.Chip.Planes; p++ {
					if chip.IsBad(p, c) {
						pu.chunks[c].state = ChunkOffline
						break
					}
				}
			}
		}
	}
	d.faults = opts.Faults
	return d, nil
}

// restore applies a chunk-state table recovered from the backend log:
// offline and wear carry over, and Open/Closed chunks get their data
// re-programmed stripe by stripe from the data file.
func (d *Device) restore(table map[uint32]chunkDurable) error {
	geo := d.geo
	spc := geo.SectorsPerChunk()
	bits := geo.Chip.Cell.BitsPerCell()
	spp := geo.Chip.SectorsPerPage
	pageBytes := geo.Chip.PageBytes()
	buf := make([]byte, d.stripeBytes())
	total := geo.Groups * geo.PUsPerGroup * geo.ChunksPerPU
	for flat := 0; flat < total; flat++ {
		cd, ok := table[uint32(flat)]
		if !ok {
			continue
		}
		g := flat / (geo.PUsPerGroup * geo.ChunksPerPU)
		u := (flat / geo.ChunksPerPU) % geo.PUsPerGroup
		c := flat % geo.ChunksPerPU
		pu := d.pu(g, u)
		m := &pu.chunks[c]
		if m.state == ChunkOffline && cd.state != ChunkOffline {
			// Factory-bad under this seed: the durable record cannot
			// resurrect it (and with a matching seed never claims to).
			continue
		}
		m.wear = int32(cd.wear)
		switch cd.state {
		case ChunkOffline:
			m.state = ChunkOffline
			m.wp = int32(cd.wp)
		case ChunkFree:
			m.state = ChunkFree
			m.wp = 0
		case ChunkOpen, ChunkClosed:
			wp := cd.wp - cd.wp%geo.WSOpt // records are stripe-aligned; be safe
			chip := d.chips[g][u]
			for s := 0; s < wp/geo.WSOpt; s++ {
				if err := d.backend.readData(uint32(flat), s*geo.WSOpt, buf); err != nil {
					return err
				}
				for p := 0; p < geo.Chip.Planes; p++ {
					for b := 0; b < bits; b++ {
						off := (p*bits + b) * spp * geo.Chip.SectorSize
						if err := chip.Program(p, c, s*bits+b, buf[off:off+pageBytes], nil); err != nil {
							return fmt.Errorf("ocssd: restore %v: %w", ChunkID{g, u, c}, err)
						}
					}
				}
			}
			// No bufBase to restore: the base is derived from wp and the
			// (empty) buffer, and a slot is assigned lazily on first write.
			m.wp = int32(wp)
			m.state = cd.state
			if m.state == ChunkOpen && wp == spc {
				m.state = ChunkClosed
			}
			if m.state == ChunkOpen {
				pu.open++
			}
		}
	}
	return nil
}

// pu returns the state shard of one parallel unit.
func (d *Device) pu(g, u int) *puState { return &d.pus[g*d.geo.PUsPerGroup+u] }

// bufBase reports the stripe-aligned sector where a chunk's partial-
// stripe buffer begins: the write pointer minus the buffered sectors
// (the pointer always leads the buffer by exactly its content). Caller
// holds the PU lock.
func (d *Device) bufBase(pu *puState, m *chunkMeta) int {
	return int(m.wp) - len(pu.buffered(m))/d.geo.Chip.SectorSize
}

// flatChunk is the backend/fault-injector key of a chunk: its index in
// group-major, PU-major, chunk-minor order.
func (d *Device) flatChunk(id ChunkID) uint32 {
	return uint32((id.Group*d.geo.PUsPerGroup+id.PU)*d.geo.ChunksPerPU + id.Chunk)
}

// alive rejects media operations on a power-cut device. Zero cost when
// no injector is wired.
func (d *Device) alive() error {
	if d.faults != nil && d.faults.Dead() {
		return fault.ErrPowerCut
	}
	return nil
}

// Geometry reports the device geometry (the identify command of §2.2).
func (d *Device) Geometry() Geometry { return d.geo }

// WriteCacheEnabled reports whether the device models a write-back
// cache. The cache admission tracker is device-global, serially
// reusable state: when it is on, concurrent writes — even to disjoint
// groups — interact through it, so callers that overlap writes for
// wall-clock speed (the host's pipelined executor) must serialize all
// writes on a cached device to keep virtual timing deterministic.
// Reads never mutate the tracker and stay group-scoped either way.
func (d *Device) WriteCacheEnabled() bool { return d.cache.enabled() }

// Errors returns the asynchronous error notification channel.
func (d *Device) Errors() <-chan AsyncError { return d.asyncC }

// Stats returns a copy of the device counters. Each counter is read
// atomically but the snapshot as a whole is not a single atomic cut:
// under concurrent load, related counters (e.g. VectorWrites and
// SectorsWritten) may be momentarily out of step. Quiesce the device
// for exact cross-counter invariants.
func (d *Device) Stats() Stats { return d.stats.snapshot() }

// MetadataBytes reports the resident bytes of per-chunk controller
// metadata: the packed chunk records plus the stripe-buffer slot
// bookkeeping (slot headers and free list — slot payloads are data
// buffers bounded by open chunks, not metadata that scales with chunk
// count). Divide by Geometry().TotalPUs()·ChunksPerPU for the
// bytes-per-chunk budget the scale benchmarks gate on.
func (d *Device) MetadataBytes() int64 {
	var total int64
	for i := range d.pus {
		pu := &d.pus[i]
		pu.mu.Lock()
		total += int64(cap(pu.chunks)) * int64(unsafe.Sizeof(chunkMeta{}))
		total += int64(cap(pu.bufs)) * int64(unsafe.Sizeof([]byte(nil)))
		total += int64(cap(pu.freeSlots)) * int64(unsafe.Sizeof(int32(0)))
		pu.mu.Unlock()
	}
	return total
}

// ChannelUtilization reports per-group channel utilization over [0, now].
func (d *Device) ChannelUtilization(now vclock.Time) []float64 {
	out := make([]float64, d.geo.Groups)
	for g, r := range d.channels {
		out[g] = r.Utilization(now)
	}
	return out
}

// maxFaultEvents bounds the fault log page's event ring.
const maxFaultEvents = 64

// FaultEvent is one chunk-level fault the device recorded (grown-bad
// retirement, program/erase failure, injected read escalation).
type FaultEvent struct {
	Chunk ChunkID
	Err   string
}

// FaultLog is the device's fault/error log page: injector counters plus
// the most recent chunk-level fault events.
type FaultLog struct {
	Injected       fault.Stats
	GrownBadChunks int64
	Events         []FaultEvent
}

// FaultLog snapshots the fault/error log page.
func (d *Device) FaultLog() FaultLog {
	fl := FaultLog{GrownBadChunks: d.stats.grownBadChunks.Load()}
	if d.faults != nil {
		fl.Injected = d.faults.Stats()
	}
	d.faultMu.Lock()
	fl.Events = append([]FaultEvent(nil), d.faultEvents...)
	d.faultMu.Unlock()
	return fl
}

func (d *Device) notify(id ChunkID, err error) {
	d.faultMu.Lock()
	if len(d.faultEvents) >= maxFaultEvents {
		copy(d.faultEvents, d.faultEvents[1:])
		d.faultEvents = d.faultEvents[:maxFaultEvents-1]
	}
	d.faultEvents = append(d.faultEvents, FaultEvent{Chunk: id, Err: err.Error()})
	d.faultMu.Unlock()
	select {
	case d.asyncC <- AsyncError{Chunk: id, Err: err}:
	default: // drop when nobody is listening
	}
}

// retireChunk transitions a chunk to OFFLINE (grown bad), records the
// transition durably and notifies listeners. Caller holds the PU lock.
func (d *Device) retireChunk(pu *puState, id ChunkID, err error) {
	m := &pu.chunks[id.Chunk]
	if m.state == ChunkOpen {
		pu.open--
		pu.putSlot(m.bufSlot)
		m.bufSlot = -1
	}
	m.state = ChunkOffline
	d.stats.grownBadChunks.Add(1)
	if d.backend != nil {
		d.backend.logState(d.flatChunk(id), ChunkOffline, int(m.wp), int(m.wear))
	}
	d.notify(id, err)
}

// die finishes a power cut. With PLP, capacitor power flushes every
// buffered partial stripe (padded to a full stripe) to the durable
// backend; then the backend stops accepting writes. In-memory state is
// left as-is — the device is dead, and only what OpenDevice can restore
// from the backend matters. cur is the PU lock the caller already
// holds (nil if none). dieOnce guarantees a single execution even when
// concurrent operations all observe the cut.
func (d *Device) die(cur *puState) {
	d.dieOnce.Do(func() {
		if d.backend == nil {
			return
		}
		if d.opts.PowerLossProtected {
			scratch := make([]byte, d.stripeBytes())
			spc := d.geo.SectorsPerChunk()
			for g := 0; g < d.geo.Groups; g++ {
				for u := 0; u < d.geo.PUsPerGroup; u++ {
					pu := d.pu(g, u)
					if pu != cur {
						pu.mu.Lock()
					}
					for c := range pu.chunks {
						m := &pu.chunks[c]
						buf := pu.buffered(m)
						if m.state != ChunkOpen || len(buf) == 0 {
							continue
						}
						base := d.bufBase(pu, m)
						n := copy(scratch, buf)
						clear(scratch[n:])
						flat := d.flatChunk(ChunkID{g, u, c})
						d.backend.writeData(flat, base, scratch)
						st := ChunkOpen
						if base+d.geo.WSOpt == spc {
							st = ChunkClosed
						}
						d.backend.logState(flat, st, base+d.geo.WSOpt, int(m.wear))
					}
					if pu != cur {
						pu.mu.Unlock()
					}
				}
			}
		}
		d.backend.markDead()
	})
}

// dieOnProgram is a power cut landing on an in-flight stripe program.
// With PLP the stripe completes on capacitor power; without it, at most
// a torn prefix of the stripe's data reaches the backend — and no
// chunk-state record, so the restored write pointer excludes it.
func (d *Device) dieOnProgram(pu *puState, id ChunkID, baseSector int, buf []byte, torn int) {
	if d.backend != nil {
		flat := d.flatChunk(id)
		if d.opts.PowerLossProtected {
			d.backend.writeData(flat, baseSector, buf)
			st := ChunkOpen
			if baseSector+d.geo.WSOpt == d.geo.SectorsPerChunk() {
				st = ChunkClosed
			}
			d.backend.logState(flat, st, baseSector+d.geo.WSOpt, int(pu.chunks[id.Chunk].wear))
		} else if torn > 0 {
			d.backend.writeData(flat, baseSector, buf[:torn*d.geo.Chip.SectorSize])
		}
	}
	d.die(pu)
}

// Close releases the durable backend's file handles (no-op in-memory).
func (d *Device) Close() error {
	if d.backend != nil {
		return d.backend.Close()
	}
	return nil
}

// Chunk reports the chunk-log entry for one chunk.
func (d *Device) Chunk(id ChunkID) (ChunkInfo, error) {
	if err := d.geo.CheckPPA(id.PPAOf(0)); err != nil {
		return ChunkInfo{}, err
	}
	pu := d.pu(id.Group, id.PU)
	pu.mu.Lock()
	defer pu.mu.Unlock()
	m := &pu.chunks[id.Chunk]
	return ChunkInfo{ID: id, State: m.state, WP: int(m.wp), Wear: int(m.wear)}, nil
}

// Report returns the full chunk log (every chunk on the device).
func (d *Device) Report() []ChunkInfo {
	out := make([]ChunkInfo, 0, d.geo.Groups*d.geo.PUsPerGroup*d.geo.ChunksPerPU)
	for g := 0; g < d.geo.Groups; g++ {
		for u := 0; u < d.geo.PUsPerGroup; u++ {
			pu := d.pu(g, u)
			pu.mu.Lock()
			for c := range pu.chunks {
				m := &pu.chunks[c]
				out = append(out, ChunkInfo{
					ID:    ChunkID{g, u, c},
					State: m.state,
					WP:    int(m.wp),
					Wear:  int(m.wear),
				})
			}
			pu.mu.Unlock()
		}
	}
	return out
}

// stripeBytes is the size of one ws_opt stripe in bytes.
func (d *Device) stripeBytes() int { return d.geo.WSOpt * d.geo.Chip.SectorSize }

// programStripe writes one complete wordline stripe (ws_opt sectors) to
// NAND and accounts its virtual timing. buf is one stripe long, but only
// buf[:payload] holds bytes: the rest is padding, which is a length, not
// data — its pages are programmed with the chip's zero-page call and its
// bytes are written nowhere. payload is a whole number of pages because
// writes are ws_min multiples and ws_min is one page. Only the durable
// backend stores pads as bytes (and a power cut mid-program re-reads the
// buffer to persist it), so that is the one place the tail is cleared.
// The caller holds the PU lock. It returns the virtual completion
// instant.
func (d *Device) programStripe(at vclock.Time, pu *puState, id ChunkID, baseSector int, buf []byte, payload int) (vclock.Time, error) {
	geo := d.geo
	chip := d.chips[id.Group][id.PU]
	bits := geo.Chip.Cell.BitsPerCell()
	pageBytes := geo.Chip.PageBytes()
	if d.backend != nil {
		clear(buf[payload:])
	}

	// Timing: the whole stripe crosses the channel bus once, then the
	// chip programs bits paired pages (planes program in parallel).
	_, xferEnd := d.channels[id.Group].Acquire(at, vclock.DurationFor(int64(len(buf)), geo.ChannelMBps))
	var progDur vclock.Duration
	firstPage := geo.locate(baseSector).page
	for b := 0; b < bits; b++ {
		progDur += chip.ProgramTime(firstPage + b)
	}
	_, progEnd := d.chipRes[id.Group][id.PU].Acquire(xferEnd, progDur)

	// Fault injection: a stripe program is one media op.
	if d.faults != nil {
		v := d.faults.OnOp(fault.OpProgram, uint64(d.flatChunk(id)), geo.WSOpt)
		if v.PowerCut {
			d.dieOnProgram(pu, id, baseSector, buf, v.TornSectors)
			return progEnd, fmt.Errorf("program %v: %w", id, fault.ErrPowerCut)
		}
		if v.Err != nil {
			d.retireChunk(pu, id, v.Err)
			return progEnd, fmt.Errorf("program %v: %w", id, v.Err)
		}
	}

	// State: program each (plane, paired) page of the stripe. This is the
	// one copy a payload byte gets, into the page that stores it.
	for p := 0; p < geo.Chip.Planes; p++ {
		for b := 0; b < bits; b++ {
			off := (p*bits + b) * pageBytes
			var err error
			if off < payload {
				err = chip.Program(p, id.Chunk, firstPage+b, buf[off:off+pageBytes], nil)
			} else {
				err = chip.ProgramZero(p, id.Chunk, firstPage+b)
			}
			if err != nil {
				d.retireChunk(pu, id, err)
				return progEnd, fmt.Errorf("program %v: %w", id, err)
			}
		}
	}
	m := &pu.chunks[id.Chunk]
	// Persist the programmed stripe and its state transition. Data goes
	// first: a cut between the two leaves the durable write pointer at
	// the previous record, which covers only fully persisted data.
	if d.backend != nil {
		flat := d.flatChunk(id)
		if err := d.backend.writeData(flat, baseSector, buf); err != nil {
			return progEnd, err
		}
		st := ChunkOpen
		if baseSector+geo.WSOpt == geo.SectorsPerChunk() {
			st = ChunkClosed
		}
		if err := d.backend.logState(flat, st, baseSector+geo.WSOpt, int(m.wear)); err != nil {
			return progEnd, err
		}
	}
	if progEnd > m.flushEnd {
		m.flushEnd = progEnd
	}
	return progEnd, nil
}

// writeChunk appends to a chunk at its write pointer: the payload in
// data, or — when data is nil, which is how Pad calls it — pad bytes of
// padding, which only ever exist as a length (writers pass pad 0). A
// whole stripe arriving with nothing buffered is programmed
// straight from the caller's slice, its one copy being the one into the
// NAND pages; anything less is gathered in the chunk's stripe buffer,
// where it stays readable, and programmed from there. Either way the
// device keeps no reference to data once it returns. The caller holds
// the PU lock. Returns the client-visible completion time.
func (d *Device) writeChunk(now vclock.Time, pu *puState, id ChunkID, sector int, data []byte, pad int) (vclock.Time, error) {
	geo := d.geo
	m := &pu.chunks[id.Chunk]
	sz := geo.Chip.SectorSize
	size := len(data) + pad

	switch m.state {
	case ChunkOffline:
		return now, fmt.Errorf("%w: %v", ErrOffline, id)
	case ChunkClosed:
		return now, fmt.Errorf("%w: write to closed %v", ErrChunkState, id)
	case ChunkFree:
		if pu.open >= geo.MaxOpenPerPU {
			return now, fmt.Errorf("%w: %v", ErrOpenLimit, id)
		}
		m.state = ChunkOpen
		pu.open++
	}
	if m.bufSlot < 0 {
		// Freshly opened, or restored open without a write yet: assign a
		// stripe-buffer slot.
		m.bufSlot = pu.getSlot(d.stripeBytes())
	}
	if sector != int(m.wp) {
		return now, fmt.Errorf("%w: %v sector %d, wp %d", ErrWritePointer, id, sector, m.wp)
	}
	if int(m.wp)+size/sz > geo.SectorsPerChunk() {
		return now, fmt.Errorf("%w: %v", ErrChunkFull, id)
	}

	// Client-visible cost: admission to the write-back cache (may wait
	// for drain) plus the DRAM copy. Without a cache, the client also
	// waits for every stripe program it completes.
	completeAt := now
	if d.cache.enabled() {
		completeAt = d.cache.admit(now, int64(size))
	}
	copyDur := vclock.DurationFor(int64(size), geo.CacheMBps)
	completeAt = completeAt.Add(copyDur)

	stripe := d.stripeBytes()
	slot := m.bufSlot
	var lastProg vclock.Time
	for size > 0 {
		buf := pu.bufs[slot]
		take := min(size, stripe-len(buf))
		size -= take
		m.wp += int32(take / sz)
		// img is the stripe as far as it is filled; img[:payload] holds
		// bytes, anything past it is padding.
		var img []byte
		payload := len(buf)
		switch {
		case data == nil:
			// Padding extends the buffer by a length; nobody writes it.
			img = buf[:len(buf)+take]
			pu.bufs[slot] = img
		case len(buf) == 0 && take == stripe && d.backend == nil:
			// A whole stripe with nothing buffered bypasses the buffer. The
			// durable backend keeps the staged path: a power cut that lands
			// on the program persists the stripe from the buffer.
			img, payload = data[:take], take
		default:
			img = append(buf, data[:take]...)
			pu.bufs[slot] = img
			payload = len(img)
		}
		if data != nil {
			data = data[take:]
		}
		if len(img) == stripe {
			// The stripe is complete, so its base is exactly one stripe
			// behind the (already advanced) write pointer.
			progEnd, err := d.programStripe(completeAt, pu, id, int(m.wp)-geo.WSOpt, img, payload)
			if err != nil {
				return completeAt, err
			}
			if d.cache.enabled() {
				// Earlier contributions to this stripe released their
				// holds when their own writes completed; only this
				// write's portion is still held.
				d.cache.occupy(progEnd, int64(take))
			}
			lastProg = progEnd
			pu.bufs[slot] = pu.bufs[slot][:0]
		} else if d.cache.enabled() {
			// Partial-stripe remainder: release the hold immediately;
			// the stripe buffer is small, bounded controller state.
			d.cache.occupy(completeAt, int64(take))
		}
	}
	if !d.cache.enabled() && lastProg > completeAt {
		completeAt = lastProg
	}
	if int(m.wp) == geo.SectorsPerChunk() {
		m.state = ChunkClosed
		pu.putSlot(slot)
		m.bufSlot = -1
		pu.open--
	}
	return completeAt, nil
}

// VectorWrite executes a scatter-gather write (§2.2). Every run of
// sectors within a chunk must start at that chunk's write pointer and be
// a multiple of ws_min. Data holds len(ppas) sectors, in ppas order.
// Returns the client-visible virtual completion instant.
func (d *Device) VectorWrite(now vclock.Time, ppas []PPA, data []byte) (vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return now, err
	}
	if len(data) != len(ppas)*geo.Chip.SectorSize {
		return now, fmt.Errorf("%w: %d bytes for %d sectors", ErrDataSize, len(data), len(ppas))
	}
	if len(ppas) == 0 {
		return now, nil
	}
	for _, p := range ppas {
		if err := geo.CheckPPA(p); err != nil {
			return now, err
		}
	}

	end := now
	i := 0
	for i < len(ppas) {
		// Coalesce the maximal contiguous run within one chunk.
		j := i + 1
		for j < len(ppas) && ppas[j].ChunkOf() == ppas[i].ChunkOf() && ppas[j].Sector == ppas[j-1].Sector+1 {
			j++
		}
		run := j - i
		if run%geo.WSMin != 0 {
			return now, fmt.Errorf("%w: run of %d sectors at %v", ErrWriteSize, run, ppas[i])
		}
		sz := geo.Chip.SectorSize
		pu := d.pu(ppas[i].Group, ppas[i].PU)
		pu.mu.Lock()
		t, err := d.writeChunk(now, pu, ppas[i].ChunkOf(), ppas[i].Sector, data[i*sz:j*sz], 0)
		pu.mu.Unlock()
		if err != nil {
			return now, err
		}
		if t > end {
			end = t
		}
		i = j
	}
	d.stats.vectorWrites.Add(1)
	d.stats.sectorsWritten.Add(int64(len(ppas)))
	return end, nil
}

// Append writes data at the chunk's current write pointer and returns
// the starting sector that was assigned along with the completion time.
func (d *Device) Append(now vclock.Time, id ChunkID, data []byte) (int, vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return 0, now, err
	}
	if len(data) == 0 || len(data)%(geo.WSMin*geo.Chip.SectorSize) != 0 {
		return 0, now, fmt.Errorf("%w: %d bytes", ErrWriteSize, len(data))
	}
	if err := geo.CheckPPA(id.PPAOf(0)); err != nil {
		return 0, now, err
	}
	pu := d.pu(id.Group, id.PU)
	pu.mu.Lock()
	start := int(pu.chunks[id.Chunk].wp)
	end, err := d.writeChunk(now, pu, id, start, data, 0)
	pu.mu.Unlock()
	if err != nil {
		return 0, now, err
	}
	d.stats.vectorWrites.Add(1)
	d.stats.sectorsWritten.Add(int64(len(data) / geo.Chip.SectorSize))
	return start, end, nil
}

// Pad fills the open partial stripe of a chunk with zero sectors so that
// everything appended so far becomes durable (programmed to NAND). It is
// how a WAL achieves synchronous commit on an append-only device. The
// padded sectors are wasted space accounted in Stats.PadSectors, and
// they cost what a write of that many zeros costs in virtual time — cache
// admission, DRAM copy, channel transfer, program — but in host time
// they are only a count: no zero byte is built, copied or scanned (the
// pad's pages are programmed with nand.Chip.ProgramZero).
func (d *Device) Pad(now vclock.Time, id ChunkID) (vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return now, err
	}
	if err := geo.CheckPPA(id.PPAOf(0)); err != nil {
		return now, err
	}
	pu := d.pu(id.Group, id.PU)
	pu.mu.Lock()
	defer pu.mu.Unlock()
	m := &pu.chunks[id.Chunk]
	if m.state != ChunkOpen || len(pu.buffered(m)) == 0 {
		return now, nil // nothing buffered: already durable
	}
	padBytes := d.stripeBytes() - len(pu.buffered(m))
	padSectors := padBytes / geo.Chip.SectorSize
	end, err := d.writeChunk(now, pu, id, int(m.wp), nil, padBytes)
	if err != nil {
		return now, err
	}
	// Pad is the durability barrier (FUA/flush): even with the write-back
	// cache on, the caller waits until the chunk's pending programs hit
	// NAND.
	if m.flushEnd > end {
		end = m.flushEnd
	}
	d.stats.padSectors.Add(int64(padSectors))
	return end, nil
}

// chargedPage records one distinct page already charged tR within a
// vector read. Vectors are short (a block read is one stripe, a handful
// of pages), so a linear scan beats a map and stays off the heap.
type chargedPage struct {
	id   ChunkID
	page int
	end  vclock.Time
}

// VectorRead executes a scatter-gather read of logical blocks into dst
// (len(ppas) sectors). Reads served from the controller buffer or the
// write-back cache cost DRAM time; media reads cost tR per distinct page
// plus the channel transfer. Returns the virtual completion instant.
// It is VectorView with a visitor that copies every sector out.
func (d *Device) VectorRead(now vclock.Time, ppas []PPA, dst []byte) (vclock.Time, error) {
	if err := d.alive(); err != nil {
		return now, err
	}
	sz := d.geo.Chip.SectorSize
	if len(dst) != len(ppas)*sz {
		return now, fmt.Errorf("%w: %d bytes for %d sectors", ErrDataSize, len(dst), len(ppas))
	}
	return d.VectorView(now, ppas, func(i int, sector []byte) {
		copy(dst[i*sz:(i+1)*sz], sector)
	})
}

// VectorView is the borrowed-view read: it executes the same scatter-
// gather read as VectorRead — same validation, fault hooks, chip reads,
// resource reservations and counters, in the same order — but instead of
// copying each sector out it hands visit the sector's bytes where they
// lie (controller stripe buffer or NAND page), in vector order, i being
// the sector's index in ppas. The read is charged in full whatever visit
// keeps: virtual time models the transfer, the host pays only for the
// bytes a caller copies.
//
// visit runs under the sector's PU lock. The slice it receives is device
// memory: it is valid only for that call, must not be retained or
// written, and visit must not call back into the device. Sectors visited
// before an error are not undone; the caller discards what it gathered.
func (d *Device) VectorView(now vclock.Time, ppas []PPA, visit func(i int, sector []byte)) (vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return now, err
	}
	for _, p := range ppas {
		if err := geo.CheckPPA(p); err != nil {
			return now, err
		}
	}

	sz := geo.Chip.SectorSize
	end := now
	var cacheHits, mediaReads int64
	// Track distinct pages charged per chip so one page read serves all
	// its sectors in this vector. The slice stays on the stack for
	// typical vector sizes.
	charged := make([]chargedPage, 0, 16)

	i := 0
	for i < len(ppas) {
		// Process the maximal run of sectors on one parallel unit under
		// that PU's lock; distinct PUs never contend.
		g, u := ppas[i].Group, ppas[i].PU
		j := i + 1
		for j < len(ppas) && ppas[j].Group == g && ppas[j].PU == u {
			j++
		}
		pu := d.pu(g, u)
		pu.mu.Lock()
		for k := i; k < j; k++ {
			p := ppas[k]
			m := &pu.chunks[p.Chunk]
			if m.state == ChunkOffline {
				pu.mu.Unlock()
				return now, fmt.Errorf("%w: %v", ErrOffline, p)
			}
			if p.Sector >= int(m.wp) {
				pu.mu.Unlock()
				return now, fmt.Errorf("%w: %v (wp %d)", ErrUnwritten, p, m.wp)
			}
			// Fault injection: one media op per distinct chunk in the run.
			if d.faults != nil && (k == i || p.Chunk != ppas[k-1].Chunk) {
				v := d.faults.OnOp(fault.OpRead, uint64(d.flatChunk(p.ChunkOf())), 0)
				if v.PowerCut {
					d.die(pu)
					pu.mu.Unlock()
					return now, fmt.Errorf("read %v: %w", p, fault.ErrPowerCut)
				}
				if v.Err != nil {
					if v.GrowBad {
						d.retireChunk(pu, p.ChunkOf(), v.Err)
					}
					pu.mu.Unlock()
					return now, fmt.Errorf("read %v: %w", p, v.Err)
				}
			}
			// Still in the partial-stripe controller buffer?
			if base, buf := d.bufBase(pu, m), pu.buffered(m); m.state == ChunkOpen && p.Sector >= base && (p.Sector-base+1)*sz <= len(buf) {
				off := (p.Sector - base) * sz
				visit(k, buf[off:off+sz:off+sz])
				t := now.Add(vclock.DurationFor(int64(sz), geo.CacheMBps))
				if t > end {
					end = t
				}
				cacheHits++
				continue
			}
			loc := geo.locate(p.Sector)
			data, _, err := d.chips[g][u].Read(loc.plane, p.Chunk, loc.page)
			if err != nil {
				pu.mu.Unlock()
				return now, fmt.Errorf("read %v: %w", p, err)
			}
			visit(k, data[loc.sector*sz:(loc.sector+1)*sz:(loc.sector+1)*sz])
			// Write-back cache window: data not yet drained reads at DRAM speed.
			if d.cache.enabled() && m.flushEnd > now {
				t := now.Add(vclock.DurationFor(int64(sz), geo.CacheMBps))
				if t > end {
					end = t
				}
				cacheHits++
				continue
			}
			id := p.ChunkOf()
			var tREnd vclock.Time
			found := false
			for ci := range charged {
				if charged[ci].id == id && charged[ci].page == loc.page {
					tREnd = charged[ci].end
					found = true
					break
				}
			}
			if !found {
				_, tREnd = d.chipRes[g][u].Acquire(now, d.chips[g][u].ReadTime())
				charged = append(charged, chargedPage{id: id, page: loc.page, end: tREnd})
			}
			_, xferEnd := d.channels[g].Acquire(tREnd, vclock.DurationFor(int64(sz), geo.ChannelMBps))
			if xferEnd > end {
				end = xferEnd
			}
			mediaReads++
		}
		pu.mu.Unlock()
		i = j
	}
	d.stats.vectorReads.Add(1)
	d.stats.sectorsRead.Add(int64(len(ppas)))
	d.stats.cacheHitReads.Add(cacheHits)
	d.stats.mediaReads.Add(mediaReads)
	return end, nil
}

// Reset erases a chunk (§2.2: "A chunk must be reset before it is
// written again"). The chunk returns to the free state with its write
// pointer at zero; wear increases by one.
func (d *Device) Reset(now vclock.Time, id ChunkID) (vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return now, err
	}
	if err := geo.CheckPPA(id.PPAOf(0)); err != nil {
		return now, err
	}
	pu := d.pu(id.Group, id.PU)
	pu.mu.Lock()
	defer pu.mu.Unlock()
	m := &pu.chunks[id.Chunk]
	switch m.state {
	case ChunkOffline:
		return now, fmt.Errorf("%w: %v", ErrOffline, id)
	case ChunkFree:
		return now, fmt.Errorf("%w: reset of free %v", ErrChunkState, id)
	case ChunkOpen:
		pu.open--
	}
	// Multi-plane erase: planes erase in parallel, one erase duration.
	chip := d.chips[id.Group][id.PU]
	_, end := d.chipRes[id.Group][id.PU].Acquire(now, chip.EraseTime())
	// offlineHere marks the chunk grown-bad. The open count was already
	// settled by the state switch above, so this does not use retireChunk.
	offlineHere := func(cause error) {
		m.state = ChunkOffline
		pu.putSlot(m.bufSlot)
		m.bufSlot = -1
		d.stats.grownBadChunks.Add(1)
		if d.backend != nil {
			d.backend.logState(d.flatChunk(id), ChunkOffline, int(m.wp), int(m.wear))
		}
		d.notify(id, cause)
	}
	if d.faults != nil {
		v := d.faults.OnOp(fault.OpErase, uint64(d.flatChunk(id)), 0)
		if v.PowerCut {
			d.die(pu)
			return end, fmt.Errorf("reset %v: %w", id, fault.ErrPowerCut)
		}
		if v.Err != nil {
			offlineHere(v.Err)
			return end, fmt.Errorf("reset %v: %w", id, v.Err)
		}
	}
	if err := chip.EraseMulti(id.Chunk); err != nil {
		offlineHere(err)
		return end, fmt.Errorf("reset %v: %w", id, err)
	}
	m.state = ChunkFree
	m.wp = 0
	m.wear++
	pu.putSlot(m.bufSlot)
	m.bufSlot = -1
	if d.backend != nil {
		if err := d.backend.logState(d.flatChunk(id), ChunkFree, 0, int(m.wear)); err != nil {
			return end, err
		}
	}
	d.stats.resets.Add(1)
	return end, nil
}

// Copy moves logical blocks inside the device without host involvement
// (§2.2: "copy of logical blocks (within the Open-Channel SSD, without
// host involvement)"). Source sectors are appended to the destination
// chunk at its write pointer. Returns the assigned destination sectors'
// starting index and the completion instant.
func (d *Device) Copy(now vclock.Time, src []PPA, dst ChunkID) (int, vclock.Time, error) {
	geo := d.geo
	if len(src) == 0 || len(src)%geo.WSMin != 0 {
		return 0, now, fmt.Errorf("%w: %d source sectors", ErrWriteSize, len(src))
	}
	sz := geo.Chip.SectorSize
	need := len(src) * sz
	var buf []byte
	if v := d.copyBufs.Get(); v != nil {
		buf = *(v.(*[]byte))
	}
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	defer func() {
		d.copyBufs.Put(&buf)
	}()
	// Device-internal read of the sources (tR per page, no host channel).
	end, err := d.VectorRead(now, src, buf)
	if err != nil {
		return 0, now, err
	}
	start, end2, err := d.Append(end, dst, buf)
	if err != nil {
		return 0, now, err
	}
	d.stats.copies.Add(1)
	return start, end2, nil
}

// FlushAll pads every open chunk so that all appended data is programmed
// (used for clean shutdown). Returns the latest completion instant.
func (d *Device) FlushAll(now vclock.Time) (vclock.Time, error) {
	end := now
	for g := 0; g < d.geo.Groups; g++ {
		for u := 0; u < d.geo.PUsPerGroup; u++ {
			pu := d.pu(g, u)
			for c := 0; c < d.geo.ChunksPerPU; c++ {
				pu.mu.Lock()
				needs := pu.chunks[c].state == ChunkOpen && len(pu.buffered(&pu.chunks[c])) > 0
				pu.mu.Unlock()
				if !needs {
					continue
				}
				t, err := d.Pad(now, ChunkID{g, u, c})
				if err != nil {
					return end, err
				}
				if t > end {
					end = t
				}
			}
		}
	}
	return end, nil
}

// Crash simulates sudden power loss of the *controller DRAM*: partial
// stripe buffers are lost unless the device is power-loss protected, and
// the chunk write pointers retreat to the last programmed stripe. NAND
// contents survive. Chunk states remain intact (they are reconstructed
// from NAND in reality; the chunk report is the durable source of truth).
func (d *Device) Crash() {
	for g := 0; g < d.geo.Groups; g++ {
		for u := 0; u < d.geo.PUsPerGroup; u++ {
			pu := d.pu(g, u)
			pu.mu.Lock()
			for c := range pu.chunks {
				m := &pu.chunks[c]
				buffered := pu.buffered(m)
				if m.state != ChunkOpen || len(buffered) == 0 {
					continue
				}
				base := d.bufBase(pu, m)
				if d.opts.PowerLossProtected {
					// Capacitors flush the partial stripe with padding.
					padBytes := d.stripeBytes() - len(buffered)
					if _, err := d.programStripe(0, pu, ChunkID{g, u, c}, base, buffered[:d.stripeBytes()], len(buffered)); err == nil {
						m.wp = int32(base + d.geo.WSOpt)
					}
					d.stats.padSectors.Add(int64(padBytes / d.geo.Chip.SectorSize))
				} else {
					// Buffered sectors vanish: the write pointer retreats.
					m.wp = int32(base)
				}
				pu.putSlot(m.bufSlot)
				m.bufSlot = -1
			}
			pu.mu.Unlock()
		}
	}
}
