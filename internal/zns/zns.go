// Package zns implements OX-ZNS: the Zoned-Namespaces target that §2.3
// of the paper describes but that was never released ("It should be
// straightforward to define a LightNVM target that exposes the ZNS
// interface through a host-based FTL on top of Open-Channel SSDs, but
// this has not - to the best of our knowledge - been released or even
// announced"). It is the lighter-colored OX-ZNS quadrant of Figure 1.
//
// A zone is a fixed run of chunks confined to one group (so zone resets
// and writes never interfere across zones in different groups — the
// same isolation argument as vertical placement). The host sees the ZNS
// abstraction of §2.3: zones "must be written sequentially and reset
// before rewriting"; the FTL handles placement, the write pointer and
// wear, while the device handles planes and paired pages underneath.
package zns

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// ZoneState follows the NVMe ZNS state machine (reduced).
type ZoneState uint8

// Zone states.
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
	ZoneOffline
)

func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "empty"
	case ZoneOpen:
		return "open"
	case ZoneFull:
		return "full"
	case ZoneOffline:
		return "offline"
	default:
		return fmt.Sprintf("ZoneState(%d)", uint8(s))
	}
}

// Errors returned by the target.
var (
	ErrZoneRange    = errors.New("zns: zone index out of range")
	ErrZoneState    = errors.New("zns: invalid zone state for command")
	ErrWritePointer = errors.New("zns: write not at the zone write pointer")
	ErrZoneFull     = errors.New("zns: write exceeds zone capacity")
	ErrAlignment    = errors.New("zns: length not a multiple of the block size")
	ErrUnwritten    = errors.New("zns: read beyond the write pointer")
)

// Config sizes the target.
type Config struct {
	// ChunksPerZone is the number of chunks backing one zone (within a
	// single group). Zero selects the PUs-per-group (one chunk per PU).
	ChunksPerZone int
}

// ZoneInfo is one zone-report entry.
type ZoneInfo struct {
	Index    int
	State    ZoneState
	WP       int64 // next writable byte offset within the zone
	Capacity int64 // usable bytes
	Group    int   // the OCSSD group backing the zone
}

// Target is a ZNS namespace over an Open-Channel SSD.
//
// Locking is per zone: the zone table is immutable after New (zone
// count, chunk lists and group assignments never change), and each
// zone's mutable state — write pointer and state machine — sits behind
// that zone's own mutex. Commands on different zones therefore never
// contend in the FTL, and because every zone is confined to one device
// group, commands on zones in *different groups* share no media timing
// resource at all (per-group channel bus, per-PU chip timeline). That
// is the overlap the host's batched executor exploits: disjoint-group
// zone commands run concurrently end-to-end with bit-identical virtual
// timing. The one device-global exception is the write-back cache
// admission tracker; see ConcurrentWriteSafe.
type Target struct {
	ctrl  *ox.Controller
	media ox.Media
	geo   ocssd.Geometry
	cfg   Config

	zones []zone // immutable table; per-zone state behind zone.mu

	// stagingMu guards staging, the free list of ReadInto's per-block
	// PPA lists: a steady stream of reads allocates nothing.
	stagingMu sync.Mutex
	staging   [][]ocssd.PPA
}

type zone struct {
	mu     sync.Mutex
	state  ZoneState
	wp     int64
	chunks []ocssd.ChunkID // immutable
	group  int             // immutable
}

// New builds the target, carving every usable chunk into zones.
func New(ctrl *ox.Controller, cfg Config) (*Target, error) {
	geo := ctrl.Media().Geometry()
	if cfg.ChunksPerZone <= 0 {
		cfg.ChunksPerZone = geo.PUsPerGroup
	}
	t := &Target{ctrl: ctrl, media: ctrl.Media(), geo: geo, cfg: cfg}

	// Group chunks by OCSSD group, skipping offline ones, and carve
	// fixed-size zones out of each group (ZNS zones never span groups).
	// Note: carving follows report order, so a chunk that goes offline
	// between incarnations shifts the carving; rebuild-after-restore
	// assumes the offline set is stable across the crash.
	perGroup := make([][]ocssd.ChunkID, geo.Groups)
	infoByID := make(map[ocssd.ChunkID]ocssd.ChunkInfo)
	for _, ci := range t.media.Report() {
		infoByID[ci.ID] = ci
		if ci.State == ocssd.ChunkOffline {
			continue
		}
		perGroup[ci.ID.Group] = append(perGroup[ci.ID.Group], ci.ID)
	}
	type zoneSpec struct {
		chunks []ocssd.ChunkID
		group  int
	}
	var specs []zoneSpec
	for g, chunks := range perGroup {
		for len(chunks) >= cfg.ChunksPerZone {
			specs = append(specs, zoneSpec{
				chunks: chunks[:cfg.ChunksPerZone],
				group:  g,
			})
			chunks = chunks[cfg.ChunksPerZone:]
		}
	}
	if len(specs) == 0 {
		return nil, errors.New("zns: device too small for a single zone")
	}
	t.zones = make([]zone, len(specs))
	for i, s := range specs {
		t.zones[i].chunks = s.chunks
		t.zones[i].group = s.group
		t.rebuildZone(&t.zones[i], infoByID)
	}
	return t, nil
}

// rebuildZone derives a zone's state machine from the chunk report, so
// a target built over a device restored from its durable backend
// resumes exactly where the previous incarnation stopped. This is the
// ZNS counterpart of WAL replay: zone state is a pure function of the
// chunk write pointers. Blocks rotate round-robin over the zone's n
// chunks, so if chunk i holds s_i full stripes, the first missing block
// is B = min_i(i + s_i·n) and the zone write pointer is B blocks. A
// chunk holding more stripes than B implies (a torn multi-chunk append
// that died mid-rotation) leaves the zone unappendable past B: the zone
// surfaces as Full — readable up to the WP — until the host resets it.
func (t *Target) rebuildZone(z *zone, info map[ocssd.ChunkID]ocssd.ChunkInfo) {
	n := int64(len(z.chunks))
	blockBytes := int64(t.BlockSize())
	torn := false
	minB := int64(-1)
	for i, id := range z.chunks {
		ci := info[id]
		if ci.State == ocssd.ChunkOffline {
			z.state = ZoneOffline
			return
		}
		if ci.WP%t.geo.WSOpt != 0 {
			torn = true // a partial stripe can never be a whole zone block
		}
		b := int64(i) + int64(ci.WP/t.geo.WSOpt)*n
		if minB < 0 || b < minB {
			minB = b
		}
	}
	for i, id := range z.chunks {
		if int64(info[id].WP/t.geo.WSOpt) > (minB+n-1-int64(i))/n {
			torn = true
		}
	}
	z.wp = minB * blockBytes
	switch {
	case z.wp >= t.ZoneCapacity():
		z.wp = t.ZoneCapacity()
		z.state = ZoneFull
	case torn:
		z.state = ZoneFull
	case z.wp == 0:
		z.state = ZoneEmpty
	default:
		z.state = ZoneOpen
	}
}

// BlockSize is the write granularity: the device's unit of write, so
// the host never sees planes or paired pages (§2.3: ZNS "shields the
// host from the complexities of the physical address space").
func (t *Target) BlockSize() int { return t.geo.UnitOfWriteBytes() }

// ZoneCapacity reports the usable bytes of one zone.
func (t *Target) ZoneCapacity() int64 {
	return int64(t.cfg.ChunksPerZone) * t.geo.ChunkBytes()
}

// Zones reports the number of zones (fixed at construction).
func (t *Target) Zones() int { return len(t.zones) }

// Controller reports the OX controller the target accounts against —
// the execution domain the host interface keys zone footprints by.
func (t *Target) Controller() *ox.Controller { return t.ctrl }

// ZoneGroup reports the device group backing zone idx. The mapping is
// fixed at construction: a zone never spans groups.
func (t *Target) ZoneGroup(idx int) (int, bool) {
	if idx < 0 || idx >= len(t.zones) {
		return 0, false
	}
	return t.zones[idx].group, true
}

// ConcurrentWriteSafe reports whether zone writes on different groups
// may overlap in wall-clock time without perturbing virtual timing.
// They may not when the device models a write-back cache: cache
// admission is device-global serially-reusable state, so overlapping
// writes would make its drain order scheduling-dependent. Reads are
// always safe — they never mutate the cache tracker.
func (t *Target) ConcurrentWriteSafe() bool {
	c, ok := t.media.(interface{ WriteCacheEnabled() bool })
	return ok && !c.WriteCacheEnabled()
}

// Report returns the zone report (the ZNS zone-management receive).
func (t *Target) Report() []ZoneInfo {
	out := make([]ZoneInfo, len(t.zones))
	for i := range t.zones {
		out[i] = t.info(i)
	}
	return out
}

// Zone reports one zone.
func (t *Target) Zone(idx int) (ZoneInfo, error) {
	if idx < 0 || idx >= len(t.zones) {
		return ZoneInfo{}, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	return t.info(idx), nil
}

func (t *Target) info(idx int) ZoneInfo {
	z := &t.zones[idx]
	z.mu.Lock()
	defer z.mu.Unlock()
	return ZoneInfo{
		Index:    idx,
		State:    z.state,
		WP:       z.wp,
		Capacity: t.ZoneCapacity(),
		Group:    z.group,
	}
}

// locate maps a zone byte offset to its chunk and chunk-local sector.
// Blocks rotate across the zone's chunks so sequential zone writes use
// the group's parallel units evenly.
func (t *Target) locate(z *zone, off int64) (ocssd.ChunkID, int) {
	blockBytes := int64(t.BlockSize())
	blockIdx := off / blockBytes
	chunk := z.chunks[blockIdx%int64(len(z.chunks))]
	stripe := int(blockIdx / int64(len(z.chunks)))
	return chunk, stripe * t.geo.WSOpt
}

// Write appends data at the zone's write pointer; offset must equal the
// WP (ZNS sequential-write-required) and data must be whole blocks.
func (t *Target) Write(now vclock.Time, idx int, offset int64, data []byte) (vclock.Time, error) {
	if idx < 0 || idx >= len(t.zones) {
		return now, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	z := &t.zones[idx]
	z.mu.Lock()
	defer z.mu.Unlock()
	if offset != z.wp {
		return now, fmt.Errorf("%w: offset %d, wp %d", ErrWritePointer, offset, z.wp)
	}
	return t.appendLocked(now, idx, data)
}

// Append is the ZNS zone-append: data lands at the current WP, whose
// value is returned (so concurrent appenders need no coordination).
func (t *Target) Append(now vclock.Time, idx int, data []byte) (int64, vclock.Time, error) {
	if idx < 0 || idx >= len(t.zones) {
		return 0, now, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	z := &t.zones[idx]
	z.mu.Lock()
	defer z.mu.Unlock()
	at := z.wp
	end, err := t.appendLocked(now, idx, data)
	return at, end, err
}

// appendLocked advances the zone write pointer. Caller holds the
// zone's mutex.
func (t *Target) appendLocked(now vclock.Time, idx int, data []byte) (vclock.Time, error) {
	z := &t.zones[idx]
	switch z.state {
	case ZoneOffline:
		return now, fmt.Errorf("%w: zone %d offline", ErrZoneState, idx)
	case ZoneFull:
		return now, fmt.Errorf("%w: zone %d full", ErrZoneState, idx)
	}
	blockBytes := int64(t.BlockSize())
	if len(data) == 0 || int64(len(data))%blockBytes != 0 {
		return now, fmt.Errorf("%w: %d bytes", ErrAlignment, len(data))
	}
	if z.wp+int64(len(data)) > t.ZoneCapacity() {
		return now, fmt.Errorf("%w: wp %d + %d > %d", ErrZoneFull, z.wp, len(data), t.ZoneCapacity())
	}
	z.state = ZoneOpen
	end := now
	for off := int64(0); off < int64(len(data)); off += blockBytes {
		chunk, _ := t.locate(z, z.wp)
		_, e, err := t.media.Append(end, chunk, data[off:off+blockBytes])
		if err != nil {
			z.state = ZoneOffline
			return end, fmt.Errorf("zns: zone %d: %w", idx, err)
		}
		end = e
		z.wp += blockBytes
	}
	t.ctrl.NoteUserIO()
	if z.wp == t.ZoneCapacity() {
		z.state = ZoneFull
	}
	return end, nil
}

// ReadInto reads len(dst) bytes of the zone starting at offset into
// dst; the range must be block-aligned and below the write pointer.
// Every byte of dst is written, and the target keeps no reference to
// it.
func (t *Target) ReadInto(now vclock.Time, idx int, offset int64, dst []byte) (vclock.Time, error) {
	if idx < 0 || idx >= len(t.zones) {
		return now, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	z := &t.zones[idx]
	length := int64(len(dst))
	blockBytes := int64(t.BlockSize())
	if length <= 0 || offset < 0 || offset%blockBytes != 0 || length%blockBytes != 0 {
		return now, fmt.Errorf("%w: [%d,+%d)", ErrAlignment, offset, length)
	}
	z.mu.Lock()
	wp := z.wp
	z.mu.Unlock()
	if offset+length > wp {
		return now, fmt.Errorf("%w: [%d,+%d) past wp %d", ErrUnwritten, offset, length, wp)
	}

	// locate reads only the zone's immutable chunk list, so the blocks
	// are placed without the zone lock, one at a time.
	ppas := t.stage()
	defer t.unstage(ppas)
	end := now
	for off := int64(0); off < length; off += blockBytes {
		chunk, base := t.locate(z, offset+off)
		for s := range ppas {
			ppas[s] = chunk.PPAOf(base + s)
		}
		var err error
		end, err = t.media.VectorRead(end, ppas, dst[off:off+blockBytes])
		if err != nil {
			return end, fmt.Errorf("zns: zone %d read: %w", idx, err)
		}
	}
	t.ctrl.NoteUserIO()
	return end, nil
}

// stage returns the PPA list of one block read, recycled when one is
// free. Zone reads on different groups run concurrently, so the list is
// never shared.
func (t *Target) stage() []ocssd.PPA {
	t.stagingMu.Lock()
	defer t.stagingMu.Unlock()
	if k := len(t.staging); k > 0 {
		ppas := t.staging[k-1]
		t.staging = t.staging[:k-1]
		return ppas
	}
	return make([]ocssd.PPA, t.geo.WSOpt)
}

// unstage recycles a block read's PPA list.
func (t *Target) unstage(ppas []ocssd.PPA) {
	t.stagingMu.Lock()
	t.staging = append(t.staging, ppas)
	t.stagingMu.Unlock()
}

// Reset returns the zone to empty (the ZNS reclaim primitive; chunk
// resets only, like SSTable deletion in LightLSM).
func (t *Target) Reset(now vclock.Time, idx int) (vclock.Time, error) {
	if idx < 0 || idx >= len(t.zones) {
		return now, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	z := &t.zones[idx]
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.state == ZoneOffline {
		return now, fmt.Errorf("%w: zone %d offline", ErrZoneState, idx)
	}
	end := now
	for _, id := range z.chunks {
		info, err := t.media.Chunk(id)
		if err != nil {
			return end, err
		}
		if info.State == ocssd.ChunkFree {
			continue
		}
		e, err := t.media.Reset(end, id)
		if err != nil {
			z.state = ZoneOffline
			return end, fmt.Errorf("zns: zone %d reset: %w", idx, err)
		}
		end = e
	}
	z.state = ZoneEmpty
	z.wp = 0
	return end, nil
}

// Finish transitions a partially written zone to full (no more writes),
// padding the underlying chunks so everything is durable.
func (t *Target) Finish(now vclock.Time, idx int) (vclock.Time, error) {
	if idx < 0 || idx >= len(t.zones) {
		return now, fmt.Errorf("%w: %d", ErrZoneRange, idx)
	}
	z := &t.zones[idx]
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.state == ZoneOffline {
		return now, fmt.Errorf("%w: zone %d offline", ErrZoneState, idx)
	}
	end := now
	for _, id := range z.chunks {
		e, err := t.media.Pad(end, id)
		if err != nil {
			return end, err
		}
		end = e
	}
	z.state = ZoneFull
	return end, nil
}
