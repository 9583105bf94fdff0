package ftlcore

import (
	"sync"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// ReverseMap records which logical page wrote each physical sector, so
// garbage collection can find the mapping entry to relocate. (Hardware
// FTLs keep this in the page OOB area; we keep it in controller RAM.)
// Per-chunk slabs live in a dense array indexed by flat chunk index —
// no map buckets, no hashing — allocated lazily on first write to a
// chunk and returned to a free list when the chunk is dropped, so at
// steady state a chunk's lifetime allocates nothing.
type ReverseMap struct {
	mu    sync.Mutex
	idx   chunkIndex
	slabs [][]int64 // per chunk, nil until first Set
	pool  [][]int64 // recycled slabs from dropped chunks
	n     int       // sectors per chunk
}

// NewReverseMap creates a reverse map for the geometry.
func NewReverseMap(geo ocssd.Geometry) *ReverseMap {
	idx := newChunkIndex(geo)
	return &ReverseMap{idx: idx, slabs: make([][]int64, idx.total), n: geo.SectorsPerChunk()}
}

// Set records that lba's data lives at ppa.
func (r *ReverseMap) Set(ppa ocssd.PPA, lba int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	flat := r.idx.flat(ppa.ChunkOf())
	s := r.slabs[flat]
	if s == nil {
		if n := len(r.pool); n > 0 {
			s = r.pool[n-1]
			r.pool = r.pool[:n-1]
		} else {
			s = make([]int64, r.n)
		}
		for i := range s {
			s[i] = -1
		}
		r.slabs[flat] = s
	}
	s[ppa.Sector] = lba
}

// Get reports the logical page that wrote ppa, if known.
func (r *ReverseMap) Get(ppa ocssd.PPA) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slabs[r.idx.flat(ppa.ChunkOf())]
	if s == nil || s[ppa.Sector] < 0 {
		return 0, false
	}
	return s[ppa.Sector], true
}

// Drop forgets a chunk (after reset), recycling its slab.
func (r *ReverseMap) Drop(id ocssd.ChunkID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	flat := r.idx.flat(id)
	if s := r.slabs[flat]; s != nil {
		r.slabs[flat] = nil
		r.pool = append(r.pool, s)
	}
}

// cpuPerSectorMove is controller CPU charged per relocated sector.
const cpuPerSectorMove = 2 * vclock.Microsecond

// GCConfig tunes garbage collection.
type GCConfig struct {
	// FreeThreshold triggers collection when the allocator's pool drops
	// below it; TargetFree is the level collection restores.
	FreeThreshold int
	TargetFree    int
	// GlobalVictims disables group marking: victims are picked device-
	// wide, spreading interference everywhere (the ablation baseline for
	// the §4.3 locality numbers).
	GlobalVictims bool
}

// GCStats aggregates collection activity and the interference accounting
// behind §4.3's locality percentages.
type GCStats struct {
	Collections     int64
	ChunksReclaimed int64
	SectorsMoved    int64
	// TotalAppIOs counts all application I/Os; IOsDuringGC counts those
	// issued while a collection was running; AffectedAppIOs counts those
	// that also landed on the marked group. The §4.3 locality claim is
	// 1 - Affected/DuringGC: with group-marked GC, (groups-1)/groups of
	// the I/O issued during collection never contends with it.
	TotalAppIOs    int64
	IOsDuringGC    int64
	AffectedAppIOs int64
}

// UnaffectedFraction reports the share of in-collection-window I/O that
// did not touch the marked group (the §4.3 percentages: 93.7% at 16
// channels, 87.5% at 8).
func (s GCStats) UnaffectedFraction() float64 {
	if s.IOsDuringGC == 0 {
		return 1
	}
	return 1 - float64(s.AffectedAppIOs)/float64(s.IOsDuringGC)
}

type gcWindow struct {
	group      int
	start, end vclock.Time
}

// GC is the garbage-collection component of Figure 2. §4.3: "OX-Block
// marks a group for collection. Then, background threads recycle victim
// chunks within that group. This guarantees locality of interferences
// from garbage collection."
type GC struct {
	media ox.Media
	ctrl  *ox.Controller
	alloc *Allocator
	val   *Validity
	rmap  *ReverseMap
	cfg   GCConfig
	geo   ocssd.Geometry

	// BeforeReset, when set, runs after a victim's live sectors are
	// relocated and before the victim is erased. FTLs use it to make
	// their relocation log records durable: without it, a crash between
	// relocation and reset could replay a mapping that points into an
	// erased chunk.
	BeforeReset func(now vclock.Time, victim ocssd.ChunkID) (vclock.Time, error)

	mu         sync.Mutex
	idx        chunkIndex
	candidates chunkSet        // closed data chunks, 1 bit per chunk
	dst        []ocssd.ChunkID // open GC destination per group
	dstOpen    []bool
	dstWP      []int
	reclaim    []int       // pickGroup scratch, one counter per group
	src        []ocssd.PPA // collectChunk scratch; an FTL never overlaps its Collect calls
	marked     int         // group under collection; -1 when idle
	windows    []gcWindow
	samples    []gcSample
	stats      GCStats
}

// gcSample is one recorded application I/O for interference accounting.
type gcSample struct {
	group int
	at    vclock.Time
}

// NewGC builds the collector.
func NewGC(media ox.Media, ctrl *ox.Controller, alloc *Allocator, val *Validity, rmap *ReverseMap, cfg GCConfig) *GC {
	if cfg.TargetFree < cfg.FreeThreshold {
		cfg.TargetFree = cfg.FreeThreshold
	}
	geo := media.Geometry()
	idx := newChunkIndex(geo)
	return &GC{
		media:      media,
		ctrl:       ctrl,
		alloc:      alloc,
		val:        val,
		rmap:       rmap,
		cfg:        cfg,
		geo:        geo,
		idx:        idx,
		candidates: newChunkSet(idx.total),
		dst:        make([]ocssd.ChunkID, geo.Groups),
		dstOpen:    make([]bool, geo.Groups),
		dstWP:      make([]int, geo.Groups),
		reclaim:    make([]int, geo.Groups),
		marked:     -1,
	}
}

// AddCandidate registers a closed data chunk as collectable.
func (g *GC) AddCandidate(id ocssd.ChunkID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.candidates.add(g.idx.flat(id))
}

// CandidateCount reports the number of collectable chunks.
func (g *GC) CandidateCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.candidates.count()
}

// MarkedGroup reports the group currently marked for collection (-1 if
// none).
func (g *GC) MarkedGroup() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.marked
}

// Stats returns a snapshot of the collector statistics, including the
// interference accounting (recomputed from the recorded I/O samples and
// collection windows).
func (g *GC) Stats() GCStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.IOsDuringGC, s.AffectedAppIOs = 0, 0
	if len(g.windows) == 0 || len(g.samples) == 0 {
		return s
	}
	// Windows may overlap in virtual time (a collection starts at its
	// trigger's clock while the previous one is still draining), so scan
	// them all; there are few.
	for _, smp := range g.samples {
		in, hit := false, false
		for _, w := range g.windows {
			if smp.at >= w.start && smp.at < w.end {
				in = true
				if w.group == smp.group || w.group < 0 {
					hit = true
					break
				}
			}
		}
		if in {
			s.IOsDuringGC++
			if hit {
				s.AffectedAppIOs++
			}
		}
	}
	return s
}

// NoteAppIO records an application I/O to a group at a virtual instant.
// Overlap with collection windows is computed lazily in Stats, because a
// window covering this instant may be recorded (in real time) after the
// I/O is noted.
func (g *GC) NoteAppIO(group int, at vclock.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.TotalAppIOs++
	if len(g.samples) < 1<<20 { // bound memory on very long runs
		g.samples = append(g.samples, gcSample{group: group, at: at})
	}
}

// Needed reports whether the free pool is below the collection threshold.
func (g *GC) Needed() bool {
	return g.alloc.FreeCount() < g.cfg.FreeThreshold
}

// Collect runs collection until the free pool reaches TargetFree or no
// profitable candidates remain. It marks one group at a time (the one
// with the most reclaimable space), collects it, and re-marks the next
// group if the target is still unmet — collection stays local at any
// instant, which is the §4.3 isolation property, while still being able
// to drain garbage device-wide. remap is called for each relocated live
// sector to update the mapping table; it returns false if the sector
// died in the meantime (the relocation is then abandoned harmlessly).
func (g *GC) Collect(now vclock.Time, remap func(lba int64, old, new ocssd.PPA) bool) (vclock.Time, error) {
	if !g.Needed() {
		return now, nil
	}
	end := now
	counted := false
	for g.alloc.FreeCount() < g.cfg.TargetFree {
		group := g.pickGroup()
		if group < 0 {
			break
		}
		if !counted {
			g.mu.Lock()
			g.stats.Collections++
			g.mu.Unlock()
			counted = true
		}
		windowGroup := group
		if g.cfg.GlobalVictims {
			// Without marking, collection traffic can land anywhere:
			// every in-window I/O is potentially affected.
			windowGroup = -1
		}
		g.mu.Lock()
		g.marked = group
		g.mu.Unlock()
		phaseStart := end
		progress := false
		for g.alloc.FreeCount() < g.cfg.TargetFree {
			victim, ok := g.pickVictim(group)
			if !ok {
				break
			}
			var err error
			end, err = g.collectChunk(end, victim, remap)
			if err != nil {
				g.mu.Lock()
				g.windows = append(g.windows, gcWindow{group: windowGroup, start: phaseStart, end: end})
				g.marked = -1
				g.mu.Unlock()
				return end, err
			}
			progress = true
		}
		g.mu.Lock()
		g.windows = append(g.windows, gcWindow{group: windowGroup, start: phaseStart, end: end})
		g.marked = -1
		g.mu.Unlock()
		if !progress {
			break
		}
	}
	return end, nil
}

// pickGroup marks the group with the most reclaimable sectors, counting
// only candidates above the profitability floor.
func (g *GC) pickGroup() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	reclaim := g.reclaim
	for i := range reclaim {
		reclaim[i] = 0
	}
	spc := g.geo.SectorsPerChunk()
	floor := spc - spc/minReclaimDenominator
	for flat := g.candidates.next(0); flat >= 0; flat = g.candidates.next(flat + 1) {
		v := g.val.ValidCount(g.idx.id(flat))
		if v > floor {
			continue
		}
		reclaim[flat/g.idx.perGroup] += spc - v
	}
	best, bestV := -1, 0
	for grp, v := range reclaim {
		if v > bestV {
			best, bestV = grp, v
		}
	}
	return best
}

// minReclaim is the profitability floor: a victim must have at least
// this fraction of its sectors dead, or collection would mostly copy
// live data around (write amplification without space gain).
const minReclaimDenominator = 8 // 1/8 of the chunk

// pickVictim selects the candidate with the fewest valid sectors, inside
// the marked group (or device-wide with GlobalVictims). Chunks without
// enough reclaimable space are never victims: moving a nearly-valid
// chunk frees (almost) nothing and only amplifies writes. The bitset
// scan runs in ascending flat order — which IS (group, pu, chunk)
// order — so keeping the first minimum seen gives the canonical
// lowest-identity tie-break with no comparator and no sort: victim
// choice, and therefore every downstream virtual-time result, is a
// pure function of the workload.
func (g *GC) pickVictim(group int) (ocssd.ChunkID, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lo, hi := 0, g.idx.total
	if !g.cfg.GlobalVictims {
		lo = group * g.idx.perGroup
		hi = lo + g.idx.perGroup
	}
	spc := g.geo.SectorsPerChunk()
	floor := spc - spc/minReclaimDenominator
	bestFlat, bestValid := -1, -1
	for flat := g.candidates.next(lo); flat >= 0 && flat < hi; flat = g.candidates.next(flat + 1) {
		v := g.val.ValidCount(g.idx.id(flat))
		if v > floor {
			continue
		}
		if bestValid < 0 || v < bestValid {
			bestFlat, bestValid = flat, v
		}
	}
	if bestFlat < 0 {
		return ocssd.ChunkID{}, false
	}
	return g.idx.id(bestFlat), true
}

// collectChunk relocates the victim's live sectors into a destination
// chunk in the same group (device-side copy: no host data movement),
// remaps them, then resets the victim.
func (g *GC) collectChunk(now vclock.Time, victim ocssd.ChunkID, remap func(int64, ocssd.PPA, ocssd.PPA) bool) (vclock.Time, error) {
	end := now
	src := g.val.ValidSectors(g.src[:0], victim)
	valid := len(src)
	if valid > 0 {
		// Round the copy up to a ws_min multiple by appending stale
		// sectors; the extras are never remapped so they are dead on
		// arrival in the destination.
		for i := 0; len(src)%g.geo.WSMin != 0; i++ {
			src = append(src, victim.PPAOf(i))
		}
		g.src = src
		moved := 0
		for moved < len(src) {
			dst, room, err := g.destination(victim.Group)
			if err != nil {
				return end, err
			}
			take := len(src) - moved
			if take > room {
				take = room - room%g.geo.WSMin
				if take == 0 {
					continue
				}
			}
			startSector, e, err := g.media.Copy(end, src[moved:moved+take], dst)
			if err != nil {
				return end, err
			}
			end = e
			end = g.ctrl.CPUWork(end, vclock.Duration(take)*cpuPerSectorMove)
			g.ctrl.NoteControllerIO()
			for i := 0; i < take; i++ {
				srcIdx := moved + i
				if srcIdx >= valid {
					break // ws_min round-up filler
				}
				old := src[srcIdx]
				movedTo := dst.PPAOf(startSector + i)
				lba, known := g.rmap.Get(old)
				if known && remap(lba, old, movedTo) {
					g.val.MarkValid(movedTo)
					g.rmap.Set(movedTo, lba)
				}
				g.val.MarkInvalid(old)
			}
			g.mu.Lock()
			g.dstWP[victim.Group] += take
			g.stats.SectorsMoved += int64(take)
			g.mu.Unlock()
			moved += take
		}
	}
	if g.BeforeReset != nil {
		e, err := g.BeforeReset(end, victim)
		if err != nil {
			return end, err
		}
		end = e
	}
	// Reset the victim and recycle it.
	end2, err := g.alloc.Release(end, victim)
	if err == nil {
		end = end2
	}
	g.val.Drop(victim)
	g.rmap.Drop(victim)
	g.mu.Lock()
	g.candidates.remove(g.idx.flat(victim))
	g.stats.ChunksReclaimed++
	g.mu.Unlock()
	return end, nil
}

// destination returns the open GC destination chunk for a group and its
// remaining room, allocating one (in-group, for locality) as needed. A
// filled destination becomes a collection candidate itself.
func (g *GC) destination(group int) (ocssd.ChunkID, int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	spc := g.geo.SectorsPerChunk()
	if g.dstOpen[group] {
		if room := spc - g.dstWP[group]; room > 0 {
			return g.dst[group], room, nil
		}
		g.candidates.add(g.idx.flat(g.dst[group]))
		g.dstOpen[group] = false
	}
	id, err := g.alloc.Alloc(InGroup(group))
	if err != nil {
		// The marked group is exhausted: fall back to any group rather
		// than stalling collection (sacrifices locality, keeps liveness).
		id, err = g.alloc.Alloc(AnyTarget())
		if err != nil {
			return ocssd.ChunkID{}, 0, err
		}
	}
	g.dst[group] = id
	g.dstOpen[group] = true
	g.dstWP[group] = 0
	return id, spc, nil
}
