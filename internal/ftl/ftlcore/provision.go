package ftlcore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// ErrNoFreeChunks is returned when provisioning cannot satisfy a request.
var ErrNoFreeChunks = errors.New("ftlcore: no free chunks available")

// Target selects where a chunk should be provisioned. The zero value
// means "anywhere" (round-robin across all PUs, which is what horizontal
// striping wants); InGroup confines allocation to one group (vertical
// placement, Figure 4); InPU pins an exact parallel unit.
type Target struct {
	Group int // -1 = any
	PU    int // -1 = any within the group
}

// AnyTarget allocates anywhere, rotating across PUs for parallelism.
func AnyTarget() Target { return Target{Group: -1, PU: -1} }

// InGroup allocates within one group (vertical placement).
func InGroup(g int) Target { return Target{Group: g, PU: -1} }

// InPU allocates on one exact parallel unit.
func InPU(g, u int) Target { return Target{Group: g, PU: u} }

// allocGroup is the per-group shard of the free pool. FTL foreground
// allocation (WAL rotation, stripe writers) and background jobs (GC
// destinations, checkpoint slots) targeting different groups never
// contend on a lock, mirroring the device's per-PU sharding.
type allocGroup struct {
	mu   sync.Mutex
	free [][]int // [pu] -> stack of free chunk ids
	rrPU int     // round-robin cursor within the group
}

// Allocator is the provisioning component of Figure 2: it owns the free
// chunk pool, skips offline chunks (bad block management) and hands out
// chunks according to placement targets. The pool is sharded per group;
// the aggregate count is a lock-free atomic.
type Allocator struct {
	media ox.Media
	geo   ocssd.Geometry

	groups  []allocGroup
	nfree   atomic.Int64
	rrGroup atomic.Int64 // round-robin cursor for AnyTarget

	offMu   sync.Mutex
	idx     chunkIndex
	offline chunkSet // retired (bad) chunks, 1 bit per chunk
}

// NewAllocator builds an allocator over the media's current chunk report.
// Chunks in reserved are withheld (the FTL keeps them for its log,
// checkpoint area or superblock); offline chunks are never handed out.
// Only chunks in the free state enter the pool: after a crash, closed or
// open chunks stay out until recovery explicitly frees them.
func NewAllocator(media ox.Media, reserved map[ocssd.ChunkID]bool) *Allocator {
	geo := media.Geometry()
	idx := newChunkIndex(geo)
	a := &Allocator{
		media:   media,
		geo:     geo,
		groups:  make([]allocGroup, geo.Groups),
		idx:     idx,
		offline: newChunkSet(idx.total),
	}
	for g := range a.groups {
		a.groups[g].free = make([][]int, geo.PUsPerGroup)
	}
	for _, ci := range media.Report() {
		switch {
		case ci.State == ocssd.ChunkOffline:
			a.offline.add(idx.flat(ci.ID))
		case reserved[ci.ID]:
			// withheld
		case ci.State == ocssd.ChunkFree:
			grp := &a.groups[ci.ID.Group]
			grp.free[ci.ID.PU] = append(grp.free[ci.ID.PU], ci.ID.Chunk)
			a.nfree.Add(1)
		}
	}
	return a
}

// FreeCount reports the number of chunks in the pool.
func (a *Allocator) FreeCount() int { return int(a.nfree.Load()) }

// FreeInGroup reports the number of free chunks in one group.
func (a *Allocator) FreeInGroup(g int) int {
	if g < 0 || g >= a.geo.Groups {
		return 0
	}
	grp := &a.groups[g]
	grp.mu.Lock()
	defer grp.mu.Unlock()
	n := 0
	for _, s := range grp.free {
		n += len(s)
	}
	return n
}

// Alloc takes a free chunk matching the target out of the pool.
func (a *Allocator) Alloc(t Target) (ocssd.ChunkID, error) {
	switch {
	case t.Group >= 0 && t.PU >= 0:
		if err := a.checkGroup(t.Group); err != nil {
			return ocssd.ChunkID{}, err
		}
		grp := &a.groups[t.Group]
		grp.mu.Lock()
		defer grp.mu.Unlock()
		return a.popPU(grp, t.Group, t.PU)
	case t.Group >= 0:
		if err := a.checkGroup(t.Group); err != nil {
			return ocssd.ChunkID{}, err
		}
		return a.popGroup(t.Group)
	default:
		// Round-robin across groups then PUs so consecutive allocations
		// stripe over all parallel units. The cursor advances with a CAS
		// so a concurrent allocator cannot lose the rotation (two racers
		// collapsing onto one group); on CAS failure the racer's newer
		// cursor wins. Single-threaded, this is the exact old rotation.
		start := a.rrGroup.Load()
		for i := 0; i < a.geo.Groups; i++ {
			g := (int(start) + i) % a.geo.Groups
			if id, err := a.popGroup(g); err == nil {
				a.rrGroup.CompareAndSwap(start, int64((g+1)%a.geo.Groups))
				return id, nil
			}
		}
		return ocssd.ChunkID{}, ErrNoFreeChunks
	}
}

func (a *Allocator) checkGroup(g int) error {
	if g < 0 || g >= a.geo.Groups {
		return fmt.Errorf("ftlcore: group %d out of range", g)
	}
	return nil
}

func (a *Allocator) popGroup(g int) (ocssd.ChunkID, error) {
	grp := &a.groups[g]
	grp.mu.Lock()
	defer grp.mu.Unlock()
	for i := 0; i < a.geo.PUsPerGroup; i++ {
		u := (grp.rrPU + i) % a.geo.PUsPerGroup
		if id, err := a.popPU(grp, g, u); err == nil {
			grp.rrPU = (u + 1) % a.geo.PUsPerGroup
			return id, nil
		}
	}
	return ocssd.ChunkID{}, ErrNoFreeChunks
}

// popPU pops one chunk off a PU stack. Caller holds the group lock.
func (a *Allocator) popPU(grp *allocGroup, g, u int) (ocssd.ChunkID, error) {
	if u < 0 || u >= a.geo.PUsPerGroup {
		return ocssd.ChunkID{}, fmt.Errorf("ftlcore: pu %d.%d out of range", g, u)
	}
	s := grp.free[u]
	if len(s) == 0 {
		return ocssd.ChunkID{}, ErrNoFreeChunks
	}
	c := s[len(s)-1]
	grp.free[u] = s[:len(s)-1]
	a.nfree.Add(-1)
	return ocssd.ChunkID{Group: g, PU: u, Chunk: c}, nil
}

// Release resets the chunk on media and returns it to the pool. A chunk
// that fails its reset is retired (bad block management).
func (a *Allocator) Release(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error) {
	end, err := a.media.Reset(now, id)
	if err != nil {
		a.Retire(id)
		return end, err
	}
	a.ReturnFree(id)
	return end, nil
}

// ReturnFree puts an already-free chunk back into the pool without a
// reset (recovery uses this for chunks the report shows as free).
func (a *Allocator) ReturnFree(id ocssd.ChunkID) {
	grp := &a.groups[id.Group]
	grp.mu.Lock()
	grp.free[id.PU] = append(grp.free[id.PU], id.Chunk)
	grp.mu.Unlock()
	a.nfree.Add(1)
}

// Retire permanently removes a chunk from circulation (grown bad).
func (a *Allocator) Retire(id ocssd.ChunkID) {
	a.offMu.Lock()
	defer a.offMu.Unlock()
	a.offline.add(a.idx.flat(id))
}

// RetiredCount reports the number of chunks withheld as bad.
func (a *Allocator) RetiredCount() int {
	a.offMu.Lock()
	defer a.offMu.Unlock()
	return a.offline.count()
}

// StripeWriter appends data across a rotating set of open chunks, one
// per allocation target, giving the striped "horizontal" data path that
// OX-Block's logical log uses. Appends are ws_min multiples; each append
// goes to the next chunk in the rotation, so consecutive appends land on
// different parallel units and proceed concurrently.
type StripeWriter struct {
	media ox.Media
	alloc *Allocator
	geo   ocssd.Geometry
	t     Target
	width int // number of concurrently open chunks

	mu     sync.Mutex
	chunks []ocssd.ChunkID
	wps    []int
	next   int
}

// NewStripeWriter opens width chunks matching the target.
func NewStripeWriter(media ox.Media, alloc *Allocator, t Target, width int) (*StripeWriter, error) {
	if width <= 0 {
		return nil, errors.New("ftlcore: stripe width must be positive")
	}
	w := &StripeWriter{
		media:  media,
		alloc:  alloc,
		geo:    media.Geometry(),
		t:      t,
		width:  width,
		chunks: make([]ocssd.ChunkID, 0, width),
		wps:    make([]int, 0, width),
	}
	for i := 0; i < width; i++ {
		id, err := alloc.Alloc(t)
		if err != nil {
			return nil, err
		}
		w.chunks = append(w.chunks, id)
		w.wps = append(w.wps, 0)
	}
	return w, nil
}

// Append writes data (whole sectors) followed by pad zero sectors,
// together a ws_min multiple, to the next chunk in the rotation,
// allocating a replacement when a chunk fills. The pad is a count all the
// way to the device (ox.Media.AppendPadded), so a caller rounding a
// payload up to a unit builds no zeros. An append splits across chunks
// only at ws_min boundaries, so a pad shorter than a unit always travels
// with the data it completes. It appends the PPA assigned to each
// written sector, pad sectors included, to ppas and returns the extended
// slice, so a caller that passes its own scratch (scratch[:0]) reuses it
// from call to call.
func (w *StripeWriter) Append(now vclock.Time, data []byte, pad int, ppas []ocssd.PPA) ([]ocssd.PPA, vclock.Time, error) {
	secSize := w.geo.Chip.SectorSize
	n := len(data)/secSize + pad
	if n == 0 || pad < 0 || len(data)%secSize != 0 || n%w.geo.WSMin != 0 {
		return ppas, now, fmt.Errorf("ftlcore: append of %d bytes and %d pad sectors is not a ws_min multiple", len(data), pad)
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	end := now
	for n > 0 {
		slot := w.next % w.width
		id := w.chunks[slot]
		room := w.geo.SectorsPerChunk() - w.wps[slot]
		if room == 0 {
			nid, err := w.alloc.Alloc(w.t)
			if err != nil {
				return ppas, now, err
			}
			w.chunks[slot] = nid
			w.wps[slot] = 0
			id = nid
			room = w.geo.SectorsPerChunk()
		}
		// n and room are ws_min multiples, so take is one too.
		take := min(n, room)
		in := data[:min(take*secSize, len(data))]
		start, e, err := w.media.AppendPadded(now, id, in, take-len(in)/secSize)
		if err != nil {
			return ppas, now, err
		}
		if e > end {
			end = e
		}
		for s := 0; s < take; s++ {
			ppas = append(ppas, id.PPAOf(start+s))
		}
		w.wps[slot] += take
		data = data[len(in):]
		n -= take
		w.next++
	}
	return ppas, end, nil
}

// ZeroToSector extends b to a whole number of sectors of sz bytes,
// writing zeros into the extension in b's backing array (grown when it
// lacks the room). A payload that ends inside a sector is completed this
// way before it is appended; the zero sectors that complete its ws_min
// unit are then a pad count (StripeWriter.Append, ox.Media.AppendPadded).
func ZeroToSector(b []byte, sz int) []byte {
	n := (len(b) + sz - 1) / sz * sz
	if cap(b) < n {
		grown := make([]byte, len(b), n)
		copy(grown, b)
		b = grown
	}
	clear(b[len(b):n])
	return b[:n]
}

// OpenChunks returns the chunks currently held open by the writer.
func (w *StripeWriter) OpenChunks() []ocssd.ChunkID {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ocssd.ChunkID, len(w.chunks))
	copy(out, w.chunks)
	return out
}
