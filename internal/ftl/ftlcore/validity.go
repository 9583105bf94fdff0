package ftlcore

import (
	"math/bits"
	"sync"

	"repro/internal/ocssd"
)

// Validity tracks, per chunk, which sectors hold live (mapped) data.
// The write path marks sectors valid when the mapping table points at
// them and invalid when an overwrite or trim unmaps them; garbage
// collection uses the counts to pick victims and the bitmaps to relocate
// only live sectors. State is indexed by flat chunk number: a count per
// chunk, and a bitmap allocated when the chunk gets its first live
// sector and kept, cleared, across resets, so a recycled chunk costs no
// allocation.
type Validity struct {
	idx   chunkIndex
	words int // bitmap words per chunk

	mu     sync.Mutex
	bitmap [][]uint64 // by flat chunk; nil until the first MarkValid
	valid  []int32    // live sectors by flat chunk
}

// NewValidity creates an empty validity tracker for the geometry.
func NewValidity(geo ocssd.Geometry) *Validity {
	idx := newChunkIndex(geo)
	return &Validity{
		idx:    idx,
		words:  (geo.SectorsPerChunk() + 63) / 64,
		bitmap: make([][]uint64, idx.total),
		valid:  make([]int32, idx.total),
	}
}

// MarkValid records that the sector at ppa holds live data.
func (v *Validity) MarkValid(ppa ocssd.PPA) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.idx.flat(ppa.ChunkOf())
	bm := v.bitmap[c]
	if bm == nil {
		bm = make([]uint64, v.words)
		v.bitmap[c] = bm
	}
	w, b := ppa.Sector/64, uint(ppa.Sector%64)
	if bm[w]&(1<<b) == 0 {
		bm[w] |= 1 << b
		v.valid[c]++
	}
}

// MarkInvalid records that the sector at ppa no longer holds live data.
func (v *Validity) MarkInvalid(ppa ocssd.PPA) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.idx.flat(ppa.ChunkOf())
	bm := v.bitmap[c]
	if bm == nil {
		return
	}
	w, b := ppa.Sector/64, uint(ppa.Sector%64)
	if bm[w]&(1<<b) != 0 {
		bm[w] &^= 1 << b
		v.valid[c]--
	}
}

// ValidCount reports the number of live sectors in a chunk.
func (v *Validity) ValidCount(id ocssd.ChunkID) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int(v.valid[v.idx.flat(id)])
}

// ValidSectors appends the PPAs of the live sectors of a chunk, in order,
// to dst and returns the extended slice, so a caller that passes its own
// scratch (scratch[:0]) reuses it from call to call.
func (v *Validity) ValidSectors(dst []ocssd.PPA, id ocssd.ChunkID) []ocssd.PPA {
	v.mu.Lock()
	defer v.mu.Unlock()
	for w, word := range v.bitmap[v.idx.flat(id)] {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, id.PPAOf(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Drop forgets all state for a chunk (after it is reset).
func (v *Validity) Drop(id ocssd.ChunkID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.idx.flat(id)
	clear(v.bitmap[c])
	v.valid[c] = 0
}

// InvalidCount reports dead sectors in a chunk, given how many were
// written (the chunk's write pointer).
func (v *Validity) InvalidCount(id ocssd.ChunkID, written int) int {
	return written - v.ValidCount(id)
}
