// Package nand simulates NAND flash chips at the level of detail §2.1 of
// the paper requires: planes, blocks, pages, sectors, out-of-bound areas,
// paired pages and per-cell-type (SLC/MLC/TLC/QLC) timing. The simulator
// enforces the physical programming rules — erase before write, strictly
// sequential page programming within a block, paired pages readable only
// once their whole wordline is programmed — and models wear (P/E cycles),
// grown bad blocks and read bit errors.
//
// A Chip is a pure state machine: timing is exposed as durations that the
// device layer (internal/ocssd) composes with channel and chip resources.
//
// Contents are reference-counted, immutable sectors (Sector): a page
// holds one reference per sector, an all-zero sector — a pad page, the
// unwritten tail of a 4 KB write padded to a page — is a nil reference
// that costs no memory, and a sector moved elsewhere on the device is a
// pointer moved, not bytes copied.
package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/vclock"
)

// CellType is the number of bits stored per flash cell.
type CellType int

// Supported NAND cell technologies.
const (
	SLC CellType = iota + 1 // 1 bit/cell
	MLC                     // 2 bits/cell
	TLC                     // 3 bits/cell
	QLC                     // 4 bits/cell
)

func init() {
	// Guard against iota drift: the constants double as bits-per-cell.
	if SLC != 1 || MLC != 2 || TLC != 3 || QLC != 4 {
		panic("nand: cell type constants must equal bits per cell")
	}
}

// BitsPerCell reports the number of bits a cell of this type stores,
// which is also the number of paired pages per wordline (§2.1).
func (c CellType) BitsPerCell() int { return int(c) }

func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Valid reports whether c is one of the four known technologies.
func (c CellType) Valid() bool { return c >= SLC && c <= QLC }

// TimingProfile holds the virtual durations of the three array operations.
// Program is indexed by the page's position within its wordline: lower
// pages program faster than upper pages on MLC/TLC/QLC chips.
type TimingProfile struct {
	Read    vclock.Duration   // tR: array read of one page
	Program []vclock.Duration // tProg per paired-page index (len = bits/cell)
	Erase   vclock.Duration   // tBERS: erase of one block
}

// DefaultTiming returns representative datasheet timings for a cell type.
// Absolute values matter less than the ratios: read ≪ program ≪ erase,
// and upper paired pages program slower than lower ones.
func DefaultTiming(c CellType) TimingProfile {
	us := vclock.Microsecond
	ms := vclock.Millisecond
	switch c {
	case SLC:
		return TimingProfile{Read: 25 * us, Program: []vclock.Duration{200 * us}, Erase: 2 * ms}
	case MLC:
		return TimingProfile{Read: 50 * us, Program: []vclock.Duration{400 * us, 1200 * us}, Erase: 4 * ms}
	case TLC:
		return TimingProfile{Read: 70 * us, Program: []vclock.Duration{500 * us, 1500 * us, 3000 * us}, Erase: 6 * ms}
	case QLC:
		return TimingProfile{Read: 110 * us, Program: []vclock.Duration{700 * us, 1800 * us, 3500 * us, 5500 * us}, Erase: 10 * ms}
	default:
		return TimingProfile{Read: 50 * us, Program: []vclock.Duration{500 * us}, Erase: 5 * ms}
	}
}

// Geometry describes one chip. All counts are per chip.
type Geometry struct {
	Planes         int      // 1, 2 or 4 (§2.1)
	BlocksPerPlane int      // erase blocks per plane
	PagesPerBlock  int      // program pages per block
	SectorsPerPage int      // read sectors per page (typically 4)
	SectorSize     int      // bytes per sector (typically 4096)
	OOBPerPage     int      // out-of-bound bytes per page
	Cell           CellType // bits per cell
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case !g.Cell.Valid():
		return fmt.Errorf("nand: invalid cell type %d", int(g.Cell))
	case g.Planes != 1 && g.Planes != 2 && g.Planes != 4:
		return fmt.Errorf("nand: planes must be 1, 2 or 4, got %d", g.Planes)
	case g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.SectorsPerPage <= 0 || g.SectorSize <= 0:
		return errors.New("nand: geometry counts must be positive")
	case g.PagesPerBlock%g.Cell.BitsPerCell() != 0:
		return fmt.Errorf("nand: pages per block (%d) must be a multiple of bits per cell (%d)",
			g.PagesPerBlock, g.Cell.BitsPerCell())
	case g.OOBPerPage < 0:
		return errors.New("nand: negative OOB size")
	}
	return nil
}

// PageBytes reports the data payload of one page (sectors only, no OOB).
func (g Geometry) PageBytes() int { return g.SectorsPerPage * g.SectorSize }

// BlockBytes reports the data payload of one block.
func (g Geometry) BlockBytes() int64 {
	return int64(g.PagesPerBlock) * int64(g.PageBytes())
}

// ChipBytes reports the data payload of the whole chip.
func (g Geometry) ChipBytes() int64 {
	return int64(g.Planes) * int64(g.BlocksPerPlane) * g.BlockBytes()
}

// Wordlines reports the number of wordlines per block (pages / bits-per-cell).
func (g Geometry) Wordlines() int { return g.PagesPerBlock / g.Cell.BitsPerCell() }

// UnitOfWrite reports the natural write unit of the chip in bytes:
// sectors-per-page × paired pages × planes × sector size (§2.1). On a
// dual-plane TLC chip with 4 KB sectors this is 96 KB; on a 4-plane QLC
// chip it is 256 KB.
func (g Geometry) UnitOfWrite() int {
	return g.SectorsPerPage * g.Cell.BitsPerCell() * g.Planes * g.SectorSize
}

// Reliability tunes the failure injection model.
type Reliability struct {
	Endurance       int     // P/E cycles before a block wears out (0 = unlimited)
	FactoryBadRate  float64 // probability a block is bad from the factory
	ProgramFailRate float64 // probability a program op fails (block grows bad)
	// ReadErrorBase is the per-read probability of a correctable bit error
	// at zero wear; the probability grows linearly to 10x at Endurance.
	ReadErrorBase float64
}

// DefaultReliability returns a mild failure model suitable for tests.
func DefaultReliability() Reliability {
	return Reliability{Endurance: 3000, FactoryBadRate: 0.002, ProgramFailRate: 0, ReadErrorBase: 0}
}

// Errors reported by chip operations.
var (
	ErrBadBlock         = errors.New("nand: bad block")
	ErrNotErased        = errors.New("nand: program to non-erased page")
	ErrOutOfOrder       = errors.New("nand: pages must be programmed sequentially within a block")
	ErrUnwritten        = errors.New("nand: read of unwritten page")
	ErrPairedIncomplete = errors.New("nand: read of page whose wordline is not fully programmed")
	ErrAddress          = errors.New("nand: address out of range")
	ErrWornOut          = errors.New("nand: block exceeded endurance")
	ErrProgramFail      = errors.New("nand: program failure")
	ErrDataSize         = errors.New("nand: payload size does not match page size")
)

// Sector is one stored sector: SectorSize bytes, written once — after it
// leaves its chip's free list and before its first holder gets it — and
// immutable from then on. Pages, and the device's stripe buffers above
// them, hold sectors by reference, so moving a sector into a page, or to
// another chunk in a device-side copy, moves a pointer, not bytes. The
// holders are counted: when the last one lets go, wherever that is, the
// sector returns to the free list of the chip that stored it, so a chip
// gets back what it hands out. A nil *Sector is a zero sector, which
// costs no memory.
type Sector struct {
	// refs counts the holders, atomically: holders on different chips
	// take different locks. Store sets it with a plain write, while the
	// sector is still its alone: an atomic one is a locked instruction,
	// which would wait for the streaming stores before it to drain.
	refs int32
	home *Chip
	data []byte
}

// Bytes returns the sector's contents, nil for the zero sector. They are
// shared with every other holder and must not be written.
func (s *Sector) Bytes() []byte {
	if s == nil {
		return nil
	}
	return s.data
}

// Retain adds a holder to s and returns s; a nil (zero) sector stays nil.
// Only a holder, or a caller that keeps the sector's page from being
// erased, may retain it.
func (s *Sector) Retain() *Sector {
	if s != nil {
		atomic.AddInt32(&s.refs, 1)
	}
	return s
}

type block struct {
	next   int // index of the next page to program (write pointer)
	erases int
	bad    bool
	grown  bool // bad grew during use (vs factory)
	// sectors holds the block's pages, sector s of page pg at
	// pg*SectorsPerPage+s, one held reference each (nil: zero sector).
	// Whether a page is programmed is not stored: pages program strictly
	// in order, so it is exactly pg < next, and every sector of a page at
	// or past next is nil.
	sectors []*Sector
	// bytes holds the address of each sector's bytes beside its
	// reference, nil beside nil, so a read reaches the bytes without
	// loading the sector: one cache miss less per sector read.
	bytes []*byte
	oob   [][]byte // per page, nil until a page is programmed with OOB bytes
}

// Stats aggregates chip operation counts.
type Stats struct {
	Reads      int64
	Programs   int64
	Erases     int64
	BitErrors  int64 // injected correctable read errors
	GrownBad   int64 // blocks that went bad during use
	FactoryBad int64
}

// Chip is one simulated NAND die. Methods are safe for concurrent use;
// the chip serializes state mutations internally (operation *timing*
// serialization is the device layer's job, via a vclock.Resource).
type Chip struct {
	geo    Geometry
	timing TimingProfile
	rel    Reliability

	mu     sync.Mutex
	planes [][]block // [plane][block]
	rng    *rand.Rand
	stats  Stats

	// freeMu guards free, the chip's released sectors kept for reuse, up
	// to maxFree of them; the rest go back to the Go heap. It is a leaf
	// lock: a sector is released under whichever chip's mu its last
	// holder held.
	freeMu  sync.Mutex
	free    []*Sector
	maxFree int
	headers []Sector // unused headers of the chip's last header slab
}

// headerSlab is how many sector headers a chip allocates at once.
const headerSlab = 64

// freeBlocks is how many blocks on every plane a chip's free list holds
// the sectors of: garbage collection resets several chunks of one chip
// before the writes that follow consume what they freed. (On the stack
// benchmark's block_overwrite_gc, a list of one block per plane left
// 0.67 allocations per operation, two 0.42, four 0.30 and sixty-four
// 0.30; four holds the live heap at 237 MB, where one took 286.)
const freeBlocks = 4

// New creates a chip with the given geometry, timing and reliability
// model. The seed drives all failure injection deterministically.
func New(geo Geometry, timing TimingProfile, rel Reliability, seed int64) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if len(timing.Program) != geo.Cell.BitsPerCell() {
		return nil, fmt.Errorf("nand: timing has %d program entries, cell type needs %d",
			len(timing.Program), geo.Cell.BitsPerCell())
	}
	c := &Chip{
		geo:     geo,
		timing:  timing,
		rel:     rel,
		rng:     rand.New(rand.NewSource(seed)),
		maxFree: freeBlocks * geo.Planes * geo.PagesPerBlock * geo.SectorsPerPage,
	}
	perBlock := geo.PagesPerBlock * geo.SectorsPerPage
	sectors := make([]*Sector, geo.Planes*geo.BlocksPerPlane*perBlock)
	addrs := make([]*byte, len(sectors))
	c.planes = make([][]block, geo.Planes)
	for p := range c.planes {
		c.planes[p] = make([]block, geo.BlocksPerPlane)
		for b := range c.planes[p] {
			blk := &c.planes[p][b]
			blk.sectors, sectors = sectors[:perBlock:perBlock], sectors[perBlock:]
			blk.bytes, addrs = addrs[:perBlock:perBlock], addrs[perBlock:]
			if rel.FactoryBadRate > 0 && c.rng.Float64() < rel.FactoryBadRate {
				blk.bad = true
				c.stats.FactoryBad++
			}
		}
	}
	return c, nil
}

// Geometry reports the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// Timing reports the chip timing profile.
func (c *Chip) Timing() TimingProfile { return c.timing }

// ReadTime reports tR for one page.
func (c *Chip) ReadTime() vclock.Duration { return c.timing.Read }

// ProgramTime reports tProg for the page at index pageIdx within its
// block, which depends on the page's position within its wordline.
func (c *Chip) ProgramTime(pageIdx int) vclock.Duration {
	bits := c.geo.Cell.BitsPerCell()
	return c.timing.Program[pageIdx%bits]
}

// EraseTime reports tBERS for one block.
func (c *Chip) EraseTime() vclock.Duration { return c.timing.Erase }

// Stats returns a copy of the chip's operation counters.
func (c *Chip) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Chip) checkAddr(plane, blk, pg int) error {
	if plane < 0 || plane >= c.geo.Planes ||
		blk < 0 || blk >= c.geo.BlocksPerPlane ||
		pg < 0 || pg >= c.geo.PagesPerBlock {
		return ErrAddress
	}
	return nil
}

// IsBad reports whether the block is marked bad (factory or grown).
func (c *Chip) IsBad(plane, blk int) bool {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].bad
}

// Erases reports the P/E cycle count of a block.
func (c *Chip) Erases(plane, blk int) int {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].erases
}

// WritePointer reports the next programmable page index of a block.
func (c *Chip) WritePointer(plane, blk int) int {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].next
}

// page returns the sector slots of page pg of b.
func (c *Chip) page(b *block, pg int) []*Sector {
	spp := c.geo.SectorsPerPage
	return b.sectors[pg*spp : (pg+1)*spp : (pg+1)*spp]
}

// Store copies data, whole sectors, into sectors of this chip's and
// writes one held reference per sector to out: out[i] holds sector i of
// data, nil where that sector is all zeros. The caller owns the
// references, to hand to ProgramSectors or to Release. It is the one
// copy a written byte gets. A sector recycled from the free list is
// filled with streaming stores, fenced once before Store returns: it was
// last written an erase cycle ago and has most likely left the cache. A
// new sector is memory the kernel has just zeroed through the cache, and
// is filled with a plain copy.
func (c *Chip) Store(out []*Sector, data []byte) {
	sz := c.geo.SectorSize
	streamed := false
	var fresh []Sector // new sectors for the rest of data, side by side
	c.freeMu.Lock()
	for i := range out {
		src := data[i*sz : (i+1)*sz]
		if isZero(src) {
			out[i] = nil
			continue
		}
		var s *Sector
		if n := len(c.free); n > 0 {
			s = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
			storeCopy(s.data, src)
			streamed = true
		} else {
			if len(fresh) == 0 {
				fresh = c.newSectors(data[i*sz:])
			}
			s = &fresh[0]
			fresh = fresh[1:]
			copy(s.data, src)
		}
		s.refs = 1
		out[i] = s
	}
	c.freeMu.Unlock()
	if streamed {
		storeFence()
	}
}

// newSectors returns a new sector for each non-zero sector of data, in
// one allocation for all their buffers however many sectors a Store
// call needs (a LightLSM block or a ZNS append is a stripe of them):
// sectors stored together are mostly released together, so sharing an
// allocation keeps little memory alive past its sectors. The headers
// come from a slab of headerSlab, shared across calls. Caller holds
// c.freeMu.
func (c *Chip) newSectors(data []byte) []Sector {
	sz := c.geo.SectorSize
	n := 0
	for off := 0; off < len(data); off += sz {
		if !isZero(data[off : off+sz]) {
			n++
		}
	}
	if len(c.headers) < n {
		c.headers = make([]Sector, max(n, headerSlab))
	}
	sectors := c.headers[:n:n]
	c.headers = c.headers[n:]
	buf := make([]byte, n*sz)
	for i := range sectors {
		sectors[i].home = c
		sectors[i].data = buf[i*sz : (i+1)*sz : (i+1)*sz]
	}
	return sectors
}

// Release drops the caller's reference in each sector of sectors and
// sets it nil; nil entries are skipped. A sector whose last holder this
// was joins its chip's free list, unless that is full.
func Release(sectors []*Sector) {
	var home *Chip // whose freeMu is held
	for i, s := range sectors {
		if s == nil {
			continue
		}
		sectors[i] = nil
		if atomic.AddInt32(&s.refs, -1) != 0 {
			continue
		}
		if s.home != home {
			if home != nil {
				home.freeMu.Unlock()
			}
			home = s.home
			home.freeMu.Lock()
		}
		if len(home.free) < home.maxFree {
			home.free = append(home.free, s)
		} else {
			// Let the buffer go; the header may share a slab with
			// sectors still in use.
			s.data = nil
		}
	}
	if home != nil {
		home.freeMu.Unlock()
	}
}

// Program writes one full page (data payload plus optional OOB bytes).
// It enforces: the block is not bad, the page is the block's next
// sequential page, and the payload is exactly one page. A program
// failure (injected) marks the block grown-bad and returns ErrProgramFail.
// The page's sectors are stored as Store stores them, so an all-zero
// sector costs no memory.
func (c *Chip) Program(plane, blk, pg int, data, oob []byte) error {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return err
	}
	if len(data) != c.geo.PageBytes() {
		return fmt.Errorf("%w: got %d, want %d", ErrDataSize, len(data), c.geo.PageBytes())
	}
	if len(oob) > c.geo.OOBPerPage {
		return fmt.Errorf("%w: oob %d exceeds %d", ErrDataSize, len(oob), c.geo.OOBPerPage)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if err := c.admit(b, pg); err != nil {
		return err
	}
	c.Store(c.page(b, pg), data)
	c.programmed(b, pg, oob)
	return nil
}

// ProgramSectors programs one page with no OOB from held sector
// references, one per sector of the page, nil for a zero sector: exactly
// Program of the bytes they hold — same rules, same failure injection,
// same counters, same reads — with no byte copied. On success the page
// takes the references over and every entry of sectors is set nil; on
// an error the caller still holds them.
func (c *Chip) ProgramSectors(plane, blk, pg int, sectors []*Sector) error {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return err
	}
	if len(sectors) != c.geo.SectorsPerPage {
		return fmt.Errorf("%w: %d sectors, want %d", ErrDataSize, len(sectors), c.geo.SectorsPerPage)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if err := c.admit(b, pg); err != nil {
		return err
	}
	copy(c.page(b, pg), sectors)
	clear(sectors)
	c.programmed(b, pg, nil)
	return nil
}

// admit checks the program rules for page pg of b and draws the failure
// injection; a failure retires the block. Caller holds c.mu.
func (c *Chip) admit(b *block, pg int) error {
	if b.bad {
		return ErrBadBlock
	}
	if pg != b.next {
		if pg < b.next {
			return ErrNotErased
		}
		return ErrOutOfOrder
	}
	if c.rel.ProgramFailRate > 0 && c.rng.Float64() < c.rel.ProgramFailRate {
		c.retire(b)
		return ErrProgramFail
	}
	return nil
}

// programmed completes the program of page pg of b, whose sectors are in
// place. Caller holds c.mu.
func (c *Chip) programmed(b *block, pg int, oob []byte) {
	spp := c.geo.SectorsPerPage
	for i, s := range c.page(b, pg) {
		if s != nil {
			b.bytes[pg*spp+i] = unsafe.SliceData(s.data)
		}
	}
	if len(oob) > 0 && b.oob == nil {
		b.oob = make([][]byte, c.geo.PagesPerBlock)
	}
	if b.oob != nil {
		b.oob[pg] = append(b.oob[pg][:0], oob...)
	}
	b.next++
	c.stats.Programs++
}

// retire marks b grown-bad and releases its sectors: a bad block is
// never read again. Caller holds c.mu.
func (c *Chip) retire(b *block) {
	b.bad = true
	b.grown = true
	c.stats.GrownBad++
	Release(b.sectors)
	clear(b.bytes)
}

// isZero reports whether b is all zeros. Real payloads almost always
// fail on the first word; a sector of host-written zeros is compared
// with itself shifted by one word — b[i] == b[i-8] for every i, starting
// from a zero word, means every byte is zero — which runs at memequal
// speed instead of a byte loop.
func isZero(b []byte) bool {
	if len(b) < 8 {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	return binary.LittleEndian.Uint64(b) == 0 && bytes.Equal(b[8:], b[:len(b)-8])
}

// Read returns the data payload and OOB of a page. It enforces the
// paired-page rule: the page's wordline must be fully programmed
// (§2.1: "All paired pages must be written before one of them can be
// read"). The returned error may be a correctable bit error injection,
// reported as nil with the BitErrors counter incremented (the device
// corrects it via ECC but pays the accounting). The page is assembled
// from its sectors into a new buffer; ReadBytes, the device's read,
// copies nothing.
func (c *Chip) Read(plane, blk, pg int) (data, oob []byte, err error) {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.sense(plane, blk, pg)
	if err != nil {
		return nil, nil, err
	}
	sz := c.geo.SectorSize
	data = make([]byte, c.geo.PageBytes())
	for i, s := range c.page(b, pg) {
		copy(data[i*sz:], s.Bytes())
	}
	if b.oob != nil {
		oob = b.oob[pg]
	}
	return data, oob, nil
}

// ReadSectors reads len(out) consecutive sectors of one page, starting
// at sector first, under one lock: each sector is sensed once, in order,
// with its own read count and bit-error draw, exactly as that many
// one-sector reads would be. out[i] receives the page's reference to
// sector first+i, nil for a zero sector. The references stay the page's:
// they are valid until the block is erased, and a caller that keeps one
// past that retains it (Sector.Retain). On an error out is left as it
// was and nothing is counted or drawn.
func (c *Chip) ReadSectors(plane, blk, pg, first int, out []*Sector) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.senseRun(plane, blk, pg, first, len(out))
	if err != nil {
		return err
	}
	copy(out, c.page(b, pg)[first:])
	return nil
}

// ReadBytes is ReadSectors handing out each sector's bytes instead of
// its reference — the page's memory, nil for a zero sector, valid until
// the block is erased and not to be written — at the same cost: same
// checks, counters and bit-error draws.
func (c *Chip) ReadBytes(plane, blk, pg, first int, out [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.senseRun(plane, blk, pg, first, len(out))
	if err != nil {
		return err
	}
	sz, at := c.geo.SectorSize, pg*c.geo.SectorsPerPage+first
	for i := range out {
		out[i] = nil
		if p := b.bytes[at+i]; p != nil {
			out[i] = unsafe.Slice(p, sz)
		}
	}
	return nil
}

// senseRun checks a run of n sectors of one page from sector first and
// senses each once, in order: the read of ReadSectors and ReadBytes.
// Caller holds c.mu.
func (c *Chip) senseRun(plane, blk, pg, first, n int) (*block, error) {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return nil, err
	}
	if first < 0 || n == 0 || first+n > c.geo.SectorsPerPage {
		return nil, ErrAddress
	}
	var b *block
	for range n {
		var err error
		if b, err = c.sense(plane, blk, pg); err != nil {
			return nil, err // only the first sense can fail: the page is the same
		}
	}
	return b, nil
}

// sense is the array read shared by Read and senseRun: it enforces
// the read rules, draws the bit-error injection and counts the read.
// Caller holds c.mu.
func (c *Chip) sense(plane, blk, pg int) (*block, error) {
	b := &c.planes[plane][blk]
	if b.bad {
		return nil, ErrBadBlock
	}
	if pg >= b.next {
		return nil, ErrUnwritten
	}
	bits := c.geo.Cell.BitsPerCell()
	wordline := pg / bits
	wlEnd := (wordline + 1) * bits
	if b.next < wlEnd {
		return nil, ErrPairedIncomplete
	}
	if base := c.rel.ReadErrorBase; base > 0 {
		prob := base
		if c.rel.Endurance > 0 {
			prob *= 1 + 9*float64(b.erases)/float64(c.rel.Endurance)
		}
		if c.rng.Float64() < prob {
			c.stats.BitErrors++
		}
	}
	c.stats.Reads++
	return b, nil
}

// Erase erases one block on one plane, resetting its write pointer and
// releasing its sectors. Exceeding the endurance limit marks the block
// grown-bad.
func (c *Chip) Erase(plane, blk int) error {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if b.bad {
		return ErrBadBlock
	}
	b.erases++
	if c.rel.Endurance > 0 && b.erases > c.rel.Endurance {
		c.retire(b)
		return ErrWornOut
	}
	Release(b.sectors[:b.next*c.geo.SectorsPerPage])
	clear(b.bytes[:b.next*c.geo.SectorsPerPage])
	b.next = 0
	c.stats.Erases++
	return nil
}

// EraseMulti erases the same block index on every plane, modeling a
// multi-plane erase. The first error aborts and is returned.
func (c *Chip) EraseMulti(blk int) error {
	for p := 0; p < c.geo.Planes; p++ {
		if err := c.Erase(p, blk); err != nil {
			return err
		}
	}
	return nil
}

// MarkBad explicitly retires a block (bad media management, §2.2).
func (c *Chip) MarkBad(plane, blk int) error {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := &c.planes[plane][blk]; !b.bad {
		c.retire(b)
	}
	return nil
}
