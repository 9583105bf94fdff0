package ocssd

import (
	"errors"
	"fmt"

	"repro/internal/nand"
)

// Geometry describes an Open-Channel 2.0 device (§2.2): groups of
// parallel units, chunks per PU, and the write units derived from the
// underlying NAND geometry. One group maps to one channel and one PU to
// one chip: the controller guarantees no interference across groups.
type Geometry struct {
	Groups      int // independent channels
	PUsPerGroup int // chips per channel
	ChunksPerPU int // chunks (erase units) per parallel unit

	Chip nand.Geometry // per-chip NAND geometry

	// WSMin is the minimum write size in sectors (logical blocks); writes
	// must be multiples of it and land at the chunk write pointer.
	WSMin int
	// WSOpt is the optimal write size in sectors: one full wordline
	// stripe across planes and paired pages — the paper's "unit of
	// write" (24 sectors = 96 KB on a dual-plane TLC drive).
	WSOpt int

	ChannelMBps  float64 // NAND channel bus bandwidth per group
	CacheMBps    float64 // controller DRAM copy bandwidth
	CacheMB      int     // write-back cache size; 0 disables write-back
	MaxOpenPerPU int     // open chunk limit per PU
}

// DefaultGeometry returns a scaled-down dual-plane TLC device with the
// paper's structural ratios: 8 groups × 4 PUs, 96 KB unit of write,
// 24 MB-shaped chunks scaled to fit in memory.
func DefaultGeometry() Geometry {
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 64,
		PagesPerBlock:  48, // 48 pages × 2 planes × 4 sectors = 384 sectors/chunk = 1.5 MB
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	return Finish(Geometry{
		Groups:       8,
		PUsPerGroup:  4,
		ChunksPerPU:  64,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      64,
		MaxOpenPerPU: 8,
	})
}

// PaperGeometry returns the exact geometry of Figure 4: 8 groups,
// 4 PUs per group, 1474 chunks per PU, 6144 sectors per chunk (24 MB),
// 4 KB sectors, 96 KB unit of write. At ~1.4 TB it is only usable for
// geometry arithmetic, not for data-holding simulation.
func PaperGeometry() Geometry {
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 1474,
		PagesPerBlock:  768, // 768 pages × 2 planes × 4 sectors = 6144 sectors
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     128,
		Cell:           nand.TLC,
	}
	return Finish(Geometry{
		Groups:       8,
		PUsPerGroup:  4,
		ChunksPerPU:  1474,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      512,
		MaxOpenPerPU: 8,
	})
}

// Finish fills the derived fields (WSMin, WSOpt) from the chip geometry
// and returns the completed geometry.
func Finish(g Geometry) Geometry {
	g.WSMin = g.Chip.SectorsPerPage
	g.WSOpt = g.Chip.SectorsPerPage * g.Chip.Cell.BitsPerCell() * g.Chip.Planes
	return g
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	if err := g.Chip.Validate(); err != nil {
		return err
	}
	switch {
	case g.Groups <= 0 || g.Groups > 256:
		return fmt.Errorf("ocssd: groups must be in [1,256], got %d", g.Groups)
	case g.PUsPerGroup <= 0 || g.PUsPerGroup > 256:
		return fmt.Errorf("ocssd: PUs per group must be in [1,256], got %d", g.PUsPerGroup)
	case g.ChunksPerPU <= 0:
		return errors.New("ocssd: chunks per PU must be positive")
	case g.ChunksPerPU > g.Chip.BlocksPerPlane:
		return fmt.Errorf("ocssd: %d chunks per PU exceed %d blocks per plane",
			g.ChunksPerPU, g.Chip.BlocksPerPlane)
	case g.WSMin != g.Chip.SectorsPerPage:
		return fmt.Errorf("ocssd: ws_min %d must equal sectors per page %d", g.WSMin, g.Chip.SectorsPerPage)
	case g.WSOpt != g.Chip.SectorsPerPage*g.Chip.Cell.BitsPerCell()*g.Chip.Planes:
		return fmt.Errorf("ocssd: ws_opt %d inconsistent with chip geometry", g.WSOpt)
	case g.ChannelMBps <= 0 || g.CacheMBps <= 0:
		return errors.New("ocssd: bandwidths must be positive")
	case g.CacheMB < 0:
		return errors.New("ocssd: negative cache size")
	case g.MaxOpenPerPU <= 0:
		return errors.New("ocssd: MaxOpenPerPU must be positive")
	}
	return nil
}

// SectorsPerChunk reports the number of logical blocks in one chunk:
// planes × pages × sectors-per-page.
func (g Geometry) SectorsPerChunk() int {
	return g.Chip.Planes * g.Chip.PagesPerBlock * g.Chip.SectorsPerPage
}

// ChunkBytes reports the capacity of one chunk in bytes.
func (g Geometry) ChunkBytes() int64 {
	return int64(g.SectorsPerChunk()) * int64(g.Chip.SectorSize)
}

// TotalPUs reports the number of parallel units on the device.
func (g Geometry) TotalPUs() int { return g.Groups * g.PUsPerGroup }

// TotalBytes reports the device capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPUs()) * int64(g.ChunksPerPU) * g.ChunkBytes()
}

// UnitOfWriteBytes reports ws_opt in bytes (the paper's unit of write).
func (g Geometry) UnitOfWriteBytes() int { return g.WSOpt * g.Chip.SectorSize }

// StripesPerChunk reports the number of ws_opt stripes in one chunk.
func (g Geometry) StripesPerChunk() int { return g.SectorsPerChunk() / g.WSOpt }

// CheckPPA reports whether the PPA addresses a sector on this device.
func (g Geometry) CheckPPA(p PPA) error {
	if p.Group < 0 || p.Group >= g.Groups ||
		p.PU < 0 || p.PU >= g.PUsPerGroup ||
		p.Chunk < 0 || p.Chunk >= g.ChunksPerPU ||
		p.Sector < 0 || p.Sector >= g.SectorsPerChunk() {
		return fmt.Errorf("%w: %v", ErrAddress, p)
	}
	return nil
}

func (g Geometry) String() string {
	return fmt.Sprintf("%d groups × %d PUs × %d chunks × %d sectors (%s, %d planes, ws_opt=%dKB, %.1fGB)",
		g.Groups, g.PUsPerGroup, g.ChunksPerPU, g.SectorsPerChunk(), g.Chip.Cell,
		g.Chip.Planes, g.UnitOfWriteBytes()/1024, float64(g.TotalBytes())/1e9)
}

// sectorLoc maps a chunk-relative sector index to its NAND location.
// Layout: sectors fill one wordline stripe at a time — within a stripe,
// plane-major then paired-page then sector-in-page — so that sequential
// chunk writes program pages strictly sequentially on every plane.
type sectorLoc struct {
	plane  int
	page   int // page index within the block
	sector int // sector within the page
}

func (g Geometry) locate(sector int) sectorLoc {
	spp := g.Chip.SectorsPerPage
	bits := g.Chip.Cell.BitsPerCell()
	stripe := sector / g.WSOpt
	within := sector % g.WSOpt
	plane := within / (spp * bits)
	rem := within % (spp * bits)
	paired := rem / spp
	return sectorLoc{
		plane:  plane,
		page:   stripe*bits + paired,
		sector: rem % spp,
	}
}
