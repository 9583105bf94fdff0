package ocssd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/vclock"
)

// smallGeo returns a tiny dual-plane TLC device for fast tests:
// 2 groups × 2 PUs × 8 chunks, 96 sectors per chunk, ws_opt = 24.
func smallGeo() Geometry {
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: 8,
		PagesPerBlock:  12,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	return Finish(Geometry{
		Groups:       2,
		PUsPerGroup:  2,
		ChunksPerPU:  8,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      4,
		MaxOpenPerPU: 4,
	})
}

func newDev(t *testing.T, geo Geometry, opts Options) *Device {
	t.Helper()
	d, err := New(geo, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func sectors(geo Geometry, n int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, n*geo.Chip.SectorSize)
}

func seqPPAs(id ChunkID, start, n int) []PPA {
	out := make([]PPA, n)
	for i := range out {
		out[i] = id.PPAOf(start + i)
	}
	return out
}

func TestPPAPackUnpack(t *testing.T) {
	f := func(g, u uint8, c, s uint16) bool {
		p := PPA{Group: int(g), PU: int(u), Chunk: int(c), Sector: int(s)}
		return Unpack(p.Pack()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	p := PPA{Group: 3, PU: 1, Chunk: 70, Sector: 5}
	if p.Next().Sector != 6 || p.Next().Group != 3 {
		t.Fatal("Next wrong")
	}
	if p.ChunkOf() != (ChunkID{3, 1, 70}) {
		t.Fatal("ChunkOf wrong")
	}
	if (ChunkID{1, 2, 3}).PPAOf(9) != (PPA{1, 2, 3, 9}) {
		t.Fatal("PPAOf wrong")
	}
}

func TestGeometryDerivedValues(t *testing.T) {
	g := smallGeo()
	if g.WSMin != 4 {
		t.Fatalf("ws_min = %d, want 4", g.WSMin)
	}
	// Dual-plane TLC: 4 sectors × 3 paired pages × 2 planes = 24 (§2.2).
	if g.WSOpt != 24 {
		t.Fatalf("ws_opt = %d, want 24", g.WSOpt)
	}
	if g.UnitOfWriteBytes() != 96*1024 {
		t.Fatalf("unit of write = %d, want 96KB", g.UnitOfWriteBytes())
	}
	if g.SectorsPerChunk() != 96 {
		t.Fatalf("sectors/chunk = %d, want 96", g.SectorsPerChunk())
	}
	if g.StripesPerChunk() != 4 {
		t.Fatalf("stripes/chunk = %d, want 4", g.StripesPerChunk())
	}
	if g.TotalPUs() != 4 {
		t.Fatalf("total PUs = %d", g.TotalPUs())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPaperGeometryMatchesFigure4(t *testing.T) {
	g := PaperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Groups != 8 || g.PUsPerGroup != 4 || g.ChunksPerPU != 1474 {
		t.Fatalf("structure = %d×%d×%d", g.Groups, g.PUsPerGroup, g.ChunksPerPU)
	}
	if g.SectorsPerChunk() != 6144 {
		t.Fatalf("sectors/chunk = %d, want 6144", g.SectorsPerChunk())
	}
	if g.ChunkBytes() != 24<<20 {
		t.Fatalf("chunk = %d bytes, want 24MB", g.ChunkBytes())
	}
	if g.UnitOfWriteBytes() != 96*1024 {
		t.Fatalf("unit of write = %d, want 96KB", g.UnitOfWriteBytes())
	}
	// SSTable sizing from §4.3: 32 PUs × 24MB chunk = 768MB.
	sst := int64(g.TotalPUs()) * g.ChunkBytes()
	if sst != 768<<20 {
		t.Fatalf("SSTable size = %d, want 768MB", sst)
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	g := smallGeo()
	g.ChunksPerPU = 9 // more chunks than blocks per plane
	if g.Validate() == nil {
		t.Fatal("chunks > blocks should be rejected")
	}
	g = smallGeo()
	g.WSOpt = 7
	if g.Validate() == nil {
		t.Fatal("inconsistent ws_opt should be rejected")
	}
	g = smallGeo()
	g.Groups = 0
	if g.Validate() == nil {
		t.Fatal("zero groups should be rejected")
	}
	g = smallGeo()
	g.ChannelMBps = 0
	if g.Validate() == nil {
		t.Fatal("zero bandwidth should be rejected")
	}
}

func TestLocateCoversChunkExactlyOnce(t *testing.T) {
	g := smallGeo()
	seen := make(map[[3]int]bool)
	for s := 0; s < g.SectorsPerChunk(); s++ {
		l := g.locate(s)
		key := [3]int{l.plane, l.page, l.sector}
		if seen[key] {
			t.Fatalf("sector %d maps to duplicate location %v", s, key)
		}
		seen[key] = true
		if l.plane < 0 || l.plane >= g.Chip.Planes || l.page < 0 || l.page >= g.Chip.PagesPerBlock ||
			l.sector < 0 || l.sector >= g.Chip.SectorsPerPage {
			t.Fatalf("sector %d maps out of range: %+v", s, l)
		}
	}
	if len(seen) != g.SectorsPerChunk() {
		t.Fatalf("covered %d locations, want %d", len(seen), g.SectorsPerChunk())
	}
}

func TestLocateSequentialIsSequentialPerPlane(t *testing.T) {
	// Within each stripe, pages on one plane must be programmed in
	// ascending order, and across stripes pages never decrease.
	g := smallGeo()
	lastPage := make([]int, g.Chip.Planes)
	for i := range lastPage {
		lastPage[i] = -1
	}
	for s := 0; s < g.SectorsPerChunk(); s++ {
		l := g.locate(s)
		if l.page < lastPage[l.plane] {
			t.Fatalf("sector %d: page %d on plane %d after page %d", s, l.page, l.plane, lastPage[l.plane])
		}
		lastPage[l.plane] = l.page
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	data := make([]byte, geo.WSOpt*geo.Chip.SectorSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	end, err := d.VectorWrite(0, seqPPAs(id, 0, geo.WSOpt), data)
	if err != nil {
		t.Fatalf("VectorWrite: %v", err)
	}
	if end <= 0 {
		t.Fatal("write should consume virtual time")
	}
	got := make([]byte, len(data))
	if _, err := d.VectorRead(end, seqPPAs(id, 0, geo.WSOpt), got); err != nil {
		t.Fatalf("VectorRead: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
}

func TestWritePointerRule(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	// Writing at sector 4 of a free chunk violates the WP (must be 0).
	_, err := d.VectorWrite(0, seqPPAs(id, 4, 4), sectors(geo, 4, 1))
	if !errors.Is(err, ErrWritePointer) {
		t.Fatalf("err = %v, want ErrWritePointer", err)
	}
	if _, err = d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 1)); err != nil {
		t.Fatal(err)
	}
	// Rewriting sector 0 is also a WP violation.
	_, err = d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 1))
	if !errors.Is(err, ErrWritePointer) {
		t.Fatalf("rewrite err = %v, want ErrWritePointer", err)
	}
	info, _ := d.Chunk(id)
	if info.WP != 4 || info.State != ChunkOpen {
		t.Fatalf("chunk = %+v", info)
	}
}

func TestWriteSizeRule(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	_, err := d.VectorWrite(0, seqPPAs(id, 0, 3), sectors(geo, 3, 1))
	if !errors.Is(err, ErrWriteSize) {
		t.Fatalf("err = %v, want ErrWriteSize", err)
	}
	// Mismatched data length.
	_, err = d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 3, 1))
	if !errors.Is(err, ErrDataSize) {
		t.Fatalf("err = %v, want ErrDataSize", err)
	}
}

func TestChunkFillsAndCloses(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	n := geo.SectorsPerChunk()
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, n), sectors(geo, n, 9)); err != nil {
		t.Fatal(err)
	}
	info, _ := d.Chunk(id)
	if info.State != ChunkClosed || info.WP != n {
		t.Fatalf("chunk = %+v, want closed/full", info)
	}
	// Writing past a closed chunk fails.
	_, err := d.VectorWrite(0, []PPA{id.PPAOf(0)}, sectors(geo, 1, 1))
	if !errors.Is(err, ErrChunkState) && !errors.Is(err, ErrWriteSize) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteBeyondChunkCapacity(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	n := geo.SectorsPerChunk()
	ppas := seqPPAs(id, 0, n+geo.WSMin)
	_, err := d.VectorWrite(0, ppas, sectors(geo, n+geo.WSMin, 1))
	// The run exceeds the chunk: either the PPA check or the capacity
	// check must reject it.
	if err == nil {
		t.Fatal("overfull write should fail")
	}
}

func TestResetCycle(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	n := geo.SectorsPerChunk()
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, n), sectors(geo, n, 9)); err != nil {
		t.Fatal(err)
	}
	end, err := d.Reset(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if end < vclock.Time(d.chips[0][0].EraseTime()) {
		t.Fatalf("reset too fast: %v", end)
	}
	info, _ := d.Chunk(id)
	if info.State != ChunkFree || info.WP != 0 || info.Wear != 1 {
		t.Fatalf("after reset: %+v", info)
	}
	// Reset of a free chunk is a state error.
	if _, err := d.Reset(end, id); !errors.Is(err, ErrChunkState) {
		t.Fatalf("double reset err = %v", err)
	}
	// Chunk is writable again.
	if _, err := d.VectorWrite(end, seqPPAs(id, 0, 4), sectors(geo, 4, 2)); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	dst := sectors(geo, 1, 0)
	_, err := d.VectorRead(0, []PPA{id.PPAOf(0)}, dst)
	if !errors.Is(err, ErrUnwritten) {
		t.Fatalf("err = %v, want ErrUnwritten", err)
	}
}

func TestSubStripeWriteBufferedAndReadable(t *testing.T) {
	// A ws_min write smaller than ws_opt stays in the controller buffer
	// (§2.2: the device abstracts planes and paired pages) and must be
	// readable immediately.
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	data := sectors(geo, 4, 0x5A)
	end, err := d.VectorWrite(0, seqPPAs(id, 0, 4), data)
	if err != nil {
		t.Fatal(err)
	}
	got := sectors(geo, 4, 0)
	if _, err := d.VectorRead(end, seqPPAs(id, 0, 4), got); err != nil {
		t.Fatalf("read of buffered sectors: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("buffered read mismatch")
	}
	if d.Stats().CacheHitReads != 4 {
		t.Fatalf("cache hit reads = %d, want 4", d.Stats().CacheHitReads)
	}
}

func TestPadMakesDurableAndWastesSpace(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Pad(0, id); err != nil {
		t.Fatal(err)
	}
	info, _ := d.Chunk(id)
	if info.WP != geo.WSOpt {
		t.Fatalf("wp after pad = %d, want %d", info.WP, geo.WSOpt)
	}
	if d.Stats().PadSectors != int64(geo.WSOpt-4) {
		t.Fatalf("pad sectors = %d, want %d", d.Stats().PadSectors, geo.WSOpt-4)
	}
	// After a crash (no PLP) the padded data must survive.
	d.Crash()
	got := sectors(geo, 4, 0)
	if _, err := d.VectorRead(vclock.Time(vclock.Second), seqPPAs(id, 0, 4), got); err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if got[0] != 0x11 {
		t.Fatal("padded data lost")
	}
	// Padding an already-aligned chunk is a no-op.
	before := d.Stats().PadSectors
	if _, err := d.Pad(0, id); err != nil {
		t.Fatal(err)
	}
	if d.Stats().PadSectors != before {
		t.Fatal("no-op pad should not pad")
	}
}

func TestCrashLosesUnpaddedBuffer(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 0x22)); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	info, _ := d.Chunk(id)
	if info.WP != 0 {
		t.Fatalf("wp after crash = %d, want 0 (buffer lost)", info.WP)
	}
	dst := sectors(geo, 1, 0)
	if _, err := d.VectorRead(0, []PPA{id.PPAOf(0)}, dst); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read after crash = %v, want ErrUnwritten", err)
	}
	// The chunk must accept new writes at the retreated WP.
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 0x33)); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
}

func TestCrashWithPLPKeepsBuffer(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1, PowerLossProtected: true})
	id := ChunkID{0, 0, 0}
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 0x44)); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	info, _ := d.Chunk(id)
	if info.WP != geo.WSOpt {
		t.Fatalf("wp after PLP crash = %d, want %d", info.WP, geo.WSOpt)
	}
	got := sectors(geo, 4, 0)
	if _, err := d.VectorRead(vclock.Time(vclock.Second), seqPPAs(id, 0, 4), got); err != nil {
		t.Fatalf("read after PLP crash: %v", err)
	}
	if got[0] != 0x44 {
		t.Fatal("PLP data lost")
	}
	// Writes continue at the padded WP.
	if _, err := d.VectorWrite(0, seqPPAs(id, geo.WSOpt, 4), sectors(geo, 4, 1)); err != nil {
		t.Fatalf("write after PLP crash: %v", err)
	}
}

func TestOpenChunkLimit(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	for c := 0; c < geo.MaxOpenPerPU; c++ {
		id := ChunkID{0, 0, c}
		if _, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	id := ChunkID{0, 0, geo.MaxOpenPerPU}
	_, err := d.VectorWrite(0, seqPPAs(id, 0, 4), sectors(geo, 4, 1))
	if !errors.Is(err, ErrOpenLimit) {
		t.Fatalf("err = %v, want ErrOpenLimit", err)
	}
}

func TestGroupsDoNotInterfere(t *testing.T) {
	// §2.2: "The Open-Channel SSD controller guarantees that there is no
	// interferences across groups." Two full-chunk writes to different
	// groups must finish at (nearly) the same virtual time as one alone;
	// two writes to the same PU must serialize.
	geo := smallGeo()
	geo.CacheMB = 0 // write-through so media time is client-visible
	d := newDev(t, geo, Options{Seed: 1})
	n := geo.SectorsPerChunk()

	aloneEnd, err := d.VectorWrite(0, seqPPAs(ChunkID{0, 0, 0}, 0, n), sectors(geo, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	alone := aloneEnd.Sub(0)

	d2 := newDev(t, geo, Options{Seed: 1})
	e1, err := d2.VectorWrite(0, seqPPAs(ChunkID{0, 0, 0}, 0, n), sectors(geo, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d2.VectorWrite(0, seqPPAs(ChunkID{1, 0, 0}, 0, n), sectors(geo, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	cross := vclock.Max(e1, e2).Sub(0)
	if float64(cross) > 1.05*float64(alone) {
		t.Fatalf("cross-group writes interfered: alone=%v both=%v", alone, cross)
	}

	d3 := newDev(t, geo, Options{Seed: 1})
	s1, err := d3.VectorWrite(0, seqPPAs(ChunkID{0, 0, 0}, 0, n), sectors(geo, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d3.VectorWrite(0, seqPPAs(ChunkID{0, 0, 1}, 0, n), sectors(geo, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	samePU := vclock.Max(s1, s2).Sub(0)
	if float64(samePU) < 1.5*float64(alone) {
		t.Fatalf("same-PU writes should serialize: alone=%v both=%v", alone, samePU)
	}
}

func TestWriteBackCacheHidesMediaLatency(t *testing.T) {
	// §4.3: "the Open-Channel SSD implements a write-back policy where
	// writes complete as soon as they hit the storage controller cache."
	geo := smallGeo()
	cached := newDev(t, geo, Options{Seed: 1})
	geoNC := geo
	geoNC.CacheMB = 0
	uncached := newDev(t, geoNC, Options{Seed: 1})

	n := geo.WSOpt
	id := ChunkID{0, 0, 0}
	e1, err := cached.VectorWrite(0, seqPPAs(id, 0, n), sectors(geo, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := uncached.VectorWrite(0, seqPPAs(id, 0, n), sectors(geo, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e1 >= e2 {
		t.Fatalf("cached write (%v) should beat uncached (%v)", e1, e2)
	}
	// The cached write should cost roughly the DRAM copy, far below tProg.
	if e1 > vclock.Time(500*vclock.Microsecond) {
		t.Fatalf("cached write too slow: %v", e1)
	}
}

func TestCacheBackpressure(t *testing.T) {
	// Writing far more than the cache capacity must eventually slow
	// admissions down to media drain speed.
	geo := smallGeo()
	geo.CacheMB = 1
	d := newDev(t, geo, Options{Seed: 1})
	n := geo.SectorsPerChunk()
	var now vclock.Time
	// Fill several chunks on one PU back-to-back.
	for c := 0; c < 6; c++ {
		end, err := d.VectorWrite(now, seqPPAs(ChunkID{0, 0, c}, 0, n), sectors(geo, n, byte(c)))
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// 6 chunks × 96 sectors × 4KB = 2.25MB through a 1MB cache: the last
	// admission must have waited on drains (program time scale, not DRAM).
	if now < vclock.Time(vclock.Millisecond) {
		t.Fatalf("backpressure absent: all writes completed at %v", now)
	}
}

func TestDeviceCopy(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	src := ChunkID{0, 0, 0}
	dst := ChunkID{1, 1, 0}
	data := sectors(geo, geo.WSOpt, 0x77)
	end, err := d.VectorWrite(0, seqPPAs(src, 0, geo.WSOpt), data)
	if err != nil {
		t.Fatal(err)
	}
	start, end2, err := d.Copy(end, seqPPAs(src, 0, geo.WSOpt), dst)
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if start != 0 {
		t.Fatalf("copy start sector = %d, want 0", start)
	}
	got := sectors(geo, geo.WSOpt, 0)
	if _, err := d.VectorRead(end2, seqPPAs(dst, 0, geo.WSOpt), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copied data mismatch")
	}
	if d.Stats().Copies != 1 {
		t.Fatalf("copies = %d", d.Stats().Copies)
	}
}

func TestReport(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	rep := d.Report()
	want := geo.Groups * geo.PUsPerGroup * geo.ChunksPerPU
	if len(rep) != want {
		t.Fatalf("report has %d entries, want %d", len(rep), want)
	}
	for _, ci := range rep {
		if ci.State != ChunkFree {
			t.Fatalf("fresh chunk %v in state %v", ci.ID, ci.State)
		}
	}
}

func TestFactoryBadChunksOffline(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 3, Reliability: nand.Reliability{FactoryBadRate: 0.2}})
	var offline int
	for _, ci := range d.Report() {
		if ci.State == ChunkOffline {
			offline++
		}
	}
	if offline == 0 {
		t.Fatal("expected some offline chunks at 20% factory bad rate")
	}
	// Writing to an offline chunk fails.
	for _, ci := range d.Report() {
		if ci.State == ChunkOffline {
			_, err := d.VectorWrite(0, seqPPAs(ci.ID, 0, 4), sectors(geo, 4, 1))
			if !errors.Is(err, ErrOffline) {
				t.Fatalf("write to offline: %v", err)
			}
			break
		}
	}
}

func TestFlushAll(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	if _, err := d.VectorWrite(0, seqPPAs(ChunkID{0, 0, 0}, 0, 4), sectors(geo, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VectorWrite(0, seqPPAs(ChunkID{1, 0, 0}, 0, 4), sectors(geo, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	d.Crash() // nothing should be lost now
	got := sectors(geo, 4, 0)
	if _, err := d.VectorRead(vclock.Time(vclock.Second), seqPPAs(ChunkID{0, 0, 0}, 0, 4), got); err != nil {
		t.Fatalf("read after flush+crash: %v", err)
	}
	if got[0] != 1 {
		t.Fatal("flushed data lost")
	}
}

func TestStatsCounters(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, geo.WSOpt), sectors(geo, geo.WSOpt, 1)); err != nil {
		t.Fatal(err)
	}
	got := sectors(geo, geo.WSOpt, 0)
	if _, err := d.VectorRead(0, seqPPAs(id, 0, geo.WSOpt), got); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.VectorWrites != 1 || s.VectorReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SectorsWritten != int64(geo.WSOpt) || s.SectorsRead != int64(geo.WSOpt) {
		t.Fatalf("sector counts = %d/%d", s.SectorsWritten, s.SectorsRead)
	}
}

func TestVectorWriteScatterAcrossChunks(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	ppas := append(seqPPAs(ChunkID{0, 0, 0}, 0, 4), seqPPAs(ChunkID{1, 1, 2}, 0, 4)...)
	data := sectors(geo, 8, 0xEE)
	if _, err := d.VectorWrite(0, ppas, data); err != nil {
		t.Fatalf("scatter write: %v", err)
	}
	for _, id := range []ChunkID{{0, 0, 0}, {1, 1, 2}} {
		info, _ := d.Chunk(id)
		if info.WP != 4 {
			t.Fatalf("%v wp = %d, want 4", id, info.WP)
		}
	}
}

func TestMediaReadAfterCacheDrain(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	id := ChunkID{0, 0, 0}
	if _, err := d.VectorWrite(0, seqPPAs(id, 0, geo.WSOpt), sectors(geo, geo.WSOpt, 1)); err != nil {
		t.Fatal(err)
	}
	// Long after the write, reads come from media and cost tR.
	longAfter := vclock.Time(10 * vclock.Second)
	dst := sectors(geo, 4, 0)
	end, err := d.VectorRead(longAfter, seqPPAs(id, 0, 4), dst)
	if err != nil {
		t.Fatal(err)
	}
	if end.Sub(longAfter) < d.chips[0][0].ReadTime() {
		t.Fatalf("media read too fast: %v", end.Sub(longAfter))
	}
	if d.Stats().MediaReads == 0 {
		t.Fatal("expected media reads")
	}
}

// Property: any in-order sequence of ws_min-multiple appends round-trips.
func TestAppendRoundTripProperty(t *testing.T) {
	geo := smallGeo()
	f := func(sizes []uint8) bool {
		d, err := New(geo, Options{Seed: 7})
		if err != nil {
			return false
		}
		id := ChunkID{0, 1, 3}
		written := 0
		var fills []byte
		now := vclock.Time(0)
		for i, s := range sizes {
			n := (int(s)%3 + 1) * geo.WSMin // 4, 8 or 12 sectors
			if written+n > geo.SectorsPerChunk() {
				break
			}
			fill := byte(i + 1)
			start, end, err := d.Append(now, id, sectors(geo, n, fill))
			if err != nil || start != written {
				return false
			}
			now = end
			written += n
			for j := 0; j < n; j++ {
				fills = append(fills, fill)
			}
		}
		if written == 0 {
			return true
		}
		got := make([]byte, written*geo.Chip.SectorSize)
		if _, err := d.VectorRead(now, seqPPAs(id, 0, written), got); err != nil {
			return false
		}
		for s := 0; s < written; s++ {
			if got[s*geo.Chip.SectorSize] != fills[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunk wear equals the number of resets, and WP never exceeds
// the chunk capacity.
func TestWearProperty(t *testing.T) {
	geo := smallGeo()
	f := func(rounds uint8) bool {
		d, err := New(geo, Options{Seed: 11})
		if err != nil {
			return false
		}
		id := ChunkID{1, 0, 5}
		n := geo.SectorsPerChunk()
		r := int(rounds%5) + 1
		now := vclock.Time(0)
		for i := 0; i < r; i++ {
			end, err := d.VectorWrite(now, seqPPAs(id, 0, n), sectors(geo, n, byte(i)))
			if err != nil {
				return false
			}
			end2, err := d.Reset(end, id)
			if err != nil {
				return false
			}
			now = end2
		}
		info, _ := d.Chunk(id)
		return info.Wear == r && info.WP == 0 && info.State == ChunkFree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkStateString(t *testing.T) {
	if ChunkFree.String() != "free" || ChunkOpen.String() != "open" ||
		ChunkClosed.String() != "closed" || ChunkOffline.String() != "offline" {
		t.Fatal("state strings wrong")
	}
}
