package ftlcore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// testDevice returns a small device: 2 groups × 2 PUs × 8 chunks,
// 96 sectors per chunk (dual-plane TLC, ws_opt 24).
func testDevice(t *testing.T, opts ocssd.Options) (*ocssd.Device, *ox.Controller) {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 2, PUsPerGroup: 2, ChunksPerPU: 8, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 4, MaxOpenPerPU: 8,
	})
	d, err := ocssd.New(geo, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	return d, ctrl
}

func TestAllocatorPoolAccounting(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	if a.FreeCount() != 2*2*8 {
		t.Fatalf("free = %d, want 32", a.FreeCount())
	}
	id, err := a.Alloc(AnyTarget())
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeCount() != 31 {
		t.Fatalf("free after alloc = %d", a.FreeCount())
	}
	// Returning requires the chunk to have been written (reset of a free
	// chunk errors); write a little first.
	data := make([]byte, d.Geometry().WSMin*d.Geometry().Chip.SectorSize)
	if _, _, err := d.Append(0, id, data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Release(0, id); err != nil {
		t.Fatal(err)
	}
	if a.FreeCount() != 32 {
		t.Fatalf("free after release = %d", a.FreeCount())
	}
}

func TestAllocatorReservedWithheld(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	reserved := map[ocssd.ChunkID]bool{
		{Group: 0, PU: 0, Chunk: 0}: true,
		{Group: 1, PU: 1, Chunk: 7}: true,
	}
	a := NewAllocator(d, reserved)
	if a.FreeCount() != 30 {
		t.Fatalf("free = %d, want 30", a.FreeCount())
	}
	// Exhaust the pool: the reserved chunks must never appear.
	for i := 0; i < 30; i++ {
		id, err := a.Alloc(AnyTarget())
		if err != nil {
			t.Fatal(err)
		}
		if reserved[id] {
			t.Fatalf("reserved chunk %v handed out", id)
		}
	}
	if _, err := a.Alloc(AnyTarget()); !errors.Is(err, ErrNoFreeChunks) {
		t.Fatalf("exhausted pool: %v", err)
	}
}

func TestAllocatorRoundRobinStripes(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	// Four consecutive any-target allocations must hit 4 distinct PUs.
	seen := make(map[[2]int]bool)
	for i := 0; i < 4; i++ {
		id, err := a.Alloc(AnyTarget())
		if err != nil {
			t.Fatal(err)
		}
		seen[[2]int{id.Group, id.PU}] = true
	}
	if len(seen) != 4 {
		t.Fatalf("allocations covered %d PUs, want 4", len(seen))
	}
}

func TestAllocatorTargets(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	for i := 0; i < 16; i++ {
		id, err := a.Alloc(InGroup(1))
		if err != nil {
			t.Fatal(err)
		}
		if id.Group != 1 {
			t.Fatalf("in-group alloc returned %v", id)
		}
	}
	if _, err := a.Alloc(InGroup(1)); !errors.Is(err, ErrNoFreeChunks) {
		t.Fatal("group 1 should be exhausted")
	}
	if a.FreeInGroup(1) != 0 || a.FreeInGroup(0) != 16 {
		t.Fatalf("free per group = %d/%d", a.FreeInGroup(0), a.FreeInGroup(1))
	}
	id, err := a.Alloc(InPU(0, 1))
	if err != nil || id.Group != 0 || id.PU != 1 {
		t.Fatalf("in-pu alloc = %v, %v", id, err)
	}
	if _, err := a.Alloc(InGroup(99)); err == nil {
		t.Fatal("out-of-range group should fail")
	}
	if _, err := a.Alloc(InPU(0, 99)); err == nil {
		t.Fatal("out-of-range PU should fail")
	}
}

func TestAllocatorSkipsOfflineChunks(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 5, Reliability: nand.Reliability{FactoryBadRate: 0.3}})
	var offline int
	for _, ci := range d.Report() {
		if ci.State == ocssd.ChunkOffline {
			offline++
		}
	}
	if offline == 0 {
		t.Skip("seed produced no offline chunks")
	}
	a := NewAllocator(d, nil)
	if a.FreeCount() != 32-offline {
		t.Fatalf("free = %d, want %d", a.FreeCount(), 32-offline)
	}
	for {
		id, err := a.Alloc(AnyTarget())
		if err != nil {
			break
		}
		info, _ := d.Chunk(id)
		if info.State == ocssd.ChunkOffline {
			t.Fatalf("offline chunk %v handed out", id)
		}
	}
}

func TestAllocatorRetire(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	a.Retire(ocssd.ChunkID{Group: 0, PU: 0, Chunk: 3})
	if a.RetiredCount() != 1 {
		t.Fatalf("retired = %d", a.RetiredCount())
	}
}

func TestStripeWriterStripesAcrossPUs(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewStripeWriter(d, a, AnyTarget(), 4)
	if err != nil {
		t.Fatal(err)
	}
	geo := d.Geometry()
	unit := geo.WSOpt * geo.Chip.SectorSize
	puSeen := make(map[[2]int]bool)
	for i := 0; i < 4; i++ {
		ppas, _, err := w.Append(0, make([]byte, unit), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ppas) != geo.WSOpt {
			t.Fatalf("append returned %d ppas", len(ppas))
		}
		puSeen[[2]int{ppas[0].Group, ppas[0].PU}] = true
	}
	if len(puSeen) != 4 {
		t.Fatalf("4 appends covered %d PUs, want 4 (striping)", len(puSeen))
	}
}

func TestStripeWriterRotatesFullChunks(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewStripeWriter(d, a, AnyTarget(), 1)
	if err != nil {
		t.Fatal(err)
	}
	geo := d.Geometry()
	chunkBytes := int(geo.ChunkBytes())
	// Write two chunks' worth through a width-1 writer.
	var ppas []ocssd.PPA
	for i := 0; i < 2; i++ {
		var err error
		if ppas, _, err = w.Append(0, make([]byte, chunkBytes), 0, ppas); err != nil {
			t.Fatal(err)
		}
	}
	first := ppas[0].ChunkOf()
	second := ppas[len(ppas)-1].ChunkOf()
	if first == second {
		t.Fatal("writer did not rotate to a fresh chunk")
	}
	info, _ := d.Chunk(first)
	if info.State != ocssd.ChunkClosed {
		t.Fatalf("first chunk state = %v, want closed", info.State)
	}
}

func TestStripeWriterRejectsMisaligned(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewStripeWriter(d, a, AnyTarget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(0, make([]byte, 100), 0, nil); err == nil {
		t.Fatal("misaligned append should fail")
	}
	if _, _, err := w.Append(0, nil, 0, nil); err == nil {
		t.Fatal("empty append should fail")
	}
	if _, err := NewStripeWriter(d, a, AnyTarget(), 0); err == nil {
		t.Fatal("zero width should fail")
	}
}

func TestStripeWriterSpansChunkBoundary(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewStripeWriter(d, a, InPU(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	geo := d.Geometry()
	// Append 1.5 chunks in one call: must span two chunks.
	n := geo.SectorsPerChunk() + geo.SectorsPerChunk()/2
	ppas, _, err := w.Append(0, make([]byte, n*geo.Chip.SectorSize), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ppas) != n {
		t.Fatalf("got %d ppas, want %d", len(ppas), n)
	}
	chunks := make(map[ocssd.ChunkID]int)
	for _, p := range ppas {
		chunks[p.ChunkOf()]++
	}
	if len(chunks) != 2 {
		t.Fatalf("write spanned %d chunks, want 2", len(chunks))
	}
}

// appendLog records the appends a writer makes to its media.
type appendLog struct {
	ox.Media
	calls []string
}

func (m *appendLog) AppendPadded(now vclock.Time, id ocssd.ChunkID, data []byte, pad int) (int, vclock.Time, error) {
	m.calls = append(m.calls, fmt.Sprintf("%v %d+%d", id, len(data)/m.Geometry().Chip.SectorSize, pad))
	return m.Media.AppendPadded(now, id, data, pad)
}

// TestStripeWriterPaddedAppendMeetsChunkBoundary sends a padded append
// into the last unit of a chunk, so it splits across two chunks: the
// split falls on the unit boundary, the data before it fills the old
// chunk, and the pad travels in the same device append as the data it
// completes. A padded tail that exactly fills a chunk closes it without
// a split. Everything reads back as data followed by zeros.
func TestStripeWriterPaddedAppendMeetsChunkBoundary(t *testing.T) {
	d, _ := testDevice(t, ocssd.Options{Seed: 1})
	media := &appendLog{Media: d}
	w, err := NewStripeWriter(media, NewAllocator(d, nil), InPU(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	geo := d.Geometry()
	sz, spc, unit := geo.Chip.SectorSize, geo.SectorsPerChunk(), geo.WSMin
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n*sz) }
	readBack := func(p ocssd.PPA) []byte {
		t.Helper()
		got := make([]byte, sz)
		if _, err := d.VectorRead(0, []ocssd.PPA{p}, got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	ppas, _, err := w.Append(0, fill(spc-unit, 1), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := ppas[0].ChunkOf()
	// unit+1 data sectors and unit-1 pad sectors meet the chunk's last
	// unit: one unit of data stays, one data sector and the pad move on.
	data := append(fill(unit, 2), fill(1, 3)...)
	ppas, _, err = w.Append(0, data, unit-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	second := ppas[len(ppas)-1].ChunkOf()
	if len(ppas) != 2*unit || ppas[unit-1] != first.PPAOf(spc-1) || ppas[unit] != second.PPAOf(0) || second == first {
		t.Fatalf("padded append over a chunk boundary assigned %v", ppas)
	}
	// The tail of the second chunk, up to one unit, then a padded tail
	// that fills it exactly.
	if _, _, err := w.Append(0, fill(spc-2*unit, 4), 0, nil); err != nil {
		t.Fatal(err)
	}
	ppas, _, err = w.Append(0, fill(1, 5), unit-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ppas[0] != second.PPAOf(spc-unit) || ppas[unit-1] != second.PPAOf(spc-1) {
		t.Fatalf("padded tail filling a chunk assigned %v", ppas)
	}
	if info, _ := d.Chunk(second); info.State != ocssd.ChunkClosed {
		t.Fatalf("chunk filled by a padded tail is %v", info.State)
	}
	want := []string{
		fmt.Sprintf("%v %d+0", first, spc-unit),
		fmt.Sprintf("%v %d+0", first, unit),
		fmt.Sprintf("%v 1+%d", second, unit-1),
		fmt.Sprintf("%v %d+0", second, spc-2*unit),
		fmt.Sprintf("%v 1+%d", second, unit-1),
	}
	if fmt.Sprint(media.calls) != fmt.Sprint(want) {
		t.Fatalf("device appends\n got %v\nwant %v", media.calls, want)
	}
	if got := d.Stats().SectorsWritten; got != int64(2*spc) {
		t.Fatalf("device counted %d sectors written, want %d, pads included", got, 2*spc)
	}
	for _, c := range []struct {
		p    ocssd.PPA
		want []byte
	}{
		{first.PPAOf(spc - 1), fill(1, 2)},
		{second.PPAOf(0), fill(1, 3)},
		{second.PPAOf(1), fill(1, 0)},
		{second.PPAOf(unit - 1), fill(1, 0)},
		{second.PPAOf(spc - unit), fill(1, 5)},
		{second.PPAOf(spc - 1), fill(1, 0)},
	} {
		if !bytes.Equal(readBack(c.p), c.want) {
			t.Fatalf("sector %v does not read back as written", c.p)
		}
	}
}
