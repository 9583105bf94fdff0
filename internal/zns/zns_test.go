package zns

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

func newTarget(t *testing.T) *Target {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 4, PUsPerGroup: 2, ChunksPerPU: 8, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 4, MaxOpenPerPU: 8,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := New(ctrl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// readAt reads length bytes of zone idx at off into a fresh buffer.
func readAt(tgt *Target, now vclock.Time, idx int, off, length int64) ([]byte, vclock.Time, error) {
	dst := make([]byte, length)
	end, err := tgt.ReadInto(now, idx, off, dst)
	return dst, end, err
}

func blockOf(t *Target, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, t.BlockSize())
}

func TestGeometryCarving(t *testing.T) {
	tgt := newTarget(t)
	// 4 groups × 2 PUs × 8 chunks, 2 chunks per zone → 8 zones per
	// group, 32 zones total.
	if tgt.Zones() != 32 {
		t.Fatalf("zones = %d, want 32", tgt.Zones())
	}
	if tgt.BlockSize() != 96*1024 {
		t.Fatalf("block = %d, want 96KB (unit of write)", tgt.BlockSize())
	}
	// Zones never span groups (the ZNS isolation property).
	for _, zi := range tgt.Report() {
		if zi.State != ZoneEmpty || zi.WP != 0 {
			t.Fatalf("fresh zone %d: %+v", zi.Index, zi)
		}
	}
}

func TestSequentialWriteAndRead(t *testing.T) {
	tgt := newTarget(t)
	b := tgt.BlockSize()
	end, err := tgt.Write(0, 0, 0, blockOf(tgt, 0x11))
	if err != nil {
		t.Fatal(err)
	}
	end, err = tgt.Write(end, 0, int64(b), blockOf(tgt, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	zi, _ := tgt.Zone(0)
	if zi.State != ZoneOpen || zi.WP != int64(2*b) {
		t.Fatalf("zone = %+v", zi)
	}
	got, _, err := readAt(tgt, end, 0, 0, int64(2*b))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 || got[b] != 0x22 {
		t.Fatal("zone data mismatch")
	}
}

func TestSequentialWriteRequired(t *testing.T) {
	tgt := newTarget(t)
	// Writing anywhere but the WP violates ZNS semantics.
	if _, err := tgt.Write(0, 0, int64(tgt.BlockSize()), blockOf(tgt, 1)); !errors.Is(err, ErrWritePointer) {
		t.Fatalf("out-of-order write: %v", err)
	}
	if _, err := tgt.Write(0, 0, 0, make([]byte, 100)); !errors.Is(err, ErrAlignment) {
		t.Fatalf("misaligned write: %v", err)
	}
}

func TestZoneAppendReturnsOffsets(t *testing.T) {
	tgt := newTarget(t)
	b := int64(tgt.BlockSize())
	var offs []int64
	now := vclock.Time(0)
	for i := 0; i < 4; i++ {
		off, end, err := tgt.Append(now, 3, blockOf(tgt, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
		now = end
	}
	// Appends land at strictly increasing, dense offsets.
	for i, off := range offs {
		if off != int64(i)*b {
			t.Fatalf("append %d landed at %d, want %d", i, off, int64(i)*b)
		}
	}
}

func TestZoneFillsAndFinishes(t *testing.T) {
	tgt := newTarget(t)
	cap := tgt.ZoneCapacity()
	b := int64(tgt.BlockSize())
	now := vclock.Time(0)
	for off := int64(0); off < cap; off += b {
		var err error
		if now, err = tgt.Write(now, 1, off, blockOf(tgt, byte(off/b))); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	zi, _ := tgt.Zone(1)
	if zi.State != ZoneFull {
		t.Fatalf("state = %v, want full", zi.State)
	}
	if _, err := tgt.Write(now, 1, cap, blockOf(tgt, 1)); !errors.Is(err, ErrZoneState) {
		t.Fatalf("write to full zone: %v", err)
	}
	// All data survives.
	got, _, err := readAt(tgt, now, 1, cap-b, b)
	if err != nil || got[0] != byte((cap-b)/b) {
		t.Fatalf("last block: %x %v", got[0], err)
	}
}

func TestResetCycle(t *testing.T) {
	tgt := newTarget(t)
	now, err := tgt.Write(0, 2, 0, blockOf(tgt, 0x77))
	if err != nil {
		t.Fatal(err)
	}
	now, err = tgt.Reset(now, 2)
	if err != nil {
		t.Fatal(err)
	}
	zi, _ := tgt.Zone(2)
	if zi.State != ZoneEmpty || zi.WP != 0 {
		t.Fatalf("after reset: %+v", zi)
	}
	if _, _, err := readAt(tgt, now, 2, 0, int64(tgt.BlockSize())); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read after reset: %v", err)
	}
	// The zone accepts new writes from offset 0.
	if _, err := tgt.Write(now, 2, 0, blockOf(tgt, 0x88)); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
}

func TestFinishPartialZone(t *testing.T) {
	tgt := newTarget(t)
	now, err := tgt.Write(0, 4, 0, blockOf(tgt, 0x5A))
	if err != nil {
		t.Fatal(err)
	}
	now, err = tgt.Finish(now, 4)
	if err != nil {
		t.Fatal(err)
	}
	zi, _ := tgt.Zone(4)
	if zi.State != ZoneFull {
		t.Fatalf("state = %v, want full", zi.State)
	}
	if _, err := tgt.Write(now, 4, zi.WP, blockOf(tgt, 1)); !errors.Is(err, ErrZoneState) {
		t.Fatalf("write to finished zone: %v", err)
	}
	got, _, err := readAt(tgt, now, 4, 0, int64(tgt.BlockSize()))
	if err != nil || got[0] != 0x5A {
		t.Fatalf("finished zone data: %x %v", got[0], err)
	}
}

func TestReadValidation(t *testing.T) {
	tgt := newTarget(t)
	now, err := tgt.Write(0, 0, 0, blockOf(tgt, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := int64(tgt.BlockSize())
	if _, _, err := readAt(tgt, now, 0, 0, 2*b); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read past wp: %v", err)
	}
	if _, _, err := readAt(tgt, now, 0, 1, b); !errors.Is(err, ErrAlignment) {
		t.Fatalf("misaligned read: %v", err)
	}
	if _, _, err := readAt(tgt, now, 99, 0, b); !errors.Is(err, ErrZoneRange) {
		t.Fatalf("bad zone: %v", err)
	}
}

// Property: any sequence of appends then reads round-trips, and the WP
// always equals the number of appended blocks times the block size.
func TestZoneAppendProperty(t *testing.T) {
	tgt := newTarget(t)
	maxBlocks := int(tgt.ZoneCapacity()) / tgt.BlockSize()
	f := func(fills []byte) bool {
		idx := 7
		if _, err := tgt.Reset(0, idx); err != nil {
			return false
		}
		n := len(fills)
		if n > maxBlocks {
			n = maxBlocks
		}
		now := vclock.Time(0)
		for i := 0; i < n; i++ {
			off, end, err := tgt.Append(now, idx, blockOf(tgt, fills[i]))
			if err != nil || off != int64(i)*int64(tgt.BlockSize()) {
				return false
			}
			now = end
		}
		zi, _ := tgt.Zone(idx)
		if zi.WP != int64(n)*int64(tgt.BlockSize()) {
			return false
		}
		for i := 0; i < n; i++ {
			got, end, err := readAt(tgt, now, idx, int64(i)*int64(tgt.BlockSize()), int64(tgt.BlockSize()))
			if err != nil || got[0] != fills[i] {
				return false
			}
			now = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneIsolationAcrossGroups(t *testing.T) {
	// Writes to zones in different groups proceed without interference
	// (§2.3's isolation, inherited from the OCSSD group guarantee).
	tgt := newTarget(t)
	report := tgt.Report()
	var zoneA, zoneB int = -1, -1
	for _, zi := range report {
		if zoneA < 0 {
			zoneA = zi.Index
		} else if zi.Group != report[zoneA].Group {
			zoneB = zi.Index
			break
		}
	}
	if zoneB < 0 {
		t.Fatal("no cross-group zone pair")
	}
	// Sequential on one zone vs split across two groups.
	aloneEnd, err := tgt.Write(0, zoneA, 0, blockOf(tgt, 1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tgt.Write(0, zoneB, 0, blockOf(tgt, 2))
	if err != nil {
		t.Fatal(err)
	}
	both := vclock.Max(aloneEnd, e2)
	if float64(both) > 1.1*float64(aloneEnd) {
		t.Fatalf("cross-group zone writes interfered: %v vs %v", aloneEnd, both)
	}
}

// newCachelessTarget builds a target on a device without a write-back
// cache — the configuration whose cross-group writes commute.
func newCachelessTarget(t *testing.T) *Target {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 4, PUsPerGroup: 2, ChunksPerPU: 8, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 0, MaxOpenPerPU: 8,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := New(ctrl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestConcurrentWriteSafeTracksCache(t *testing.T) {
	if newTarget(t).ConcurrentWriteSafe() {
		t.Fatal("cached device reported write-overlap safe")
	}
	if !newCachelessTarget(t).ConcurrentWriteSafe() {
		t.Fatal("cache-less device reported write-overlap unsafe")
	}
}

func TestZoneGroupImmutableMapping(t *testing.T) {
	tgt := newTarget(t)
	for _, zi := range tgt.Report() {
		g, ok := tgt.ZoneGroup(zi.Index)
		if !ok || g != zi.Group {
			t.Fatalf("zone %d: ZoneGroup = (%d,%v), report says group %d", zi.Index, g, ok, zi.Group)
		}
	}
	if _, ok := tgt.ZoneGroup(tgt.Zones()); ok {
		t.Fatal("out-of-range zone resolved a group")
	}
	if _, ok := tgt.ZoneGroup(-1); ok {
		t.Fatal("negative zone resolved a group")
	}
}

// TestConcurrentZonesDisjointGroups exercises the per-zone locking
// under -race: one goroutine per group appends, reads back and resets
// its own zone, and the virtual completion times must match a serial
// run of the same schedules exactly (cross-group timing commutes on a
// cache-less device).
func TestConcurrentZonesDisjointGroups(t *testing.T) {
	const rounds = 6
	type res struct {
		zone int
		r    int
		end  vclock.Time
	}
	schedule := func(tgt *Target, zone int, sink func(res)) error {
		data := blockOf(tgt, byte(zone))
		var now vclock.Time
		for r := 0; r < rounds; r++ {
			off, end, err := tgt.Append(now, zone, data)
			if err != nil {
				return err
			}
			if _, end, err = readAt(tgt, end, zone, off, int64(len(data))); err != nil {
				return err
			}
			if r == rounds-1 {
				if end, err = tgt.Reset(end, zone); err != nil {
					return err
				}
			}
			sink(res{zone: zone, r: r, end: end})
			now = end
		}
		return nil
	}
	zonesFor := func(tgt *Target) []int {
		seen := map[int]bool{}
		var zones []int
		for _, zi := range tgt.Report() {
			if !seen[zi.Group] {
				seen[zi.Group] = true
				zones = append(zones, zi.Index)
			}
		}
		return zones
	}
	run := func(concurrent bool) map[res]bool {
		tgt := newCachelessTarget(t)
		out := make(map[res]bool)
		var mu sync.Mutex
		sink := func(x res) {
			mu.Lock()
			out[x] = true
			mu.Unlock()
		}
		zones := zonesFor(tgt)
		if !concurrent {
			for _, z := range zones {
				if err := schedule(tgt, z, sink); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		var wg sync.WaitGroup
		for _, z := range zones {
			wg.Add(1)
			go func(z int) {
				defer wg.Done()
				if err := schedule(tgt, z, sink); err != nil {
					t.Error(err)
				}
			}(z)
		}
		wg.Wait()
		return out
	}
	serial := run(false)
	conc := run(true)
	if len(serial) != len(conc) || len(serial) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(conc))
	}
	for x := range serial {
		if !conc[x] {
			t.Fatalf("serial completion %+v missing from concurrent run", x)
		}
	}
}

// TestReadIntoDirtyDestination reads into a destination pre-filled with
// 0xFF, as a recycled buffer would be, on one of two twin targets and
// into a fresh buffer on the other: one block, a multi-block extent
// across the zone's chunks and the zone's last block must give the same
// bytes and the same instants either way.
func TestReadIntoDirtyDestination(t *testing.T) {
	var twins [2]*Target
	var now vclock.Time
	b := int64(0)
	for i := range twins {
		tgt := newTarget(t)
		b = int64(tgt.BlockSize())
		end := vclock.Time(0)
		for k := 0; k < 4; k++ {
			var err error
			if _, end, err = tgt.Append(end, 3, blockOf(tgt, byte(0x10+k))); err != nil {
				t.Fatal(err)
			}
		}
		twins[i], now = tgt, end
	}
	for _, c := range []struct {
		name     string
		off, len int64
	}{
		{"one block", b, b},
		{"multi-block", 0, 3 * b},
		{"last block", 3 * b, b},
	} {
		fresh := make([]byte, c.len)
		freshEnd, freshErr := twins[0].ReadInto(now, 3, c.off, fresh)
		dirty := bytes.Repeat([]byte{0xFF}, int(c.len))
		dirtyEnd, dirtyErr := twins[1].ReadInto(now, 3, c.off, dirty)
		if freshErr != nil || dirtyErr != nil {
			t.Fatalf("%s: %v / %v", c.name, freshErr, dirtyErr)
		}
		if freshEnd != dirtyEnd {
			t.Fatalf("%s: dirty read ends at %v, fresh at %v", c.name, dirtyEnd, freshEnd)
		}
		if !bytes.Equal(fresh, dirty) {
			t.Fatalf("%s: a dirty destination reads back differently", c.name)
		}
		for k := int64(0); k < c.len/b; k++ {
			if fresh[k*b] != byte(0x10+c.off/b+k) {
				t.Fatalf("%s: block %d holds %#x", c.name, k, fresh[k*b])
			}
		}
		now = freshEnd
	}
}

// TestReadNeverRetainsDestination scribbles over each ReadInto
// destination after the call: no later read may see it.
func TestReadNeverRetainsDestination(t *testing.T) {
	tgt := newTarget(t)
	b := tgt.BlockSize()
	now, err := tgt.Write(0, 0, 0, append(blockOf(tgt, 0x44), blockOf(tgt, 0x55)...))
	if err != nil {
		t.Fatal(err)
	}
	want := append(blockOf(tgt, 0x44), blockOf(tgt, 0x55)...)
	for i := 0; i < 3; i++ {
		dst := make([]byte, 2*b)
		if now, err = tgt.ReadInto(now, 0, 0, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("read %d returned the wrong bytes", i)
		}
		for j := range dst {
			dst[j] = 0xEE
		}
	}
}
