package oxblock

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// testRig builds a small device (4 groups × 2 PUs × 16 chunks of 1.5 MB)
// and a controller for OX-Block testing.
func testRig(t *testing.T, seed int64) *ox.Controller {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 48,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 4, PUsPerGroup: 2, ChunksPerPU: 16, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 16, MaxOpenPerPU: 16,
	})
	// OX-Block relies on a power-loss-protected controller cache: data
	// buffered below ws_opt survives a crash (capacitor flush). Without
	// PLP every commit would have to pad its data stripes.
	dev, err := ocssd.New(geo, ocssd.Options{Seed: seed, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func newBlockDev(t *testing.T, ctrl *ox.Controller, cfg Config) (*Device, vclock.Time) {
	t.Helper()
	d, _, end, err := New(ctrl, cfg, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, end
}

func pagesOf(n int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, n*4096)
}

func TestWriteReadRoundTrip(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	end, err := d.Write(now, 10, pagesOf(4, 0xAA))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _, err := d.Read(end, 10, 4)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, pagesOf(4, 0xAA)) {
		t.Fatal("round-trip mismatch")
	}
	s := d.Stats()
	if s.Txns != 1 || s.PagesWritten != 4 || s.PagesRead != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUnmappedReadsAsZeros(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	got, _, err := d.Read(now, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 2*4096)) {
		t.Fatal("unmapped pages should read as zeros")
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	var err error
	for i := byte(1); i <= 5; i++ {
		now, err = d.Write(now, 7, pagesOf(2, i))
		if err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := d.Read(now, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("read %x, want newest (5)", got[0])
	}
}

func TestValidationErrors(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 1024})
	if _, err := d.Write(now, -1, pagesOf(1, 1)); !errors.Is(err, ErrRange) {
		t.Fatalf("negative lpn: %v", err)
	}
	if _, err := d.Write(now, 1023, pagesOf(2, 1)); !errors.Is(err, ErrRange) {
		t.Fatalf("overflow extent: %v", err)
	}
	if _, err := d.Write(now, 0, make([]byte, 100)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("partial page: %v", err)
	}
	if _, err := d.Write(now, 0, pagesOf(MaxTxPages+4, 1)); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("huge tx: %v", err)
	}
	if _, _, err := d.Read(now, 1024, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("read out of range: %v", err)
	}
	if _, err := d.Trim(now, 2000, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("trim out of range: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	ctrl := testRig(t, 1)
	// Logical capacity beyond 90% of physical must be rejected.
	phys := int64(4*2*16) * int64(384)
	if _, _, _, err := New(ctrl, Config{LogicalPages: phys}, 0); err == nil {
		t.Fatal("no-overprovisioning config should be rejected")
	}
}

func TestTrim(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	now, err := d.Write(now, 50, pagesOf(4, 0x77))
	if err != nil {
		t.Fatal(err)
	}
	now, err = d.Trim(now, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(now, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2*4096], make([]byte, 2*4096)) {
		t.Fatal("trimmed pages should read as zeros")
	}
	if got[2*4096] != 0x77 {
		t.Fatal("untrimmed pages must survive")
	}
}

func TestRecoveryAfterCleanWrites(t *testing.T) {
	ctrl := testRig(t, 1)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	var err error
	for i := int64(0); i < 8; i++ {
		now, err = d.Write(now, i*8, pagesOf(8, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Crash: all volatile state vanishes; a new instance recovers from
	// the checkpoint (none here) and the log.
	dev.Crash()
	d2, report, end, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if report == nil || report.ReplayedRecords != 8 {
		t.Fatalf("report = %+v, want 8 replayed", report)
	}
	for i := int64(0); i < 8; i++ {
		got, _, err := d2.Read(end, i*8, 8)
		if err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("lpn %d: got %x, want %x", i*8, got[0], i+1)
		}
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	ctrl := testRig(t, 1)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	var err error
	for i := int64(0); i < 6; i++ {
		now, err = d.Write(now, i*4, pagesOf(4, byte(0x10+i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = d.Checkpoint(now)
	if err != nil {
		t.Fatal(err)
	}
	// Two more transactions after the checkpoint.
	now, err = d.Write(now, 100, pagesOf(4, 0xA1))
	if err != nil {
		t.Fatal(err)
	}
	now, err = d.Write(now, 104, pagesOf(4, 0xA2))
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	d2, report, end, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !report.CheckpointFound {
		t.Fatal("checkpoint not found")
	}
	if report.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (only post-checkpoint)", report.ReplayedRecords)
	}
	for i := int64(0); i < 6; i++ {
		got, _, err := d2.Read(end, i*4, 1)
		if err != nil || got[0] != byte(0x10+i) {
			t.Fatalf("pre-checkpoint data lost at %d: %x %v", i*4, got[0], err)
		}
	}
	got, _, _ := d2.Read(end, 100, 1)
	if got[0] != 0xA1 {
		t.Fatal("post-checkpoint data lost")
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	// With periodic checkpoints, recovery replays only the records since
	// the last one — the mechanism behind Figure 3's bounded recovery.
	ctrl := testRig(t, 1)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{
		LogicalPages:       2048,
		CheckpointInterval: 50 * vclock.Millisecond,
	})
	var err error
	for i := 0; i < 30; i++ {
		now, err = d.Write(now, int64(i%16)*8, pagesOf(8, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Checkpoints == 0 {
		t.Fatal("interval checkpoints did not run")
	}
	dev.Crash()
	_, report, _, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplayedRecords >= 30 {
		t.Fatalf("replayed %d records; checkpoints should bound replay", report.ReplayedRecords)
	}
}

func TestAtomicityAcrossGC(t *testing.T) {
	// Overwrite a working set many times to force GC, then verify every
	// page still returns its newest value — GC must never lose data.
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 3000})
	var err error
	version := make(map[int64]byte)
	for round := 0; round < 40; round++ {
		lpn := int64(round%25) * 32
		fill := byte(round + 1)
		now, err = d.Write(now, lpn, pagesOf(32, fill))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		version[lpn] = fill
	}
	if d.GCStats().Collections == 0 {
		t.Log("warning: GC never triggered; consider shrinking the device")
	}
	for lpn, want := range version {
		got, _, err := d.Read(now, lpn, 32)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		for i := 0; i < 32*4096; i += 4096 {
			if got[i] != want {
				t.Fatalf("lpn %d page %d: got %x, want %x", lpn, i/4096, got[i], want)
			}
		}
	}
}

func TestGCThenRecovery(t *testing.T) {
	// Crash after heavy churn (GC has relocated data and reset chunks);
	// recovery must land on the newest committed values.
	ctrl := testRig(t, 2)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{
		LogicalPages:       3000,
		CheckpointInterval: 200 * vclock.Millisecond,
	})
	var err error
	version := make(map[int64]byte)
	for round := 0; round < 60; round++ {
		lpn := int64(round%25) * 32
		fill := byte(round + 1)
		now, err = d.Write(now, lpn, pagesOf(32, fill))
		if err != nil {
			t.Fatal(err)
		}
		version[lpn] = fill
	}
	if d.GCStats().Collections == 0 {
		t.Skip("GC never ran; nothing to verify")
	}
	dev.Crash()
	d2, _, end, err := New(ctrl, Config{LogicalPages: 3000}, now)
	if err != nil {
		t.Fatal(err)
	}
	for lpn, want := range version {
		got, _, err := d2.Read(end, lpn, 32)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", lpn, err)
		}
		if got[0] != want {
			t.Fatalf("lpn %d: got %x, want %x after GC+recovery", lpn, got[0], want)
		}
	}
}

func TestDoubleCrashRecovery(t *testing.T) {
	ctrl := testRig(t, 3)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	now, err := d.Write(now, 0, pagesOf(4, 0x11))
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	d2, _, now, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = d2.Write(now, 4, pagesOf(4, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	d3, _, end, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := d3.Read(end, 0, 1)
	b, _, _ := d3.Read(end, 4, 1)
	if a[0] != 0x11 || b[0] != 0x22 {
		t.Fatalf("after two crashes: %x %x", a[0], b[0])
	}
}

func TestRecoveryTimeGrowsWithLog(t *testing.T) {
	// Figure 3's core shape: without checkpoints, recovery time grows
	// with the amount of log written.
	measure := func(txns int) vclock.Duration {
		ctrl := testRig(t, 4)
		dev := ctrl.Media().(*ocssd.Device)
		d, now := newBlockDev(t, ctrl, Config{LogicalPages: 3000})
		var err error
		for i := 0; i < txns; i++ {
			now, err = d.Write(now, int64(i%20)*16, pagesOf(16, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
		}
		dev.Crash()
		_, report, _, err := New(ctrl, Config{LogicalPages: 3000}, now)
		if err != nil {
			t.Fatal(err)
		}
		return report.Duration
	}
	short := measure(5)
	long := measure(40)
	if long <= short {
		t.Fatalf("recovery time should grow with log: %v vs %v", short, long)
	}
}

func TestWriteIsTransactionalUnderCrash(t *testing.T) {
	// A multi-page write whose commit record never reached the log must
	// roll back entirely: no torn transactions.
	ctrl := testRig(t, 5)
	dev := ctrl.Media().(*ocssd.Device)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	now, err := d.Write(now, 0, pagesOf(8, 0x01))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-transaction: data written, mapping updated in
	// RAM, but commit record not durable. We emulate by writing data
	// through the media directly (bypassing the WAL) — the recovered
	// device must not see it.
	raw := ctrl.Media()
	id := ocssd.ChunkID{Group: 3, PU: 1, Chunk: 9}
	if _, _, err := raw.Append(now, id, pagesOf(8, 0xEE)); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	d2, _, end, err := New(ctrl, Config{LogicalPages: 2048}, now)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := d2.Read(end, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x01 {
		t.Fatal("committed transaction lost")
	}
	// The uncommitted raw data must be invisible at every logical page.
	for lpn := int64(8); lpn < 64; lpn += 8 {
		got, _, err := d2.Read(end, lpn, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == 0xEE {
			t.Fatal("uncommitted data leaked into the logical space")
		}
	}
}

func TestGCLocalityCounters(t *testing.T) {
	ctrl := testRig(t, 6)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 3000})
	var err error
	for round := 0; round < 50; round++ {
		now, err = d.Write(now, int64(round%25)*32, pagesOf(32, byte(round)))
		if err != nil {
			t.Fatal(err)
		}
	}
	gs := d.GCStats()
	if gs.TotalAppIOs == 0 {
		t.Fatal("app I/O accounting missing")
	}
	if gs.Collections > 0 && gs.AffectedAppIOs > gs.TotalAppIOs {
		t.Fatalf("affected %d > total %d", gs.AffectedAppIOs, gs.TotalAppIOs)
	}
}

// TestReadExtentWithHoles reads a six-page extent under every pattern of
// mapped and unmapped pages: mapped pages come back with their own
// bytes, holes as zeros. The fully mapped pattern takes the direct path
// (the device reads into the returned buffer); every other one reads the
// mapped pages packed and spreads them in place.
func TestReadExtentWithHoles(t *testing.T) {
	const extent = 6
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	var err error
	for pattern := 0; pattern < 1<<extent; pattern++ {
		base := int64(pattern * extent)
		want := make([]byte, extent*4096)
		for i := 0; i < extent; i++ {
			if pattern&(1<<i) == 0 {
				continue
			}
			fill := byte(1 + pattern + 37*i)
			if fill == 0 {
				fill = 0xFF
			}
			if now, err = d.Write(now, base+int64(i), pagesOf(1, fill)); err != nil {
				t.Fatal(err)
			}
			copy(want[i*4096:], pagesOf(1, fill))
		}
		got, _, err := d.Read(now, base, extent)
		if err != nil {
			t.Fatalf("pattern %06b: %v", pattern, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pattern %06b: extent read back wrong", pattern)
		}
	}
}

// TestWriteDoesNotRetainCallerBuffer scribbles over the caller's buffer
// after each Write of a mix of sub-unit and whole-unit sizes: the pad
// scratch, the stripe writer and the device must all have copied.
func TestWriteDoesNotRetainCallerBuffer(t *testing.T) {
	ctrl := testRig(t, 1)
	d, now := newBlockDev(t, ctrl, Config{LogicalPages: 2048})
	var err error
	lpn := int64(0)
	var sizes []int
	for _, pages := range []int{1, 3, 1, 4, 24, 2, 7, 48, 1} {
		buf := pagesOf(pages, byte(0x10+len(sizes)))
		if now, err = d.Write(now, lpn, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
		sizes = append(sizes, pages)
		lpn += int64(pages)
	}
	lpn = 0
	for i, pages := range sizes {
		got, _, err := d.Read(now, lpn, pages)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pagesOf(pages, byte(0x10+i))) {
			t.Fatalf("write %d (%d pages) changed after the caller reused its buffer", i, pages)
		}
		lpn += int64(pages)
	}
}

// TestReadIntoDirtyDestination reads into a destination pre-filled with
// 0xFF, as a recycled buffer would be, on one of two twin devices and
// into a fresh buffer on the other: a fully mapped extent, one with
// trimmed pages and one never written must give the same bytes and the
// same instants either way.
func TestReadIntoDirtyDestination(t *testing.T) {
	var twins [2]*Device
	var now vclock.Time
	for i := range twins {
		d, start := newBlockDev(t, testRig(t, 1), Config{LogicalPages: 2048})
		end, err := d.Write(start, 0, pagesOf(8, 0x11))
		if err == nil {
			end, err = d.Write(end, 16, pagesOf(8, 0x22))
		}
		if err == nil {
			end, err = d.Trim(end, 18, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		twins[i], now = d, end
	}
	for _, c := range []struct {
		name  string
		lpn   int64
		pages int
	}{
		{"mapped", 0, 8},
		{"trimmed", 16, 8},
		{"straddling", 4, 16},
		{"never-written", 500, 4},
	} {
		fresh := make([]byte, c.pages*4096)
		freshEnd, freshErr := twins[0].ReadInto(now, c.lpn, fresh)
		dirty := bytes.Repeat([]byte{0xFF}, c.pages*4096)
		dirtyEnd, dirtyErr := twins[1].ReadInto(now, c.lpn, dirty)
		if freshErr != nil || dirtyErr != nil {
			t.Fatalf("%s: %v / %v", c.name, freshErr, dirtyErr)
		}
		if freshEnd != dirtyEnd {
			t.Fatalf("%s: dirty read ends at %v, fresh at %v", c.name, dirtyEnd, freshEnd)
		}
		if !bytes.Equal(fresh, dirty) {
			t.Fatalf("%s: a dirty destination reads back differently", c.name)
		}
		now = freshEnd
	}
}

// TestReadNeverRetainsDestination scribbles over each ReadInto
// destination after the call: no later read may see it.
func TestReadNeverRetainsDestination(t *testing.T) {
	d, now := newBlockDev(t, testRig(t, 1), Config{LogicalPages: 2048})
	now, err := d.Write(now, 0, pagesOf(4, 0x33))
	if err != nil {
		t.Fatal(err)
	}
	if now, err = d.Trim(now, 2, 1); err != nil {
		t.Fatal(err)
	}
	want := pagesOf(4, 0x33)
	clear(want[2*4096 : 3*4096])
	for i := 0; i < 3; i++ {
		dst := make([]byte, len(want))
		if now, err = d.ReadInto(now, 0, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("read %d returned the wrong bytes", i)
		}
		for j := range dst {
			dst[j] = 0xEE
		}
	}
	got, _, err := d.Read(now, 0, 4)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after scribbling: %v, equal %v", err, bytes.Equal(got, want))
	}
}

// TestOffloadScanReusesScratch scans twice through the device's scratch
// extent: the second, shorter scan over a trimmed page must not see the
// first scan's bytes.
func TestOffloadScanReusesScratch(t *testing.T) {
	d, now := newBlockDev(t, testRig(t, 1), Config{LogicalPages: 2048})
	now, err := d.Write(now, 0, pagesOf(8, 0x33))
	if err != nil {
		t.Fatal(err)
	}
	if now, err = d.Trim(now, 5, 1); err != nil {
		t.Fatal(err)
	}
	pred := offload.Predicate{Offset: 100, Mask: 0xFF, Value: 0x33}
	for _, c := range []struct {
		lpn   int64
		pages int
		want  []uint32
	}{
		{0, 8, []uint32{0, 1, 2, 3, 4, 6, 7}},
		{4, 3, []uint32{0, 2}},
	} {
		res, end, err := d.OffloadScan(now, c.lpn, c.pages, pred)
		if err != nil {
			t.Fatal(err)
		}
		now = end
		_, idx, pages, err := offload.DecodeScanResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(idx) != fmt.Sprint(c.want) || !bytes.Equal(pages, pagesOf(len(c.want), 0x33)) {
			t.Fatalf("scan [%d,+%d) matched %v, want %v", c.lpn, c.pages, idx, c.want)
		}
	}
}
