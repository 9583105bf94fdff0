package lightlsm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ftl/ftlcore"
	"repro/internal/lsm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

func testRig(t *testing.T) *ox.Controller {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 32, PagesPerBlock: 24,
		SectorsPerPage: 4, SectorSize: 4096, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 4, PUsPerGroup: 2, ChunksPerPU: 32, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 8, MaxOpenPerPU: 16,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func newEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	e, err := New(testRig(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBlockSizeIsUnitOfWrite(t *testing.T) {
	e := newEnv(t, Config{})
	// §4.2: dual-plane TLC → 96 KB.
	if e.BlockSize() != 96*1024 {
		t.Fatalf("block size = %d, want 96KB", e.BlockSize())
	}
	// §4.3: SSTable = #PUs × chunk size.
	if e.TableBytes() != int64(8)*e.geo.ChunkBytes() {
		t.Fatalf("table bytes = %d", e.TableBytes())
	}
	if e.MaxTableBlocks() != 8*e.BlocksPerChunk() {
		t.Fatalf("max blocks = %d", e.MaxTableBlocks())
	}
}

func block(e *Env, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, e.BlockSize())
}

func writeTable(t *testing.T, e *Env, blocks int, fill byte) (lsm.TableHandle, vclock.Time) {
	t.Helper()
	w, err := e.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	for i := 0; i < blocks; i++ {
		if now, err = w.Append(now, block(e, fill+byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	h, now, err := w.Commit(now)
	if err != nil {
		t.Fatal(err)
	}
	return h, now
}

func TestWriteReadTable(t *testing.T) {
	e := newEnv(t, Config{})
	h, now := writeTable(t, e, 12, 0x10)
	if h.Blocks != 12 {
		t.Fatalf("blocks = %d", h.Blocks)
	}
	dst := make([]byte, e.BlockSize())
	for i := 0; i < 12; i++ {
		var err error
		if now, err = e.ReadBlock(now, h, i, dst); err != nil {
			t.Fatalf("read block %d: %v", i, err)
		}
		if dst[0] != 0x10+byte(i) || dst[len(dst)-1] != 0x10+byte(i) {
			t.Fatalf("block %d content wrong", i)
		}
	}
	if _, err := e.ReadBlock(now, h, 12, dst); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
	st := e.Stats()
	if st.BlocksWritten != 12 || st.BlocksRead != 12 || st.TablesCreated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHorizontalPlacementStripesAllPUs(t *testing.T) {
	e := newEnv(t, Config{Placement: Horizontal})
	h, _ := writeTable(t, e, 8, 1)
	chunks, ok := e.TableChunks(h.ID)
	if !ok || len(chunks) != 8 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	pus := make(map[[2]int]bool)
	for _, c := range chunks {
		pus[[2]int{c.Group, c.PU}] = true
	}
	// 8 chunks over 8 PUs: every PU holds part of the table (Figure 4).
	if len(pus) != 8 {
		t.Fatalf("horizontal table covers %d PUs, want 8", len(pus))
	}
}

func TestVerticalPlacementConfinesToGroup(t *testing.T) {
	e := newEnv(t, Config{Placement: Vertical})
	h1, _ := writeTable(t, e, 8, 1)
	h2, _ := writeTable(t, e, 8, 2)
	c1, _ := e.TableChunks(h1.ID)
	c2, _ := e.TableChunks(h2.ID)
	g1 := c1[0].Group
	for _, c := range c1 {
		if c.Group != g1 {
			t.Fatalf("vertical table spans groups %d and %d", g1, c.Group)
		}
	}
	g2 := c2[0].Group
	for _, c := range c2 {
		if c.Group != g2 {
			t.Fatal("second table spans groups")
		}
	}
	// Consecutive tables rotate to different groups.
	if g1 == g2 {
		t.Fatalf("consecutive vertical tables on the same group %d", g1)
	}
	if e.Placement().String() != "vertical" {
		t.Fatal("placement accessor wrong")
	}
}

func TestVerticalTableTooBigRejected(t *testing.T) {
	ctrl := testRig(t)
	// 4 groups × 2 PUs × 32 chunks: one group holds 64 chunks.
	if _, err := New(ctrl, Config{Placement: Vertical, TableChunks: 100}); err == nil {
		t.Fatal("oversized vertical table should be rejected")
	}
}

func TestDeleteTableResetsChunksOnly(t *testing.T) {
	e := newEnv(t, Config{})
	h, now := writeTable(t, e, 16, 3)
	free := e.FreeChunks()
	now, err := e.DeleteTable(now, h)
	if err != nil {
		t.Fatal(err)
	}
	if e.FreeChunks() <= free {
		t.Fatal("delete did not return chunks")
	}
	if e.Stats().ChunkResets == 0 {
		t.Fatal("delete should reset chunks (§4.3)")
	}
	dst := make([]byte, e.BlockSize())
	if _, err := e.ReadBlock(now, h, 0, dst); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("read of deleted table: %v", err)
	}
	if _, err := e.DeleteTable(now, h); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestAbortReleasesChunks(t *testing.T) {
	e := newEnv(t, Config{})
	w, err := e.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	if now, err = w.Append(now, block(e, 1)); err != nil {
		t.Fatal(err)
	}
	free := e.FreeChunks()
	if _, err := w.Abort(now); err != nil {
		t.Fatal(err)
	}
	if e.FreeChunks() <= free {
		t.Fatal("abort did not release chunks")
	}
	if _, err := w.Append(now, block(e, 1)); err == nil {
		t.Fatal("append after abort should fail")
	}
}

var errInjectedWAL = errors.New("injected WAL append failure")

// walFaultMedia is the media as the WAL sees it: while armed, every
// append fails before it reaches the device.
type walFaultMedia struct {
	ox.Media
	armed bool
}

func (m *walFaultMedia) Append(now vclock.Time, id ocssd.ChunkID, data []byte) (int, vclock.Time, error) {
	if m.armed {
		return 0, now, errInjectedWAL
	}
	return m.Media.Append(now, id, data)
}

func (m *walFaultMedia) AppendPadded(now vclock.Time, id ocssd.ChunkID, data []byte, pad int) (int, vclock.Time, error) {
	if m.armed {
		return 0, now, errInjectedWAL
	}
	return m.Media.AppendPadded(now, id, data, pad)
}

// TestCommitWALFailureLeavesTableAbortable: when the forced append of a
// table's commit record fails, Commit reports it, the table is not
// served, and the writer stays open so Abort returns its chunks.
func TestCommitWALFailureLeavesTableAbortable(t *testing.T) {
	e := newEnv(t, Config{})
	media := &walFaultMedia{Media: e.media}
	var err error
	if e.wal, err = ftlcore.NewWAL(media, e.ctrl, e.alloc, ftlcore.WALConfig{Target: ftlcore.AnyTarget(), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	free := e.FreeChunks()
	w, err := e.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	for i := 0; i < 3; i++ {
		if now, err = w.Append(now, block(e, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	media.armed = true
	if _, _, err := w.Commit(now); !errors.Is(err, errInjectedWAL) {
		t.Fatalf("commit over a failing WAL returned %v, want the injected fault", err)
	}
	h := lsm.TableHandle{ID: e.nextID, Blocks: 3}
	if _, err := e.ReadBlock(now, h, 0, make([]byte, e.BlockSize())); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("the table whose commit failed is served: ReadBlock returned %v", err)
	}
	if _, err := w.Abort(now); err != nil {
		t.Fatal(err)
	}
	if got := e.FreeChunks(); got != free {
		t.Fatalf("after Abort %d chunks are free, %d before CreateTable", got, free)
	}
}

func TestTableOverflow(t *testing.T) {
	e := newEnv(t, Config{TableChunks: 1})
	w, err := e.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	for i := 0; i < e.MaxTableBlocks(); i++ {
		if now, err = w.Append(now, block(e, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(now, block(e, 0)); !errors.Is(err, ErrTableFull) {
		t.Fatalf("overflow append: %v", err)
	}
}

func TestWrongBlockSizeRejected(t *testing.T) {
	e := newEnv(t, Config{})
	w, _ := e.CreateTable(0)
	if _, err := w.Append(0, make([]byte, 4096)); err == nil {
		t.Fatal("short block should be rejected")
	}
}

func TestDispatchThreadSerializesSubmissions(t *testing.T) {
	e := newEnv(t, Config{DispatchCPU: 100 * vclock.Microsecond})
	h, _ := writeTable(t, e, 2, 1)
	dst := make([]byte, e.BlockSize())
	// Two reads submitted at the same instant: the second's dispatch
	// must queue behind the first (§4.3's single dispatch thread).
	e1, err := e.ReadBlock(0, h, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.ReadBlock(0, h, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	if e2 < e1 {
		t.Fatalf("expected dispatch serialization: %v then %v", e1, e2)
	}
	if e.dispatch.Busy() < 2*100*vclock.Microsecond {
		t.Fatal("dispatch cost not accounted")
	}
}

func TestLSMOverLightLSMEndToEnd(t *testing.T) {
	// Full integration: the mini-RocksDB over the LightLSM env on the
	// simulated OCSSD.
	e := newEnv(t, Config{Placement: Horizontal, TableChunks: 4})
	db, err := lsm.Open(lsm.Options{
		Env:           e,
		MemtableBytes: 256 * 1024,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	const n = 2000
	val := bytes.Repeat([]byte{0xCD}, 1024) // 1 KB values, like db_bench
	for i := 0; i < n; i++ {
		k := []byte{byte(i >> 8), byte(i), 0x10, 0x20}
		if now, err = db.Put(now, k, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	now = db.WaitIdle(now)
	for i := 0; i < n; i += 97 {
		k := []byte{byte(i >> 8), byte(i), 0x10, 0x20}
		got, n2, err := db.Get(now, k)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("value mismatch at %d", i)
		}
		now = n2
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("no flush through LightLSM")
	}
	if e.Stats().BlocksWritten == 0 {
		t.Fatal("no blocks written to the device")
	}
}
