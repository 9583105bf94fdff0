package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func testGeo(cell CellType, planes int) Geometry {
	return Geometry{
		Planes:         planes,
		BlocksPerPlane: 8,
		PagesPerBlock:  24,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           cell,
	}
}

func newChip(t *testing.T, cell CellType, planes int) *Chip {
	t.Helper()
	geo := testGeo(cell, planes)
	c, err := New(geo, DefaultTiming(cell), Reliability{}, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func pageData(geo Geometry, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, geo.PageBytes())
}

func TestCellTypeProperties(t *testing.T) {
	cases := []struct {
		c    CellType
		bits int
		name string
	}{{SLC, 1, "SLC"}, {MLC, 2, "MLC"}, {TLC, 3, "TLC"}, {QLC, 4, "QLC"}}
	for _, tc := range cases {
		if tc.c.BitsPerCell() != tc.bits {
			t.Errorf("%v bits = %d, want %d", tc.c, tc.c.BitsPerCell(), tc.bits)
		}
		if tc.c.String() != tc.name {
			t.Errorf("String = %q, want %q", tc.c.String(), tc.name)
		}
		if !tc.c.Valid() {
			t.Errorf("%v should be valid", tc.c)
		}
	}
	if CellType(9).Valid() {
		t.Error("CellType(9) should be invalid")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeo(TLC, 2)
	if g.PageBytes() != 16384 {
		t.Fatalf("PageBytes = %d", g.PageBytes())
	}
	if g.BlockBytes() != 24*16384 {
		t.Fatalf("BlockBytes = %d", g.BlockBytes())
	}
	if g.ChipBytes() != 2*8*24*16384 {
		t.Fatalf("ChipBytes = %d", g.ChipBytes())
	}
	if g.Wordlines() != 8 {
		t.Fatalf("Wordlines = %d, want 8", g.Wordlines())
	}
	// The paper's running example: dual-plane TLC, 4 sectors/page, 4KB
	// sectors => unit of write = 96KB.
	if g.UnitOfWrite() != 96*1024 {
		t.Fatalf("UnitOfWrite = %d, want 96KB", g.UnitOfWrite())
	}
	// §2.1: QLC with 4 planes => 256KB unit of write.
	q := testGeo(QLC, 4)
	if q.UnitOfWrite() != 256*1024 {
		t.Fatalf("QLC×4 UnitOfWrite = %d, want 256KB", q.UnitOfWrite())
	}
}

func TestGeometryValidate(t *testing.T) {
	good := testGeo(TLC, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := good
	bad.Planes = 3
	if bad.Validate() == nil {
		t.Error("3 planes should be rejected")
	}
	bad = good
	bad.PagesPerBlock = 25 // not a multiple of 3 bits
	if bad.Validate() == nil {
		t.Error("pages not multiple of bits should be rejected")
	}
	bad = good
	bad.Cell = CellType(7)
	if bad.Validate() == nil {
		t.Error("unknown cell type should be rejected")
	}
	bad = good
	bad.SectorSize = 0
	if bad.Validate() == nil {
		t.Error("zero sector size should be rejected")
	}
	bad = good
	bad.OOBPerPage = -1
	if bad.Validate() == nil {
		t.Error("negative OOB should be rejected")
	}
}

func TestNewRejectsTimingMismatch(t *testing.T) {
	geo := testGeo(TLC, 2)
	_, err := New(geo, DefaultTiming(SLC), Reliability{}, 1)
	if err == nil {
		t.Fatal("SLC timing on TLC chip should be rejected")
	}
}

func TestDefaultTimingOrdering(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		tp := DefaultTiming(c)
		if len(tp.Program) != c.BitsPerCell() {
			t.Fatalf("%v: %d program timings", c, len(tp.Program))
		}
		if tp.Read >= tp.Program[0] {
			t.Errorf("%v: read should be faster than program", c)
		}
		if tp.Program[len(tp.Program)-1] >= tp.Erase {
			t.Errorf("%v: program should be faster than erase", c)
		}
		for i := 1; i < len(tp.Program); i++ {
			if tp.Program[i] <= tp.Program[i-1] {
				t.Errorf("%v: upper paired page %d should be slower", c, i)
			}
		}
	}
	// Density costs latency: each step up in bits/cell reads slower.
	if !(DefaultTiming(SLC).Read < DefaultTiming(MLC).Read &&
		DefaultTiming(MLC).Read < DefaultTiming(TLC).Read &&
		DefaultTiming(TLC).Read < DefaultTiming(QLC).Read) {
		t.Error("read latency should grow with density")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c := newChip(t, SLC, 1)
	geo := c.Geometry()
	want := pageData(geo, 0xAB)
	oob := []byte("meta")
	if err := c.Program(0, 0, 0, want, oob); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got, gotOOB, err := c.Read(0, 0, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch")
	}
	if !bytes.Equal(gotOOB, oob) {
		t.Fatal("oob mismatch")
	}
}

func TestProgramSequentialRule(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 1)
	if err := c.Program(0, 0, 1, d, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead program: %v, want ErrOutOfOrder", err)
	}
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, 0, 0, d, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram: %v, want ErrNotErased", err)
	}
	if c.WritePointer(0, 0) != 1 {
		t.Fatalf("wp = %d, want 1", c.WritePointer(0, 0))
	}
}

func TestProgramWrongSize(t *testing.T) {
	c := newChip(t, SLC, 1)
	if err := c.Program(0, 0, 0, []byte{1, 2, 3}, nil); !errors.Is(err, ErrDataSize) {
		t.Fatalf("short payload: %v, want ErrDataSize", err)
	}
	big := make([]byte, c.Geometry().OOBPerPage+1)
	if err := c.Program(0, 0, 0, pageData(c.Geometry(), 0), big); !errors.Is(err, ErrDataSize) {
		t.Fatalf("oversized oob: %v, want ErrDataSize", err)
	}
}

func TestPairedPageRule(t *testing.T) {
	// TLC: wordline = 3 pages. Page 0 unreadable until pages 0..2 written.
	c := newChip(t, TLC, 1)
	d := pageData(c.Geometry(), 7)
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrPairedIncomplete) {
		t.Fatalf("read before wordline complete: %v, want ErrPairedIncomplete", err)
	}
	if err := c.Program(0, 0, 1, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 1); !errors.Is(err, ErrPairedIncomplete) {
		t.Fatalf("still incomplete: %v", err)
	}
	if err := c.Program(0, 0, 2, d, nil); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 3; pg++ {
		if _, _, err := c.Read(0, 0, pg); err != nil {
			t.Fatalf("read page %d after wordline complete: %v", pg, err)
		}
	}
}

func TestSLCHasNoPairedRestriction(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 7)
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 0); err != nil {
		t.Fatalf("SLC page should be readable immediately: %v", err)
	}
}

func TestReadUnwritten(t *testing.T) {
	c := newChip(t, SLC, 1)
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read unwritten: %v, want ErrUnwritten", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 3)
	for pg := 0; pg < 4; pg++ {
		if err := c.Program(0, 0, pg, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.WritePointer(0, 0) != 0 {
		t.Fatal("erase should reset write pointer")
	}
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read after erase: %v, want ErrUnwritten", err)
	}
	if c.Erases(0, 0) != 1 {
		t.Fatalf("erases = %d, want 1", c.Erases(0, 0))
	}
	// Reprogram after erase must work.
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestEraseMulti(t *testing.T) {
	c := newChip(t, SLC, 2)
	d := pageData(c.Geometry(), 1)
	for p := 0; p < 2; p++ {
		if err := c.Program(p, 3, 0, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EraseMulti(3); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if c.Erases(p, 3) != 1 {
			t.Fatalf("plane %d erases = %d", p, c.Erases(p, 3))
		}
	}
}

func TestEnduranceWearOut(t *testing.T) {
	geo := testGeo(SLC, 1)
	c, err := New(geo, DefaultTiming(SLC), Reliability{Endurance: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Erase(0, 0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := c.Erase(0, 0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("4th erase: %v, want ErrWornOut", err)
	}
	if !c.IsBad(0, 0) {
		t.Fatal("worn block should be bad")
	}
	if err := c.Erase(0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block: %v, want ErrBadBlock", err)
	}
}

func TestMarkBad(t *testing.T) {
	c := newChip(t, SLC, 1)
	if err := c.MarkBad(0, 5); err != nil {
		t.Fatal(err)
	}
	if !c.IsBad(0, 5) {
		t.Fatal("block should be bad")
	}
	d := pageData(c.Geometry(), 1)
	if err := c.Program(0, 5, 0, d, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program to bad block: %v", err)
	}
	if _, _, err := c.Read(0, 5, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("read of bad block: %v", err)
	}
	if got := c.Stats().GrownBad; got != 1 {
		t.Fatalf("grown bad = %d, want 1", got)
	}
	// Marking twice must not double count.
	if err := c.MarkBad(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().GrownBad; got != 1 {
		t.Fatalf("grown bad after re-mark = %d, want 1", got)
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	geo := testGeo(SLC, 2)
	geo.BlocksPerPlane = 500
	c, err := New(geo, DefaultTiming(SLC), Reliability{FactoryBadRate: 0.05}, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Stats().FactoryBad
	if n == 0 {
		t.Fatal("expected some factory bad blocks at 5% over 1000 blocks")
	}
	if n > 120 {
		t.Fatalf("factory bad = %d, implausibly many", n)
	}
}

func TestProgramFailInjection(t *testing.T) {
	geo := testGeo(SLC, 1)
	c, err := New(geo, DefaultTiming(SLC), Reliability{ProgramFailRate: 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := pageData(geo, 1)
	if err := c.Program(0, 0, 0, d, nil); !errors.Is(err, ErrProgramFail) {
		t.Fatalf("program: %v, want ErrProgramFail", err)
	}
	if !c.IsBad(0, 0) {
		t.Fatal("failed block should be marked bad")
	}
}

func TestReadErrorInjectionGrowsWithWear(t *testing.T) {
	geo := testGeo(SLC, 1)
	geo.PagesPerBlock = 64
	c, err := New(geo, DefaultTiming(SLC), Reliability{Endurance: 10, ReadErrorBase: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := pageData(geo, 1)
	readAll := func() {
		if err := c.Program(0, 0, 0, d, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, _, err := c.Read(0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	fresh := c.Stats().BitErrors
	// Wear the block close to its endurance, then read again.
	for i := 0; i < 9; i++ {
		if err := c.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	readAll()
	worn := c.Stats().BitErrors - fresh
	if worn <= fresh {
		t.Fatalf("bit errors should grow with wear: fresh=%d worn=%d", fresh, worn)
	}
}

func TestAddressValidation(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 0)
	for _, bad := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 8, 0}, {0, 0, -1}, {0, 0, 24}} {
		if err := c.Program(bad[0], bad[1], bad[2], d, nil); !errors.Is(err, ErrAddress) {
			t.Errorf("program %v: %v, want ErrAddress", bad, err)
		}
		if _, _, err := c.Read(bad[0], bad[1], bad[2]); !errors.Is(err, ErrAddress) {
			t.Errorf("read %v: %v, want ErrAddress", bad, err)
		}
	}
	if err := c.Erase(0, 99); !errors.Is(err, ErrAddress) {
		t.Errorf("erase: %v, want ErrAddress", err)
	}
	if err := c.MarkBad(9, 9); !errors.Is(err, ErrAddress) {
		t.Errorf("markbad: %v, want ErrAddress", err)
	}
	if c.Erases(9, 9) != 0 || c.WritePointer(9, 9) != 0 || !c.IsBad(9, 9) {
		t.Error("out-of-range queries should answer safe defaults")
	}
}

func TestProgramTimePerPairedPage(t *testing.T) {
	c := newChip(t, TLC, 1)
	tp := c.Timing()
	// Pages 0,1,2 are the three paired pages of wordline 0.
	if c.ProgramTime(0) != tp.Program[0] || c.ProgramTime(1) != tp.Program[1] || c.ProgramTime(2) != tp.Program[2] {
		t.Fatal("program time should follow paired index")
	}
	// Page 3 starts wordline 1, back to the lower-page timing.
	if c.ProgramTime(3) != tp.Program[0] {
		t.Fatal("page 3 should use lower-page timing")
	}
	if c.ReadTime() != tp.Read || c.EraseTime() != tp.Erase {
		t.Fatal("read/erase timing accessors mismatch")
	}
}

func TestStatsCounting(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 1)
	for pg := 0; pg < 3; pg++ {
		if err := c.Program(0, 0, pg, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	for pg := 0; pg < 3; pg++ {
		if _, _, err := c.Read(0, 0, pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Programs != 3 || s.Reads != 3 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: any sequence of in-order programs followed by reads of
// completed wordlines round-trips the data exactly.
func TestRoundTripProperty(t *testing.T) {
	geo := testGeo(MLC, 1)
	f := func(seed int64, fills []byte) bool {
		c, err := New(geo, DefaultTiming(MLC), Reliability{}, seed)
		if err != nil {
			return false
		}
		n := len(fills)
		if n > geo.PagesPerBlock {
			n = geo.PagesPerBlock
		}
		for pg := 0; pg < n; pg++ {
			if err := c.Program(0, 0, pg, pageData(geo, fills[pg]), nil); err != nil {
				return false
			}
		}
		bits := geo.Cell.BitsPerCell()
		complete := (n / bits) * bits
		for pg := 0; pg < complete; pg++ {
			got, _, err := c.Read(0, 0, pg)
			if err != nil {
				return false
			}
			if got[0] != fills[pg] || got[len(got)-1] != fills[pg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the write pointer equals the number of successful programs
// since the last erase, and never exceeds pages-per-block.
func TestWritePointerProperty(t *testing.T) {
	geo := testGeo(SLC, 1)
	f := func(ops []bool) bool {
		c, err := New(geo, DefaultTiming(SLC), Reliability{}, 1)
		if err != nil {
			return false
		}
		want := 0
		d := pageData(geo, 1)
		for _, program := range ops {
			if program && want < geo.PagesPerBlock {
				if err := c.Program(0, 0, want, d, nil); err != nil {
					return false
				}
				want++
			} else if !program {
				if err := c.Erase(0, 0); err != nil {
					return false
				}
				want = 0
			}
			if c.WritePointer(0, 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	geo := testGeo(SLC, 2)
	geo.BlocksPerPlane = 200
	mk := func() int64 {
		c, err := New(geo, DefaultTiming(SLC), Reliability{FactoryBadRate: 0.1}, 99)
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().FactoryBad
	}
	if mk() != mk() {
		t.Fatal("same seed must produce the same factory bad map")
	}
}

func TestDurationForHelper(t *testing.T) {
	// Sanity-check that vclock integrates: transferring one 16KB page at
	// 800 MB/s takes 20.48µs of virtual time.
	d := vclock.DurationFor(16384, 800)
	if d < 20*vclock.Microsecond || d > 21*vclock.Microsecond {
		t.Fatalf("transfer time = %v", d)
	}
}

// TestProgramZeroEquivalence drives two chips with the same seed through
// one random sequence of program attempts — in order, out of order, onto
// programmed pages, out of range, onto blocks the injected failures
// retired — one with ProgramSectors of nil (zero) sectors, one with
// Program of a zero page. Every error, counter, write pointer and
// read-back must agree: a page of nil references is a page of zeros.
func TestProgramZeroEquivalence(t *testing.T) {
	geo := testGeo(TLC, 2)
	rel := Reliability{ProgramFailRate: 0.05}
	a, err := New(geo, DefaultTiming(TLC), rel, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(geo, DefaultTiming(TLC), rel, 9)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, geo.PageBytes())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		plane, blk := rng.Intn(geo.Planes), rng.Intn(geo.BlocksPerPlane)
		pg := a.WritePointer(plane, blk)
		switch rng.Intn(10) {
		case 0:
			pg = rng.Intn(geo.PagesPerBlock + 2) // any page, sometimes out of range
		case 1:
			plane = geo.Planes // out of range
		case 2:
			if ea, eb := a.Erase(plane, blk), b.Erase(plane, blk); !sameErr(ea, eb) {
				t.Fatalf("erase %d/%d: %v vs %v", plane, blk, ea, eb)
			}
			continue
		}
		ea := a.ProgramSectors(plane, blk, pg, make([]*Sector, geo.SectorsPerPage))
		eb := b.Program(plane, blk, pg, zeros, nil)
		if !sameErr(ea, eb) {
			t.Fatalf("op %d program %d/%d/%d: ProgramSectors(nil) %v, Program(zeros) %v", i, plane, blk, pg, ea, eb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Programs == 0 || a.Stats().GrownBad == 0 {
		t.Fatalf("sequence exercised nothing: %+v", a.Stats())
	}
	for plane := 0; plane < geo.Planes; plane++ {
		for blk := 0; blk < geo.BlocksPerPlane; blk++ {
			if a.WritePointer(plane, blk) != b.WritePointer(plane, blk) || a.IsBad(plane, blk) != b.IsBad(plane, blk) {
				t.Fatalf("block %d/%d state differs", plane, blk)
			}
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				da, oa, ea := a.Read(plane, blk, pg)
				db, ob, eb := b.Read(plane, blk, pg)
				if !sameErr(ea, eb) || !bytes.Equal(da, db) || !bytes.Equal(oa, ob) {
					t.Fatalf("read %d/%d/%d differs: %v vs %v", plane, blk, pg, ea, eb)
				}
				if ea == nil && !bytes.Equal(da, zeros) {
					t.Fatalf("read %d/%d/%d: zero page reads non-zero", plane, blk, pg)
				}
			}
		}
	}
	if n := len(b.free); n != 0 {
		t.Fatalf("programs of zeros stored %d sectors", n)
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestZeroProgramsReleasePageBuffer pins the memory rule the 512-PU scale
// sweep relies on, on sectors: a page that held data hands its sectors
// to the chip's free list when it is erased, and the next program of
// data takes them back from there; a zero sector — a page of zeros, by
// Program or by ProgramSectors of nil, or the zero tail of a page —
// holds no sector at all, so a page with one sector of data stores one.
func TestZeroProgramsReleasePageBuffer(t *testing.T) {
	c := newChip(t, SLC, 1)
	geo := c.Geometry()
	spp := geo.SectorsPerPage
	for pg := 0; pg < 2; pg++ {
		if err := c.Program(0, 0, pg, pageData(geo, 0xAB), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.free); n != 0 {
		t.Fatalf("%d free sectors before any erase", n)
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(c.free); n != 2*spp {
		t.Fatalf("erase freed %d sectors, want %d", n, 2*spp)
	}
	stored := func(pg int) (n int) {
		for _, s := range c.page(&c.planes[0][0], pg) {
			if s != nil {
				n++
			}
		}
		return n
	}
	if err := c.ProgramSectors(0, 0, 0, make([]*Sector, spp)); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, 0, 1, make([]byte, geo.PageBytes()), nil); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 2; pg++ {
		if n := stored(pg); n != 0 {
			t.Fatalf("page %d of zeros stores %d sectors", pg, n)
		}
	}
	if n := len(c.free); n != 2*spp {
		t.Fatalf("programs of zeros took %d sectors off the free list", 2*spp-n)
	}
	head := make([]byte, geo.PageBytes())
	copy(head, pageData(geo, 0xCD)[:geo.SectorSize])
	if err := c.Program(0, 0, 2, head, nil); err != nil {
		t.Fatal(err)
	}
	if n := stored(2); n != 1 {
		t.Fatalf("one sector of data stored as %d sectors", n)
	}
	if n := len(c.free); n != 2*spp-1 {
		t.Fatalf("one sector of data took %d sectors off the free list, want 1", 2*spp-n)
	}
}

// TestChurnAllocatesNothing pins the free list's two promises: steady
// program/erase churn — pages of data programmed through Program and
// through Store and ProgramSectors, some shared with a second page,
// every block erased when full — allocates nothing once the free list
// has filled, and the list never holds more than its bound.
func TestChurnAllocatesNothing(t *testing.T) {
	geo := testGeo(SLC, 2)
	c, err := New(geo, DefaultTiming(SLC), Reliability{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	page := pageData(geo, 0x3C)
	held := make([]*Sector, geo.SectorsPerPage)
	blk := 0
	cycle := func() {
		for p := 0; p < geo.Planes; p++ {
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				var err error
				switch pg % 3 {
				case 0:
					err = c.Program(p, blk, pg, page, nil)
				case 1:
					c.Store(held, page)
					err = c.ProgramSectors(p, blk, pg, held)
				default: // the previous page's sectors, shared
					if err = c.ReadSectors(p, blk, pg-1, 0, held); err == nil {
						for _, s := range held {
							s.Retain()
						}
						err = c.ProgramSectors(p, blk, pg, held)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Erase(p, blk); err != nil {
				t.Fatal(err)
			}
			if n := len(c.free); n > c.maxFree {
				t.Fatalf("free list holds %d sectors, bound %d", n, c.maxFree)
			}
		}
		blk = (blk + 1) % geo.BlocksPerPlane
	}
	for i := 0; i < 2*geo.BlocksPerPlane; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("program/erase churn allocates %.1f times per cycle", n)
	}
	if c.maxFree != freeBlocks*geo.Planes*geo.PagesPerBlock*geo.SectorsPerPage {
		t.Fatalf("free-list bound %d, want %d blocks on every plane", c.maxFree, freeBlocks)
	}
}

// TestIsZero checks the zero-page detector at every length around its
// word size and with the single non-zero byte at every position.
func TestIsZero(t *testing.T) {
	for n := 0; n <= 64; n++ {
		b := make([]byte, n)
		if !isZero(b) {
			t.Fatalf("%d zero bytes reported non-zero", n)
		}
		for i := range b {
			b[i] = 1
			if isZero(b) {
				t.Fatalf("length %d with byte %d set reported zero", n, i)
			}
			b[i] = 0
		}
	}
}

// modelChip is the reference FuzzChipAgainstModel holds a Chip to: the
// same rules and the same seeded draws in the same order, over plain
// full pages — no sector references, no nil zero sectors, no recycled
// sectors.
type modelChip struct {
	geo    Geometry
	rel    Reliability
	rng    *rand.Rand
	blocks [][]modelBlock // [plane][block]
	stats  Stats
}

type modelBlock struct {
	next, erases int
	bad          bool
	pages        [][]byte // whole page, nil until programmed
	oobs         [][]byte
}

func newModelChip(geo Geometry, rel Reliability, seed int64) *modelChip {
	m := &modelChip{geo: geo, rel: rel, rng: rand.New(rand.NewSource(seed))}
	m.blocks = make([][]modelBlock, geo.Planes)
	for p := range m.blocks {
		m.blocks[p] = make([]modelBlock, geo.BlocksPerPlane)
		for b := range m.blocks[p] {
			m.blocks[p][b].pages = make([][]byte, geo.PagesPerBlock)
			m.blocks[p][b].oobs = make([][]byte, geo.PagesPerBlock)
			if rel.FactoryBadRate > 0 && m.rng.Float64() < rel.FactoryBadRate {
				m.blocks[p][b].bad = true
				m.stats.FactoryBad++
			}
		}
	}
	return m
}

func (m *modelChip) block(plane, blk, pg int) (*modelBlock, error) {
	if plane < 0 || plane >= m.geo.Planes || blk < 0 || blk >= m.geo.BlocksPerPlane || pg < 0 || pg >= m.geo.PagesPerBlock {
		return nil, ErrAddress
	}
	return &m.blocks[plane][blk], nil
}

func (m *modelChip) program(plane, blk, pg int, page, oob []byte) error {
	b, err := m.block(plane, blk, pg)
	if err != nil {
		return err
	}
	switch {
	case b.bad:
		return ErrBadBlock
	case pg < b.next:
		return ErrNotErased
	case pg > b.next:
		return ErrOutOfOrder
	}
	if m.rel.ProgramFailRate > 0 && m.rng.Float64() < m.rel.ProgramFailRate {
		b.bad = true
		m.stats.GrownBad++
		return ErrProgramFail
	}
	b.pages[pg] = append([]byte(nil), page...)
	b.oobs[pg] = append([]byte(nil), oob...)
	b.next++
	m.stats.Programs++
	return nil
}

func (m *modelChip) read(plane, blk, pg int) (page, oob []byte, err error) {
	b, err := m.block(plane, blk, pg)
	if err != nil {
		return nil, nil, err
	}
	bits := m.geo.Cell.BitsPerCell()
	switch {
	case b.bad:
		return nil, nil, ErrBadBlock
	case pg >= b.next:
		return nil, nil, ErrUnwritten
	case b.next < (pg/bits+1)*bits:
		return nil, nil, ErrPairedIncomplete
	}
	if m.rel.ReadErrorBase > 0 {
		prob := m.rel.ReadErrorBase
		if m.rel.Endurance > 0 {
			prob *= 1 + 9*float64(b.erases)/float64(m.rel.Endurance)
		}
		if m.rng.Float64() < prob {
			m.stats.BitErrors++
		}
	}
	m.stats.Reads++
	return b.pages[pg], b.oobs[pg], nil
}

func (m *modelChip) erase(plane, blk int) error {
	b, err := m.block(plane, blk, 0)
	if err != nil {
		return err
	}
	if b.bad {
		return ErrBadBlock
	}
	b.erases++
	if m.rel.Endurance > 0 && b.erases > m.rel.Endurance {
		b.bad = true
		m.stats.GrownBad++
		return ErrWornOut
	}
	b.next = 0
	clear(b.pages)
	m.stats.Erases++
	return nil
}

func (m *modelChip) markBad(plane, blk int) error {
	b, err := m.block(plane, blk, 0)
	if err != nil {
		return err
	}
	if !b.bad {
		b.bad = true
		m.stats.GrownBad++
	}
	return nil
}

// sameTypedErr reports whether got is want, or wraps it.
func sameTypedErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// checkRefs holds the chip's reference counts to its storage: every
// sector a page holds counts exactly the page slots, plus extra, that
// hold it, its bytes' address sits beside it, and a sector on the free
// list is held by nobody.
func checkRefs(t *testing.T, c *Chip, extra map[*Sector]int) {
	t.Helper()
	held := map[*Sector]int{}
	for s, n := range extra {
		held[s] += n
	}
	for p := range c.planes {
		for b := range c.planes[p] {
			blk := &c.planes[p][b]
			for i, s := range blk.sectors {
				if s != nil {
					held[s]++
				}
				if s == nil && blk.bytes[i] != nil || s != nil && blk.bytes[i] != &s.data[0] {
					t.Fatalf("block %d/%d sector %d: its bytes' address is not beside its reference", p, b, i)
				}
			}
		}
	}
	for s, n := range held {
		if got := int(atomic.LoadInt32(&s.refs)); got != n {
			t.Fatalf("a sector held %d times counts %d holders", n, got)
		}
	}
	for _, s := range c.free {
		if held[s] != 0 || atomic.LoadInt32(&s.refs) != 0 {
			t.Fatalf("a free sector is held (%d holders)", atomic.LoadInt32(&s.refs))
		}
	}
	if len(c.free) > c.maxFree {
		t.Fatalf("free list holds %d sectors, bound %d", len(c.free), c.maxFree)
	}
}

// FuzzChipAgainstModel drives a Chip and the full-page model with one
// operation stream decoded from the input: Program of pages with
// arbitrary zero-sector patterns (whole, trailing, interior, partly-zero
// sectors), ProgramSectors of sectors just stored (Store) and of sectors
// shared with another page (read with ReadSectors and retained, as a
// device-side copy takes them, then erased at the source or not), Erase,
// MarkBad, Read, ReadSectors and ReadBytes, at the write pointer or
// anywhere (out of range included), with program failures, read bit
// errors, wear-out and factory bad blocks injected. Every error, every byte read and the
// Stats must agree — storing sectors by reference, zero sectors as nil,
// is invisible — and after every step each sector counts exactly its
// holders.
func FuzzChipAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0x5, 7, 1, 0, 0, 0x3, 2, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 2})
	f.Add([]byte("\x00\x00\x00\x00\x0e\x01\x00\x00\x00\x09\x02\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x03\x03\x00\x00"))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0x6, 0x41, 4, 0, 0, 0, 5, 0, 0, 2}, 12))
	f.Add(bytes.Repeat([]byte{1, 1, 1, 0, 0xA, 0x99, 3, 1, 1, 0, 5, 1, 1, 3, 6, 1, 1, 0}, 10))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0x13, 9, 0, 0, 1, 4, 0x21, 5, 3, 1, 0, 1, 2, 4, 1, 0, 0, 0}, 8))
	f.Fuzz(func(t *testing.T, ops []byte) {
		geo := Geometry{Planes: 2, BlocksPerPlane: 3, PagesPerBlock: 6, SectorsPerPage: 4, SectorSize: 64, OOBPerPage: 8, Cell: MLC}
		rel := Reliability{Endurance: 4, FactoryBadRate: 0.1, ProgramFailRate: 0.03, ReadErrorBase: 0.05}
		c, err := New(geo, DefaultTiming(MLC), rel, 5)
		if err != nil {
			t.Fatal(err)
		}
		m := newModelChip(geo, rel, 5)
		sz, spp := geo.SectorSize, geo.SectorsPerPage
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		// page builds a whole page from a zero-sector pattern: bit i of
		// zeros makes sector i all zero, bit i of partial leaves only its
		// last byte non-zero (a sector a word-wise scan must not call zero).
		page := func(zeros, partial, fill int) []byte {
			p := make([]byte, geo.PageBytes())
			for s := 0; s < spp; s++ {
				sec := p[s*sz : (s+1)*sz]
				switch {
				case zeros&(1<<s) != 0:
				case partial&(1<<s) != 0:
					sec[sz-1] = byte(fill | 1)
				default:
					for i := range sec {
						sec[i] = byte(fill + s + i | 1)
					}
				}
			}
			return p
		}
		// programRefs programs held references on the chip and their
		// bytes on the model; the chip's references are released if the
		// program fails, as a device does.
		programRefs := func(plane, blk, pg int, refs []*Sector) (errC, errM error) {
			p := make([]byte, geo.PageBytes())
			for i, s := range refs {
				copy(p[i*sz:], s.Bytes())
			}
			errC = c.ProgramSectors(plane, blk, pg, refs)
			if errC != nil {
				Release(refs)
			}
			return errC, m.program(plane, blk, pg, p, nil)
		}
		for step := 0; len(ops) > 0; step++ {
			op, plane, blk, pg := next()%8, next()%(geo.Planes+1), next()%(geo.BlocksPerPlane+1), next()
			if plane < geo.Planes && blk < geo.BlocksPerPlane && pg%4 != 0 {
				pg = m.blocks[plane][blk].next // mostly the write pointer
			} else {
				pg %= geo.PagesPerBlock + 1
			}
			var errC, errM error
			switch op {
			case 0, 1: // Program of an arbitrary zero pattern, sometimes with OOB
				pat := next()
				p := page(pat&0xF, pat>>4, next())
				var oob []byte
				if op == 1 {
					oob = []byte{byte(pat), 1, 2}
				}
				errC = c.Program(plane, blk, pg, p, oob)
				errM = m.program(plane, blk, pg, p, oob)
			case 2: // ProgramSectors of sectors just stored, zero ones nil
				pat := next()
				refs := make([]*Sector, spp)
				c.Store(refs, page(pat&0xF, pat>>4, next()))
				errC, errM = programRefs(plane, blk, pg, refs)
			case 3: // ProgramSectors of another page's sectors, shared
				sp, sb, spg := next()%geo.Planes, next()%geo.BlocksPerPlane, next()%geo.PagesPerBlock
				refs := make([]*Sector, spp)
				errC = c.ReadSectors(sp, sb, spg, 0, refs)
				for range refs {
					if _, _, errM = m.read(sp, sb, spg); errM != nil {
						break
					}
				}
				if errC == nil && errM == nil {
					for _, s := range refs {
						s.Retain()
					}
					errC, errM = programRefs(plane, blk, pg, refs)
				}
			case 4:
				errC, errM = c.Erase(plane, blk), m.erase(plane, blk)
			case 5:
				errC, errM = c.MarkBad(plane, blk), m.markBad(plane, blk)
			case 6:
				got, gotOOB, err := c.Read(plane, blk, pg)
				want, wantOOB, werr := m.read(plane, blk, pg)
				errC, errM = err, werr
				if err == nil && (!bytes.Equal(got, want) || !bytes.Equal(gotOOB, wantOOB)) {
					t.Fatalf("step %d: Read %d/%d/%d returned other bytes than were programmed", step, plane, blk, pg)
				}
			case 7: // ReadSectors or ReadBytes of n sectors, each sensed once
				s, n, refs := next()%(spp+1), next()%(spp+1), next()%2 == 0
				got := make([][]byte, max(n, 1))
				if refs {
					out := make([]*Sector, len(got))
					errC = c.ReadSectors(plane, blk, pg, s, out)
					for i := range out {
						got[i] = out[i].Bytes()
					}
				} else {
					errC = c.ReadBytes(plane, blk, pg, s, got)
				}
				if _, aerr := m.block(plane, blk, pg); aerr == nil && s+len(got) > spp {
					errM = ErrAddress
					break
				}
				for i := range got {
					want, _, werr := m.read(plane, blk, pg)
					if errM = werr; werr != nil {
						break
					}
					sec := want[(s+i)*sz : (s+i+1)*sz]
					if b := got[i]; errC == nil && (b == nil && !isZero(sec) || b != nil && !bytes.Equal(b, sec)) {
						t.Fatalf("step %d: ReadSectors (refs %v) %d/%d/%d/%d+%d returned other bytes than were programmed", step, refs, plane, blk, pg, s, i)
					}
				}
			}
			if !sameTypedErr(errC, errM) {
				t.Fatalf("step %d op %d at %d/%d/%d: chip %v, model %v", step, op, plane, blk, pg, errC, errM)
			}
			if cs := c.Stats(); cs != m.stats {
				t.Fatalf("step %d op %d: stats chip %+v, model %+v", step, op, cs, m.stats)
			}
			checkRefs(t, c, nil)
		}
	})
}
