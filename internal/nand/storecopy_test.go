package nand

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// storeCopyGuard is how many bytes on each side of a storeCopy
// destination must come through untouched.
const storeCopyGuard = 64

// checkStoreCopy runs storeCopy into got, dstOff bytes past a 64-byte
// boundary with storeCopyGuard bytes of guard on each side, and copy at
// the same index of want, and fails unless both buffers, guards
// included, and both returned counts agree. got and want must be equal
// on entry and at least 128+2*storeCopyGuard+dstLen long; they are equal
// again on a clean return.
func checkStoreCopy(t *testing.T, got, want []byte, dstOff, dstLen int, src []byte) {
	t.Helper()
	base := (64 - int(uintptr(unsafe.Pointer(unsafe.SliceData(got)))%64)) % 64
	at := base + storeCopyGuard + dstOff
	n := storeCopy(got[at:at+dstLen], src)
	storeFence()
	m := copy(want[at:at+dstLen], src)
	if n != m {
		t.Fatalf("dst+%d len %d, src len %d: storeCopy copied %d bytes, copy %d", dstOff, dstLen, len(src), n, m)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("dst+%d len %d, src len %d: byte %d (dst%+d) is %#x, copy wrote %#x",
			dstOff, dstLen, len(src), i, i-at, got[i], want[i])
	}
}

// TestStoreCopyMatchesCopy holds storeCopy to copy at the lengths around
// its streaming rule (a multiple of 64 of at least 4 KB: 4032, 4097 and
// 4112 do not stream, 4096 and 4160 do) and at a page and a stripe,
// from every source and to every destination offset within a cache
// line, so aligned and unaligned destinations and loads are covered.
// The bytes on both sides of the destination must stay untouched.
func TestStoreCopyMatchesCopy(t *testing.T) {
	lengths := []int{0, 63, 64, 4032, 4096, 4097, 4112, 4160, 16 << 10, 96 << 10}
	maxLen := lengths[len(lengths)-1]
	src := make([]byte, 64+maxLen)
	rand.New(rand.NewSource(1)).Read(src)
	size := 64 + 2*storeCopyGuard + 64 + maxLen
	orig := make([]byte, size)
	for i := range orig {
		orig[i] = byte(i*7 + 3)
	}
	got, want := bytes.Clone(orig), bytes.Clone(orig)
	for _, n := range lengths {
		for dstOff := 0; dstOff < 64; dstOff++ {
			for srcOff := 0; srcOff < 64; srcOff++ {
				checkStoreCopy(t, got, want, dstOff, n, src[srcOff:srcOff+n])
				// Put the destination's old bytes back in both twins.
				end := 64 + 2*storeCopyGuard + 64 + n
				copy(got[:end], orig)
				copy(want[:end], orig)
			}
		}
	}
}

// FuzzStoreCopy holds storeCopy to copy on arbitrary contents, lengths,
// length mismatches and offsets, with the same guard bytes.
func FuzzStoreCopy(f *testing.F) {
	f.Add([]byte("page"), uint32(16<<10), uint8(0), uint8(0), int16(0))
	f.Add([]byte{1, 2, 3}, uint32(4096), uint8(16), uint8(5), int16(-64))
	f.Add([]byte{0xff}, uint32(4160), uint8(48), uint8(63), int16(100))
	f.Add([]byte{9, 8}, uint32(4097), uint8(3), uint8(1), int16(0))
	f.Fuzz(func(t *testing.T, pattern []byte, n uint32, dstOff, srcOff uint8, srcDelta int16) {
		if len(pattern) == 0 {
			pattern = []byte{0xA5}
		}
		dstLen := int(n % (128 << 10))
		srcLen := max(0, dstLen+int(srcDelta))
		src := bytes.Repeat(pattern, (int(srcOff%64)+srcLen)/len(pattern)+1)[srcOff%64:][:srcLen]
		size := 64 + 2*storeCopyGuard + 64 + dstLen
		got, want := make([]byte, size), make([]byte, size)
		for i := range got {
			got[i] = byte(i*13 + 1)
		}
		copy(want, got)
		checkStoreCopy(t, got, want, int(dstOff%64), dstLen, src)
	})
}

// TestStreamingChipMatchesModel drives a chip at a sector size the
// kernel takes and the full-page model, same seed, through one seeded
// sequence of programs (full pages with zero tails, by Program and by
// Store and ProgramSectors, zero pages, in order or not), erases,
// bad-block marks and reads, with program failures, wear-out and bit
// errors injected. Erases hand sectors to the free list, so most programs
// refill a recycled sector with storeCopy; the model copies every page
// into a new slice. Every error, every byte read and the Stats must
// agree, and the source buffer is overwritten after every operation to
// show the chip kept its own copy.
func TestStreamingChipMatchesModel(t *testing.T) {
	geo := testGeo(TLC, 2)
	geo.BlocksPerPlane, geo.PagesPerBlock = 32, 6
	rel := Reliability{Endurance: 5, FactoryBadRate: 0.05, ProgramFailRate: 0.005, ReadErrorBase: 0.02}
	c, err := New(geo, DefaultTiming(TLC), rel, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := newModelChip(geo, rel, 11)
	rng := rand.New(rand.NewSource(12))
	sz, spp := geo.SectorSize, geo.SectorsPerPage
	buf := make([]byte, geo.PageBytes())
	fill := func(sectors int) []byte { // sectors of data, then zeros
		clear(buf)
		rng.Read(buf[:sectors*sz])
		return buf
	}
	refs := make([]*Sector, spp)
	for step := 0; step < 4000; step++ {
		plane, blk := rng.Intn(geo.Planes), rng.Intn(geo.BlocksPerPlane)
		op := rng.Intn(20)
		pg := m.blocks[plane][blk].next
		if op >= 16 || rng.Intn(8) == 0 { // reads anywhere, programs mostly at the write pointer
			pg = rng.Intn(geo.PagesPerBlock)
		}
		var errC, errM error
		switch {
		case op < 8:
			p := fill(rng.Intn(spp + 1))
			errC, errM = c.Program(plane, blk, pg, p, nil), m.program(plane, blk, pg, p, nil)
		case op < 12:
			p := fill(rng.Intn(spp + 1))
			c.Store(refs, p)
			if errC = c.ProgramSectors(plane, blk, pg, refs); errC != nil {
				Release(refs)
			}
			errM = m.program(plane, blk, pg, p, nil)
		case op < 13:
			errC, errM = c.ProgramSectors(plane, blk, pg, refs), m.program(plane, blk, pg, fill(0), nil)
		case op < 15:
			errC, errM = c.Erase(plane, blk), m.erase(plane, blk)
		case op < 16:
			if rng.Intn(64) == 0 {
				errC, errM = c.MarkBad(plane, blk), m.markBad(plane, blk)
			}
		case op < 18:
			got, gotOOB, err := c.Read(plane, blk, pg)
			want, wantOOB, werr := m.read(plane, blk, pg)
			errC, errM = err, werr
			if err == nil && (!bytes.Equal(got, want) || !bytes.Equal(gotOOB, wantOOB)) {
				t.Fatalf("step %d: Read %d/%d/%d returned other bytes than were programmed", step, plane, blk, pg)
			}
		default:
			s := rng.Intn(spp)
			var got [1][]byte
			err := c.ReadBytes(plane, blk, pg, s, got[:])
			want, _, werr := m.read(plane, blk, pg)
			errC, errM = err, werr
			if b := got[0]; err == nil && (b == nil && !isZero(want[s*sz:(s+1)*sz]) || b != nil && !bytes.Equal(b, want[s*sz:(s+1)*sz])) {
				t.Fatalf("step %d: ReadBytes %d/%d/%d/%d returned other bytes than were programmed", step, plane, blk, pg, s)
			}
		}
		rng.Read(buf)
		if !sameTypedErr(errC, errM) {
			t.Fatalf("step %d at %d/%d/%d: chip %v, model %v", step, plane, blk, pg, errC, errM)
		}
		if cs := c.Stats(); cs != m.stats {
			t.Fatalf("step %d: stats chip %+v, model %+v", step, cs, m.stats)
		}
	}
	s := c.Stats()
	if s.Programs == 0 || s.Reads == 0 || s.Erases == 0 || s.GrownBad == 0 || s.BitErrors == 0 {
		t.Fatalf("sequence exercised too little: %+v", s)
	}
}

// BenchmarkStoreCopy measures the copy into a recycled buffer that
// Chip.Store makes: 16 KB pages written round-robin over working sets
// from 1.5 MB (in cache) to 255 MB (far larger than cache), once with
// copy and once with storeCopy, fenced once at the end. Streaming stores
// lose while the buffers fit in cache and win once they do not.
func BenchmarkStoreCopy(b *testing.B) {
	const pageBytes = 16 << 10
	src := make([]byte, pageBytes)
	rand.New(rand.NewSource(1)).Read(src)
	for _, set := range []struct {
		name  string
		pages int
	}{{"1.5MB", 96}, {"31.5MB", 2016}, {"64.5MB", 4128}, {"255MB", 16320}} {
		for _, arm := range []struct {
			name  string
			store func(dst, src []byte) int
		}{{"copy", func(dst, src []byte) int { return copy(dst, src) }}, {"storeCopy", storeCopy}} {
			b.Run(set.name+"/"+arm.name, func(b *testing.B) {
				runtime.GC() // let the previous working set go before building this one
				pages := make([][]byte, set.pages)
				for i := range pages {
					pages[i] = append([]byte(nil), src...) // each page its own buffer, as a chip's
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arm.store(pages[i%len(pages)], src)
				}
				storeFence()
				b.ReportMetric(float64(b.N)*pageBytes/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
