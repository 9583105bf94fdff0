package ocssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/vclock"
)

// referenceVectorView is VectorView as it was before page runs: every
// sector on its own, with one CheckPPA, one locate, one chip call and
// one channel reservation each. It is the oracle the page-run read is
// replayed against.
func referenceVectorView(d *Device, now vclock.Time, ppas []PPA, visit func(i int, sector []byte)) (vclock.Time, error) {
	geo := d.geo
	if err := d.alive(); err != nil {
		return now, err
	}
	for _, p := range ppas {
		if err := geo.CheckPPA(p); err != nil {
			return now, err
		}
	}

	sz := geo.Chip.SectorSize
	end := now
	var cacheHits, mediaReads int64
	charged := make([]chargedPage, 0, 16)

	i := 0
	for i < len(ppas) {
		g, u := ppas[i].Group, ppas[i].PU
		j := i + 1
		for j < len(ppas) && ppas[j].Group == g && ppas[j].PU == u {
			j++
		}
		pu := d.pu(g, u)
		pu.mu.Lock()
		for k := i; k < j; k++ {
			p := ppas[k]
			m := &pu.chunks[p.Chunk]
			if m.state == ChunkOffline {
				pu.mu.Unlock()
				return now, fmt.Errorf("%w: %v", ErrOffline, p)
			}
			if p.Sector >= int(m.wp) {
				pu.mu.Unlock()
				return now, fmt.Errorf("%w: %v (wp %d)", ErrUnwritten, p, m.wp)
			}
			if d.faults != nil && (k == i || p.Chunk != ppas[k-1].Chunk) {
				v := d.faults.OnOp(fault.OpRead, uint64(d.flatChunk(p.ChunkOf())), 0)
				if v.PowerCut {
					d.die(pu)
					pu.mu.Unlock()
					return now, fmt.Errorf("read %v: %w", p, fault.ErrPowerCut)
				}
				if v.Err != nil {
					if v.GrowBad {
						d.retireChunk(pu, p.ChunkOf(), v.Err)
					}
					pu.mu.Unlock()
					return now, fmt.Errorf("read %v: %w", p, v.Err)
				}
			}
			if base, buf := d.bufBase(pu, m), pu.buffered(m); m.state == ChunkOpen && p.Sector >= base && p.Sector-base < len(buf) {
				visit(k, d.sectorBytes(buf[p.Sector-base]))
				t := now.Add(vclock.DurationFor(int64(sz), geo.CacheMBps))
				if t > end {
					end = t
				}
				cacheHits++
				continue
			}
			loc := geo.locate(p.Sector)
			var sector [1]*nand.Sector
			if err := d.chips[g][u].ReadSectors(loc.plane, p.Chunk, loc.page, loc.sector, sector[:]); err != nil {
				pu.mu.Unlock()
				return now, fmt.Errorf("read %v: %w", p, err)
			}
			visit(k, d.sectorBytes(sector[0]))
			if d.cache.enabled() && m.flushEnd > now {
				t := now.Add(vclock.DurationFor(int64(sz), geo.CacheMBps))
				if t > end {
					end = t
				}
				cacheHits++
				continue
			}
			id := p.ChunkOf()
			var tREnd vclock.Time
			found := false
			for ci := range charged {
				if charged[ci].id == id && charged[ci].page == loc.page {
					tREnd = charged[ci].end
					found = true
					break
				}
			}
			if !found {
				_, tREnd = d.chipRes[g][u].Acquire(now, d.chips[g][u].ReadTime())
				charged = append(charged, chargedPage{id: id, page: loc.page, end: tREnd})
			}
			_, xferEnd := d.channels[g].Acquire(tREnd, vclock.DurationFor(int64(sz), geo.ChannelMBps))
			if xferEnd > end {
				end = xferEnd
			}
			mediaReads++
		}
		pu.mu.Unlock()
		i = j
	}
	d.stats.vectorReads.Add(1)
	d.stats.sectorsRead.Add(int64(len(ppas)))
	d.stats.cacheHitReads.Add(cacheHits)
	d.stats.mediaReads.Add(mediaReads)
	return end, nil
}

// resources lists every reservation timeline of d, channels then chips,
// as (free instant, busy time) pairs. Reservation counts are left out on
// purpose: a page run makes one where the per-sector read made several.
func resources(d *Device) []vclock.Time {
	var out []vclock.Time
	for g := range d.channels {
		out = append(out, d.channels[g].FreeAt(), vclock.Time(d.channels[g].Busy()))
		for u := range d.chipRes[g] {
			out = append(out, d.chipRes[g][u].FreeAt(), vclock.Time(d.chipRes[g][u].Busy()))
		}
	}
	return out
}

// viewed is what one read showed its visitor: the indices in call order
// and the bytes of each call.
type viewed struct {
	order []int
	bytes []byte
	bad   string // a visit whose slice was not exactly one sector
}

func (v *viewed) visit(sz int) func(int, []byte) {
	return func(i int, sector []byte) {
		if len(sector) != sz || cap(sector) != sz {
			v.bad = fmt.Sprintf("visit(%d) with %d bytes (cap %d)", i, len(sector), cap(sector))
		}
		v.order = append(v.order, i)
		v.bytes = append(v.bytes, sector...)
	}
}

// TestPageRunsMatchPerSectorReads replays one seeded sequence of writes
// and reads on two identically built devices, reading through VectorView
// on one and through the per-sector reference on the other. Every read
// must end at the same instant with the same error, show its visitor the
// same sectors in the same order, and leave the same device and NAND
// counters, fault log and reservation timelines behind. The sequence
// opens with reads shaped to end a page run at each place one can end —
// the write pointer, the stripe-buffer base, a chunk change, a skipped
// sector, a page seen again later in the vector, an offline chunk —
// then reads random vectors of the same pieces, with NAND bit errors and
// injected read faults, with and without the write-back cache, and on
// pages of more sectors than one chip call takes. (Writes come in whole
// pages, so the write pointer and the buffer base fall on page ends; the
// reads that run into them end their runs there either way.)
func TestPageRunsMatchPerSectorReads(t *testing.T) {
	for _, tc := range []struct {
		cacheMB, spp int
	}{{0, 4}, {4, 4}, {0, 32}} {
		t.Run(fmt.Sprintf("cache%dMB-%dsectors", tc.cacheMB, tc.spp), func(t *testing.T) {
			geo := smallGeo()
			geo.CacheMB = tc.cacheMB
			geo.Chip.SectorSize = geo.Chip.PageBytes() / tc.spp
			geo.Chip.SectorsPerPage = tc.spp
			// A sector's transfer is not a whole number of nanoseconds at
			// this rate, so a run charged DurationFor(n·sectorSize) instead
			// of n transfers would round differently and show.
			geo.ChannelMBps = 333
			geo = Finish(geo)
			sz, spc := geo.Chip.SectorSize, geo.SectorsPerChunk()
			twin := func() *Device {
				return newDev(t, geo, Options{
					Seed:        5,
					Reliability: nand.Reliability{ReadErrorBase: 0.1},
					Faults:      fault.New(fault.Config{Seed: 6, ReadErrorRate: 0.03, GrowBadAfter: 2}),
				})
			}
			run, ref := twin(), twin()
			rng := rand.New(rand.NewSource(int64(17 + tc.cacheMB + tc.spp)))
			errs := map[string]int{}

			same := func(what string, a, b any) {
				t.Helper()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s diverges:\n page runs %+v\n reference %+v", what, a, b)
				}
			}
			read := func(name string, at vclock.Time, ppas []PPA) {
				t.Helper()
				var vr, vf viewed
				endR, errR := run.VectorView(at, ppas, vr.visit(sz))
				endF, errF := referenceVectorView(ref, at, ppas, vf.visit(sz))
				if vr.bad != "" || vf.bad != "" {
					t.Fatalf("%s: %s%s", name, vr.bad, vf.bad)
				}
				same(name+": instant", endR, endF)
				same(name+": error", fmt.Sprint(errR), fmt.Sprint(errF))
				same(name+": visit order", vr.order, vf.order)
				if !bytes.Equal(vr.bytes, vf.bytes) {
					t.Fatalf("%s: the visitors saw other bytes", name)
				}
				same(name+": device stats", run.Stats(), ref.Stats())
				same(name+": NAND stats", chipStats(run), chipStats(ref))
				same(name+": fault log", run.FaultLog(), ref.FaultLog())
				same(name+": reservations", resources(run), resources(ref))
				switch {
				case errR == nil:
					errs["none"]++
				case errors.Is(errR, ErrUnwritten):
					errs["unwritten"]++
				case errors.Is(errR, ErrOffline):
					errs["offline"]++
				case errors.Is(errR, fault.ErrReadError):
					errs["fault"]++
				}
			}
			write := func(at vclock.Time, id ChunkID, sectors int) {
				t.Helper()
				data := patterned(geo, rng.Intn(200), sectors)
				if rng.Intn(4) == 0 { // a zero page, stored as mask bits or not at all
					clear(data[:geo.WSMin*sz])
				}
				sR, eR, errR := run.Append(at, id, data)
				sF, eF, errF := ref.Append(at, id, data)
				same("append", fmt.Sprint(sR, eR, errR), fmt.Sprint(sF, eF, errF))
			}
			offline := func(id ChunkID) {
				for _, d := range []*Device{run, ref} {
					pu := d.pu(id.Group, id.PU)
					pu.mu.Lock()
					d.retireChunk(pu, id, errors.New("retired by the test"))
					pu.mu.Unlock()
				}
			}

			// a: two programmed stripes and one page in the stripe buffer;
			// b: one programmed stripe and an empty buffer; c: on another
			// PU; x: retired.
			a, b, c, x := ChunkID{0, 0, 1}, ChunkID{0, 0, 2}, ChunkID{0, 1, 1}, ChunkID{0, 0, 3}
			write(0, a, 2*geo.WSOpt+geo.WSMin)
			write(0, b, geo.WSOpt)
			write(0, c, geo.WSOpt)
			write(0, x, geo.WSOpt)
			offline(x)
			cat := func(vs ...[]PPA) []PPA {
				var out []PPA
				for _, v := range vs {
					out = append(out, v...)
				}
				return out
			}
			at := vclock.Time(0) // inside the write-back cache window, when there is one
			for round := 0; round < 2; round++ {
				read("whole stripe", at, seqPPAs(a, 0, geo.WSOpt))
				read("into the write pointer", at, seqPPAs(b, geo.WSOpt-2, 4))
				read("into the stripe buffer", at, seqPPAs(a, 2*geo.WSOpt-3, 6))
				read("across chunks", at, cat(seqPPAs(a, geo.WSOpt-2, 4), seqPPAs(b, 1, 5), seqPPAs(c, 2, 3)))
				read("skipped sector", at, []PPA{a.PPAOf(0), a.PPAOf(2), a.PPAOf(3), a.PPAOf(5)})
				read("page seen again", at, cat(seqPPAs(a, 4, 8), seqPPAs(a, 5, 2), []PPA{a.PPAOf(6), a.PPAOf(6)}))
				read("offline chunk mid-vector", at, cat(seqPPAs(a, 0, 4), seqPPAs(x, 0, 4), seqPPAs(a, 4, 4)))
				read("out of range", at, cat(seqPPAs(a, 0, 4), []PPA{a.PPAOf(spc)}))
				at = vclock.Time(vclock.Second) // drained: the media path
			}

			chunks := []ChunkID{a, b, c, {1, 0, 0}, {1, 1, 5}, {0, 1, 4}}
			segment := func() []PPA {
				id := chunks[rng.Intn(len(chunks))]
				ci, _ := run.Chunk(id)
				start := rng.Intn(ci.WP + 3)
				v := seqPPAs(id, start, 1+rng.Intn(12))
				switch rng.Intn(5) {
				case 0: // skip a sector
					k := rng.Intn(len(v))
					v = append(v[:k], v[k+1:]...)
				case 1: // see a sector again
					v = append(v, v[rng.Intn(len(v))])
				}
				return v
			}
			for step := 0; step < 1500; step++ {
				at = at.Add(vclock.Duration(rng.Intn(400)) * vclock.Microsecond)
				switch r := rng.Intn(100); {
				case r < 25:
					id := chunks[rng.Intn(len(chunks))]
					switch ci, _ := run.Chunk(id); {
					case ci.State == ChunkOffline:
					case ci.WP == spc:
						eR, errR := run.Reset(at, id)
						eF, errF := ref.Reset(at, id)
						same("reset", fmt.Sprint(eR, errR), fmt.Sprint(eF, errF))
					default:
						write(at, id, min(1+rng.Intn(8), (spc-ci.WP)/geo.WSMin)*geo.WSMin)
					}
				default:
					var v []PPA
					for n := 1 + rng.Intn(3); n > 0; n-- {
						v = append(v, segment()...)
					}
					read(fmt.Sprintf("step %d", step), at, v)
				}
			}
			if errs["none"] == 0 || errs["unwritten"] == 0 || errs["offline"] == 0 || errs["fault"] == 0 {
				t.Fatalf("the sequence missed a kind of read: %v", errs)
			}
			if s := run.Stats(); s.MediaReads == 0 || s.CacheHitReads == 0 {
				t.Fatalf("the sequence missed a source of sectors: %+v", s)
			}
		})
	}
}

// TestBlockReadReservesChannelOncePerPage pins the saving itself: a
// whole-stripe read, LightLSM's block, makes one channel reservation per
// NAND page where the per-sector read made one per sector, and ends at
// the same instant.
func TestBlockReadReservesChannelOncePerPage(t *testing.T) {
	geo := smallGeo()
	geo.CacheMB = 0
	run, ref := newDev(t, geo, Options{Seed: 1}), newDev(t, geo, Options{Seed: 1})
	id := ChunkID{1, 0, 2}
	for _, d := range []*Device{run, ref} {
		mustAppend(t, d, id, patterned(geo, 0, geo.WSOpt))
	}
	ch := func(d *Device) int64 { return d.channels[id.Group].Acquires() }
	beforeR, beforeF := ch(run), ch(ref)
	ppas := seqPPAs(id, 0, geo.WSOpt)
	endR, errR := run.VectorView(0, ppas, func(int, []byte) {})
	endF, errF := referenceVectorView(ref, 0, ppas, func(int, []byte) {})
	if errR != nil || errF != nil || endR != endF {
		t.Fatalf("page runs end at %d (%v), the reference at %d (%v)", endR, errR, endF, errF)
	}
	pages := int64(geo.WSOpt / geo.Chip.SectorsPerPage)
	if got, want := ch(run)-beforeR, pages; got != want {
		t.Errorf("page runs made %d channel reservations, want %d", got, want)
	}
	if got, want := ch(ref)-beforeF, int64(geo.WSOpt); got != want {
		t.Errorf("the reference made %d channel reservations, want %d", got, want)
	}
}
