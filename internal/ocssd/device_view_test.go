package ocssd

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/vclock"
)

// patterned returns n sectors whose every byte names the sector: sector
// first+i is filled with byte(first+i+1).
func patterned(geo Geometry, first, n int) []byte {
	sz := geo.Chip.SectorSize
	out := make([]byte, n*sz)
	for i := 0; i < n; i++ {
		for j := 0; j < sz; j++ {
			out[i*sz+j] = byte(first + i + 1)
		}
	}
	return out
}

// chipStats sums the NAND counters a read can move.
func chipStats(d *Device) (s nand.Stats) {
	for g := range d.chips {
		for u := range d.chips[g] {
			cs := d.chips[g][u].Stats()
			s.Reads += cs.Reads
			s.BitErrors += cs.BitErrors
		}
	}
	return s
}

// TestVectorViewMatchesVectorRead is the view's contract: on two devices
// driven identically, a view and a VectorRead of the same vector return
// the same instant and error, move the same device and NAND counters
// and leave the same reservations behind (the next read's instant would
// differ otherwise), and the view shows the bytes the read copies —
// whether a sector comes from the controller's stripe buffer, the
// write-back cache window or NAND, and when the vector fails half way.
func TestVectorViewMatchesVectorRead(t *testing.T) {
	a, b, c := ChunkID{0, 0, 1}, ChunkID{0, 1, 2}, ChunkID{1, 0, 3}
	type read struct {
		at   vclock.Time
		ppas []PPA
		want error // nil: must succeed
		// Where a successful read's sectors must come from: DRAM (stripe
		// buffer or cache window) and NAND.
		hits, media int
	}
	for _, tc := range []struct {
		name    string
		cacheMB int
		faults  *fault.Config
		// setup writes through the device and returns the reads to compare.
		setup func(t *testing.T, d *Device, geo Geometry) []read
	}{
		{
			name: "controller buffer and media",
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				// One whole stripe on NAND, then a ws_min tail in the buffer.
				mustAppend(t, d, a, patterned(geo, 0, geo.WSOpt+geo.WSMin))
				return []read{
					{at: 0, ppas: seqPPAs(a, geo.WSOpt, geo.WSMin), hits: geo.WSMin},
					{at: 0, ppas: seqPPAs(a, 0, geo.WSOpt), media: geo.WSOpt},
					{at: 5, ppas: seqPPAs(a, geo.WSOpt-2, 2+geo.WSMin), hits: geo.WSMin, media: 2},
					{at: 9, ppas: []PPA{a.PPAOf(1), a.PPAOf(1), a.PPAOf(0)}, media: 3}, // one page, charged once
				}
			},
		},
		{
			name:    "write-back cache window then drained",
			cacheMB: 4,
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				mustAppend(t, d, a, patterned(geo, 0, geo.WSOpt))
				return []read{
					{at: 0, ppas: seqPPAs(a, 0, geo.WSOpt), hits: geo.WSOpt}, // before the drain
					{at: vclock.Time(vclock.Second), ppas: seqPPAs(a, 0, geo.WSOpt), media: geo.WSOpt},
				}
			},
		},
		{
			name: "several parallel units",
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				for _, id := range []ChunkID{a, b, c} {
					mustAppend(t, d, id, patterned(geo, 0, 2*geo.WSOpt))
				}
				v := append(seqPPAs(a, 3, 9), seqPPAs(c, 20, 11)...)
				v = append(v, seqPPAs(b, 0, 5)...)
				v = append(v, seqPPAs(a, 30, 4)...)
				return []read{{at: 0, ppas: v, media: len(v)}, {at: 1, ppas: v, media: len(v)}}
			},
		},
		{
			name: "unwritten and malformed",
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				mustAppend(t, d, a, patterned(geo, 0, geo.WSOpt))
				return []read{
					{at: 0, ppas: seqPPAs(a, geo.WSOpt-3, 6), want: ErrUnwritten}, // fails after three sectors
					{at: 0, ppas: seqPPAs(b, 0, 1), want: ErrUnwritten},
					{at: 0, ppas: []PPA{{Group: 9}}, want: ErrAddress},
					{at: 0, ppas: seqPPAs(a, 0, 4), media: 4},
				}
			},
		},
		{
			name:   "injected read fault, then offline",
			faults: &fault.Config{Seed: 1, ReadErrorRate: 1, GrowBadAfter: 2},
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				mustAppend(t, d, a, patterned(geo, 0, geo.WSOpt))
				v := seqPPAs(a, 0, 8)
				return []read{
					{at: 0, ppas: v, want: fault.ErrReadError},
					{at: 0, ppas: v, want: fault.ErrReadError}, // escalates: chunk retired
					{at: 0, ppas: v, want: ErrOffline},
				}
			},
		},
		{
			name:   "power cut",
			faults: &fault.Config{Seed: 1},
			setup: func(t *testing.T, d *Device, geo Geometry) []read {
				mustAppend(t, d, a, patterned(geo, 0, geo.WSOpt))
				d.faults.PowerCut(2)
				v := seqPPAs(a, 0, 8)
				return []read{
					{at: 0, ppas: v, media: 8},
					{at: 0, ppas: v, want: fault.ErrPowerCut}, // dies at this read
					{at: 0, ppas: v, want: fault.ErrPowerCut}, // stays dead
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := smallGeo()
			geo.CacheMB = tc.cacheMB
			// A raised raw bit-error rate, so a view that skipped or
			// doubled a chip read would show in BitErrors.
			rel := nand.Reliability{ReadErrorBase: 0.2}
			twin := func() (*Device, []read) {
				opts := Options{Seed: 5, Reliability: rel}
				if tc.faults != nil {
					opts.Faults = fault.New(*tc.faults)
				}
				d := newDev(t, geo, opts)
				return d, tc.setup(t, d, geo)
			}
			copying, reads := twin()
			viewing, _ := twin()
			sz := geo.Chip.SectorSize
			for i, r := range reads {
				before := copying.Stats()
				got := make([]byte, len(r.ppas)*sz)
				endR, errR := copying.VectorRead(r.at, r.ppas, got)

				seen := make([]byte, len(r.ppas)*sz)
				next := 0
				endV, errV := viewing.VectorView(r.at, r.ppas, func(k int, sector []byte) {
					if k != next || len(sector) != sz || cap(sector) != sz {
						t.Errorf("read %d: visit(%d) with %d bytes (cap %d), want index %d and exactly one sector", i, k, len(sector), cap(sector), next)
					}
					next++
					copy(seen[k*sz:], sector)
				})

				if endR != endV {
					t.Errorf("read %d: VectorRead ends at %d, VectorView at %d", i, endR, endV)
				}
				if fmt.Sprint(errR) != fmt.Sprint(errV) || !errors.Is(errV, r.want) || (r.want == nil && errV != nil) {
					t.Errorf("read %d: VectorRead error %v, VectorView error %v, want %v", i, errR, errV, r.want)
				}
				if !bytes.Equal(got, seen) {
					t.Errorf("read %d: the view showed other bytes than the read copied", i)
				}
				if errV == nil {
					if next != len(r.ppas) {
						t.Errorf("read %d: %d of %d sectors visited", i, next, len(r.ppas))
					}
					for k, p := range r.ppas {
						if seen[k*sz] != byte(p.Sector+1) || seen[(k+1)*sz-1] != byte(p.Sector+1) {
							t.Errorf("read %d: sector %v shows byte %d", i, p, seen[k*sz])
						}
					}
				}
				sr, sv := copying.Stats(), viewing.Stats()
				if sr != sv {
					t.Errorf("read %d: device stats diverge\n read %+v\n view %+v", i, sr, sv)
				}
				if hits, media := int(sr.CacheHitReads-before.CacheHitReads), int(sr.MediaReads-before.MediaReads); hits != r.hits || media != r.media {
					t.Errorf("read %d: %d DRAM and %d NAND sectors, want %d and %d", i, hits, media, r.hits, r.media)
				}
				if cr, cv := chipStats(copying), chipStats(viewing); cr != cv {
					t.Errorf("read %d: NAND stats diverge: read %+v, view %+v", i, cr, cv)
				}
			}
			if lr, lv := copying.FaultLog(), viewing.FaultLog(); !reflect.DeepEqual(lr, lv) {
				t.Errorf("fault logs diverge\n read %+v\n view %+v", lr, lv)
			}
		})
	}
}

func mustAppend(t *testing.T, d *Device, id ChunkID, data []byte) {
	t.Helper()
	if _, _, err := d.Append(0, id, data); err != nil {
		t.Fatalf("append %v: %v", id, err)
	}
}

// TestVectorViewUnderConcurrentWriter runs views of one chunk while a
// writer appends to it — same parallel unit, same stripe buffer. The
// view borrows device memory only under the PU lock, so every sector it
// shows must be whole and the race detector must stay quiet; a view that
// outlived the lock would read the stripe buffer while the writer fills
// it. Meaningful under -race (CI runs this package with it).
func TestVectorViewUnderConcurrentWriter(t *testing.T) {
	geo := smallGeo()
	geo.CacheMB = 0
	d := newDev(t, geo, Options{Seed: 9})
	id := ChunkID{1, 1, 4}
	spc := geo.SectorsPerChunk()
	sz := geo.Chip.SectorSize

	var acked atomic.Int64 // sectors the writer has been acknowledged
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < spc; s += geo.WSMin {
			if _, _, err := d.Append(0, id, patterned(geo, s, geo.WSMin)); err != nil {
				errs <- err
				return
			}
			acked.Store(int64(s + geo.WSMin))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ppas := make([]PPA, 0, geo.WSOpt)
			for acked.Load() < int64(spc) {
				n := int(acked.Load())
				if n == 0 {
					continue
				}
				// The newest sectors: the partial stripe in the buffer and
				// the end of the last programmed one.
				first := max(0, n-geo.WSOpt)
				ppas = ppas[:0]
				for s := first; s < n; s++ {
					ppas = append(ppas, id.PPAOf(s))
				}
				var bad error
				_, err := d.VectorView(0, ppas, func(k int, sector []byte) {
					want := byte(first + k + 1)
					if sector[0] != want || sector[sz-1] != want || sector[sz/2] != want {
						bad = fmt.Errorf("sector %d shows %d…%d, want %d", first+k, sector[0], sector[sz-1], want)
					}
				})
				if err == nil {
					err = bad
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
