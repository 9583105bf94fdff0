package ocssd

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// TestDeviceNeverRetainsCallerSlice appends whole stripes (programmed
// straight from the caller's slice), sub-stripe runs (gathered in the
// stripe buffer) and runs that are both, through Append and VectorWrite,
// and scribbles over the caller's buffer the moment each call returns.
// Every byte must read back as written — right away, when part of it is
// still in the controller buffer, and at the end, from NAND.
func TestDeviceNeverRetainsCallerSlice(t *testing.T) {
	for _, cacheMB := range []int{0, 4} {
		geo := smallGeo()
		geo.CacheMB = cacheMB
		d := newDev(t, geo, Options{Seed: 1})
		sz := geo.Chip.SectorSize
		rng := rand.New(rand.NewSource(2))
		id := ChunkID{1, 0, 2}
		var want []byte
		// In ws_min units (a stripe is 6): two whole stripes, a tail, a run
		// that completes the buffered stripe and leaves a new tail, more
		// tail. The final Pad completes the chunk's last stripe.
		for i, units := range []int{12, 1, 8, 2} {
			buf := make([]byte, units*geo.WSMin*sz)
			rng.Read(buf)
			want = append(want, buf...)
			start := len(want)/sz - units*geo.WSMin
			var err error
			if i%2 == 0 {
				_, _, err = d.Append(0, id, buf)
			} else {
				_, err = d.VectorWrite(0, seqPPAs(id, start, units*geo.WSMin), buf)
			}
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			for j := range buf {
				buf[j] = 0xEE
			}
			got := make([]byte, len(want))
			if _, err := d.VectorRead(0, seqPPAs(id, 0, len(want)/sz), got); err != nil {
				t.Fatalf("read after write %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cache %d MB: write %d changed after the caller reused its buffer", cacheMB, i)
			}
		}
		if _, err := d.Pad(0, id); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := d.VectorRead(vclock.Time(vclock.Second), seqPPAs(id, 0, len(want)/sz), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cache %d MB: programmed bytes differ from what was written", cacheMB)
		}
	}
}

// TestBypassedStripeIsOnMediaTailIsInBuffer pins where a write's sectors
// live once it returns. A whole stripe that found the buffer empty is
// programmed before the write returns: reading it is a media read (tR
// plus the channel). The tail that followed it sits in the controller
// buffer and reads at DRAM cost, exactly as a sub-stripe write always
// has. No write cache, so nothing else can serve a read at DRAM speed.
func TestBypassedStripeIsOnMediaTailIsInBuffer(t *testing.T) {
	geo := smallGeo()
	geo.CacheMB = 0
	d := newDev(t, geo, Options{Seed: 1})
	sz := geo.Chip.SectorSize
	id := ChunkID{0, 1, 1}
	data := make([]byte, (geo.WSOpt+geo.WSMin)*sz)
	rand.New(rand.NewSource(4)).Read(data)
	_, now, err := d.Append(0, id, data)
	if err != nil {
		t.Fatal(err)
	}
	dram := vclock.DurationFor(int64(sz), geo.CacheMBps)

	// The tail: every sector of it from the buffer, at DRAM cost.
	got := make([]byte, geo.WSMin*sz)
	end, err := d.VectorRead(now, seqPPAs(id, geo.WSOpt, geo.WSMin), got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[geo.WSOpt*sz:]) {
		t.Fatal("buffered tail read back wrong")
	}
	if s := d.Stats(); s.CacheHitReads != int64(geo.WSMin) || s.MediaReads != 0 {
		t.Fatalf("tail read: %d buffer hits, %d media reads; want %d, 0", s.CacheHitReads, s.MediaReads, geo.WSMin)
	}
	if end.Sub(now) != dram {
		t.Fatalf("tail read took %v, want the DRAM copy of one sector, %v", end.Sub(now), dram)
	}

	// The stripe: a media read, right after the write that programmed it.
	got = make([]byte, sz)
	end, err = d.VectorRead(now, []PPA{id.PPAOf(5)}, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5*sz:6*sz]) {
		t.Fatal("programmed stripe read back wrong")
	}
	if s := d.Stats(); s.CacheHitReads != int64(geo.WSMin) || s.MediaReads != 1 {
		t.Fatalf("stripe read: %d buffer hits, %d media reads; want %d, 1", s.CacheHitReads, s.MediaReads, geo.WSMin)
	}
	if end.Sub(now) < d.chips[id.Group][id.PU].ReadTime() {
		t.Fatalf("stripe read took %v, less than tR", end.Sub(now))
	}
}

// TestPadIsAWriteOfZerosInVirtualTime checks that a pad, which moves no
// bytes in host time, still costs exactly what appending the same number
// of zero sectors costs: two devices, one padded and one handed real
// zeros, finish at the same instant with the same chip state. The stripe
// buffer is dirtied first, so a pad that exposed stale buffer bytes
// instead of zeros would show in the read-back.
func TestPadIsAWriteOfZerosInVirtualTime(t *testing.T) {
	for _, cacheMB := range []int{0, 4} {
		geo := smallGeo()
		geo.CacheMB = cacheMB
		padded := newDev(t, geo, Options{Seed: 1})
		zeroed := newDev(t, geo, Options{Seed: 1})
		id := ChunkID{0, 0, 3}
		head := sectors(geo, 2*geo.WSMin, 0x6B)
		for _, d := range []*Device{padded, zeroed} {
			// One stripe gathered in the buffer unit by unit, then the head
			// of the stripe under test in the same, now dirty, buffer.
			for s := 0; s < geo.WSOpt; s += geo.WSMin {
				if _, _, err := d.Append(0, id, sectors(geo, geo.WSMin, 0xFF)); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := d.Append(0, id, head); err != nil {
				t.Fatal(err)
			}
		}
		rest := geo.WSOpt - 2*geo.WSMin
		endPad, err := padded.Pad(100, id)
		if err != nil {
			t.Fatal(err)
		}
		_, endZero, err := zeroed.Append(100, id, sectors(geo, rest, 0))
		if err != nil {
			t.Fatal(err)
		}
		// Pad additionally waits for the program (it is the durability
		// barrier); without a cache the plain write does too.
		if cacheMB == 0 && endPad != endZero {
			t.Fatalf("pad completes at %v, a write of zeros at %v", endPad, endZero)
		}
		ci, _ := padded.Chunk(id)
		cz, _ := zeroed.Chunk(id)
		if ci != cz {
			t.Fatalf("chunk after pad %+v, after zeros %+v", ci, cz)
		}
		if a, b := padded.chips[0][0].Stats(), zeroed.chips[0][0].Stats(); a != b {
			t.Fatalf("chip stats after pad %+v, after zeros %+v", a, b)
		}
		// The next stripe starts at the same instant on both: channel and
		// chip were reserved identically.
		next := sectors(geo, geo.WSOpt, 0x11)
		_, e1, err1 := padded.Append(200, id, next)
		_, e2, err2 := zeroed.Append(200, id, next)
		if err1 != nil || err2 != nil || e1 != e2 {
			t.Fatalf("next stripe: %v/%v vs %v/%v", e1, err1, e2, err2)
		}
		got := make([]byte, geo.WSOpt*geo.Chip.SectorSize)
		if _, err := padded.VectorRead(vclock.Time(vclock.Second), seqPPAs(id, geo.WSOpt, geo.WSOpt), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(append([]byte(nil), head...), sectors(geo, rest, 0)...)) {
			t.Fatal("padded stripe does not read back as data followed by zeros")
		}
	}
}
