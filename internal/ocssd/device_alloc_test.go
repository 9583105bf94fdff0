package ocssd

import (
	"testing"

	"repro/internal/vclock"
)

// TestCopyAllocatesNothing pins Device.Copy's staging: its reference
// array returns to the device's free list, and the sectors it moves are
// references, so a steady-state copy allocates nothing.
func TestCopyAllocatesNothing(t *testing.T) {
	geo := smallGeo()
	d := newDev(t, geo, Options{Seed: 1})
	src, dst := ChunkID{0, 0, 0}, ChunkID{1, 1, 0}
	now, err := d.VectorWrite(0, seqPPAs(src, 0, geo.WSOpt), sectors(geo, geo.WSOpt, 0x77))
	if err != nil {
		t.Fatal(err)
	}
	ppas := seqPPAs(src, 0, geo.WSOpt)
	written := 0
	step := func() {
		var err error
		if written == geo.SectorsPerChunk() {
			if now, err = d.Reset(now, dst); err != nil {
				t.Fatal(err)
			}
			written = 0
		}
		if _, now, err = d.Copy(now, ppas, dst); err != nil {
			t.Fatal(err)
		}
		written += geo.WSOpt
		now += vclock.Time(vclock.Millisecond)
	}
	for i := 0; i < 2*geo.SectorsPerChunk()/geo.WSOpt; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Copy allocates %.2f times per call", n)
	}
}
