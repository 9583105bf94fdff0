//go:build !race

// Under -race, sync.Pool drops a share of what it is handed on purpose,
// so a pooled buffer is not reliably reused and allocation counts are
// not the steady state's.

package ocssd

import (
	"testing"

	"repro/internal/vclock"
)

// TestCopyAllocatesNothing pins the fix to Device.Copy's staging buffer:
// the pool gets back the pointer it handed out, so a steady-state copy
// allocates nothing (it used to move its local slice header to the heap
// on every call).
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
