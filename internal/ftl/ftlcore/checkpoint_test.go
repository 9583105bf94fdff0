package ftlcore

import (
	"errors"
	"testing"

	"repro/internal/ocssd"
	"repro/internal/vclock"
)

func newCkptUnderTest(t *testing.T) (*Checkpointer, *PageMap, *ocssd.Device) {
	t.Helper()
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1})
	slots := [2][]ocssd.ChunkID{
		{{Group: 0, PU: 0, Chunk: 0}, {Group: 0, PU: 1, Chunk: 0}},
		{{Group: 1, PU: 0, Chunk: 0}, {Group: 1, PU: 1, Chunk: 0}},
	}
	c, err := NewCheckpointer(d, ctrl, slots)
	if err != nil {
		t.Fatal(err)
	}
	m := NewPageMap(MapPageEntries * 2)
	return c, m, d
}

func populate(m *PageMap, stride int64) {
	for i := int64(0); i < int64(m.Len()); i += stride {
		m.Update(i, ocssd.PPA{Group: int(i % 2), Chunk: int(i % 8), Sector: int(i % 96)})
	}
}

func TestCheckpointWriteLoadRoundTrip(t *testing.T) {
	c, m, _ := newCkptUnderTest(t)
	populate(m, 3)
	end, err := c.Write(0, m, 3, LSN(12345))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if end <= 0 {
		t.Fatal("checkpoint should consume virtual time")
	}
	if c.Seq() != 1 {
		t.Fatalf("seq = %d", c.Seq())
	}
	if len(m.DirtyPages()) != 0 {
		t.Fatal("checkpoint should clear dirty pages")
	}

	m2 := NewPageMap(m.Len())
	_, walLSN, _, err := c.Load(end, m2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if walLSN != LSN(12345) {
		t.Fatalf("walLSN = %d", walLSN)
	}
	for i := int64(0); i < int64(m.Len()); i++ {
		a, okA := m.Lookup(i)
		b, okB := m2.Lookup(i)
		if okA != okB || a != b {
			t.Fatalf("entry %d differs after load", i)
		}
	}
}

func TestCheckpointNoCheckpoint(t *testing.T) {
	c, m, _ := newCkptUnderTest(t)
	if _, _, _, err := c.Load(0, m); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointDoubleBuffering(t *testing.T) {
	c, m, _ := newCkptUnderTest(t)
	populate(m, 5)
	end, err := c.Write(0, m, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Second checkpoint with different content goes to the other slot.
	m.Update(1, ocssd.PPA{Group: 1, PU: 1, Chunk: 7, Sector: 42})
	end, err = c.Write(end, m, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Load must pick the newer checkpoint.
	m2 := NewPageMap(m.Len())
	_, walLSN, _, err := c.Load(end, m2)
	if err != nil {
		t.Fatal(err)
	}
	if walLSN != 200 {
		t.Fatalf("walLSN = %d, want 200 (newest)", walLSN)
	}
	got, ok := m2.Lookup(1)
	if !ok || got != (ocssd.PPA{Group: 1, PU: 1, Chunk: 7, Sector: 42}) {
		t.Fatalf("newest mapping lost: %v %v", got, ok)
	}
	if c.Seq() != 2 {
		t.Fatalf("seq = %d", c.Seq())
	}
}

func TestCheckpointAlternatesSlots(t *testing.T) {
	c, m, _ := newCkptUnderTest(t)
	populate(m, 4)
	end := vclock.Time(0)
	var err error
	// Three checkpoints: slot usage 1,0,1 — all must stay loadable.
	for i := 1; i <= 3; i++ {
		end, err = c.Write(end, m, 3, LSN(i*10))
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	m2 := NewPageMap(m.Len())
	_, walLSN, _, err := c.Load(end, m2)
	if err != nil {
		t.Fatal(err)
	}
	if walLSN != 30 {
		t.Fatalf("walLSN = %d, want 30", walLSN)
	}
}

func TestCheckpointSurvivesCrash(t *testing.T) {
	c, m, d := newCkptUnderTest(t)
	populate(m, 2)
	end, err := c.Write(0, m, 3, 777)
	if err != nil {
		t.Fatal(err)
	}
	d.Crash()
	m2 := NewPageMap(m.Len())
	_, walLSN, _, err := c.Load(end, m2)
	if err != nil {
		t.Fatalf("Load after crash: %v", err)
	}
	if walLSN != 777 {
		t.Fatalf("walLSN = %d", walLSN)
	}
}

func TestCheckpointSlotValidation(t *testing.T) {
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1})
	_, err := NewCheckpointer(d, ctrl, [2][]ocssd.ChunkID{{}, {{Group: 0, PU: 0, Chunk: 0}}})
	if err == nil {
		t.Fatal("empty slot should be rejected")
	}
}

func TestCheckpointTooBigForSlot(t *testing.T) {
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1})
	// One chunk = 384 KB; a map needing more must be rejected.
	slots := [2][]ocssd.ChunkID{
		{{Group: 0, PU: 0, Chunk: 0}},
		{{Group: 1, PU: 0, Chunk: 0}},
	}
	c, err := NewCheckpointer(d, ctrl, slots)
	if err != nil {
		t.Fatal(err)
	}
	m := NewPageMap(MapPageEntries * 200) // 200 pages × 4 KB = 800 KB
	if _, err := c.Write(0, m, 3, 0); err == nil {
		t.Fatal("oversized checkpoint should fail")
	}
}

func TestSlotBytesNeeded(t *testing.T) {
	if SlotBytesNeeded(0) != ckptHeaderLen+ckptTrailerLen {
		t.Fatal("empty snapshot size wrong")
	}
	if SlotBytesNeeded(2) != ckptHeaderLen+2*MapPageBytes+ckptTrailerLen {
		t.Fatal("snapshot size wrong")
	}
}
