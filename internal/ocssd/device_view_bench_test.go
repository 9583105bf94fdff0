package ocssd

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// viewBenchDevice is DefaultGeometry with two whole chunks of non-zero
// data on every parallel unit: 96 MB of NAND pages, far more than the
// CPU caches hold, like the devices of the stack benchmark's workloads.
func viewBenchDevice(b *testing.B) (*Device, []ChunkID) {
	b.Helper()
	geo := DefaultGeometry()
	d, err := New(geo, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, geo.SectorsPerChunk()*geo.Chip.SectorSize)
	rand.New(rand.NewSource(1)).Read(data)
	var chunks []ChunkID
	for g := 0; g < geo.Groups; g++ {
		for u := 0; u < geo.PUsPerGroup; u++ {
			for c := 0; c < 2; c++ {
				id := ChunkID{g, u, c}
				if _, _, err := d.Append(0, id, data); err != nil {
					b.Fatal(err)
				}
				chunks = append(chunks, id)
			}
		}
	}
	return d, chunks
}

// benchViews times VectorView over the vectors in turn, visiting each
// sector the way a block search starts on it (one word read), after
// asserting that a view allocates nothing. The reads are issued long
// after every write drained, so every sector comes from NAND.
func benchViews(b *testing.B, d *Device, vectors [][]PPA) {
	const at = vclock.Time(vclock.Second)
	var sum uint64
	visit := func(_ int, sector []byte) { sum += binary.LittleEndian.Uint64(sector) }
	next := 0
	step := func() {
		if _, err := d.VectorView(at, vectors[next], visit); err != nil {
			b.Fatal(err)
		}
		next = (next + 1) % len(vectors)
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		b.Fatalf("VectorView allocates %.2f times per call", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	_ = sum
}

// BenchmarkVectorViewStripe is LightLSM's block read: one whole wordline
// stripe (24 sectors, 6 pages) of one chunk per view, stripes taken in
// random order over the whole device.
func BenchmarkVectorViewStripe(b *testing.B) {
	d, chunks := viewBenchDevice(b)
	geo := d.Geometry()
	var vectors [][]PPA
	for _, id := range chunks {
		for s := 0; s < geo.StripesPerChunk(); s++ {
			vectors = append(vectors, seqPPAs(id, s*geo.WSOpt, geo.WSOpt))
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(vectors), func(i, j int) { vectors[i], vectors[j] = vectors[j], vectors[i] })
	benchViews(b, d, vectors)
}

// BenchmarkVectorViewSector is the 4 KB random read of OX-Block
// (block_overwrite_gc, tcp_read_mostly): one sector per view, anywhere
// on the device.
func BenchmarkVectorViewSector(b *testing.B) {
	d, chunks := viewBenchDevice(b)
	spc := d.Geometry().SectorsPerChunk()
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]PPA, 1<<14)
	for i := range vectors {
		vectors[i] = []PPA{chunks[rng.Intn(len(chunks))].PPAOf(rng.Intn(spc))}
	}
	benchViews(b, d, vectors)
}
