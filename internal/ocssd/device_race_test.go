package ocssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vclock"
)

// raceGeometry returns a small dual-plane device for concurrency tests:
// 4 groups × 4 PUs with a handful of chunks per PU.
func raceGeometry() Geometry {
	g := DefaultGeometry()
	g.Groups = 4
	g.PUsPerGroup = 4
	g.ChunksPerPU = 4
	g.Chip.BlocksPerPlane = 4
	g.Chip.PagesPerBlock = 12
	g.CacheMB = 1
	return Finish(g)
}

// TestConcurrentDistinctPUs drives full write → read-back → reset cycles
// from 8 goroutines pinned to distinct parallel units. With the sharded
// data path, none of them share a lock; the test asserts that the
// aggregate statistics and every chunk's final state are exactly what
// the operation counts dictate. Run under -race this is the regression
// test for the per-PU locking model (DESIGN.md).
func TestConcurrentDistinctPUs(t *testing.T) {
	geo := raceGeometry()
	d, err := New(geo, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const iters = 5
	spc := geo.SectorsPerChunk()
	secSize := geo.Chip.SectorSize

	var wrote, readSectors, resets atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		g := w % geo.Groups
		u := w / geo.Groups // distinct (g,u) for all 8 workers
		wg.Add(1)
		go func(g, u, w int) {
			defer wg.Done()
			data := make([]byte, spc*secSize)
			for i := range data {
				data[i] = byte(w + i)
			}
			rd := make([]byte, spc*secSize)
			ppas := make([]PPA, spc)
			var now vclock.Time
			for it := 0; it < iters; it++ {
				id := ChunkID{Group: g, PU: u, Chunk: it % geo.ChunksPerPU}
				start, end, err := d.Append(now, id, data)
				if err != nil {
					errs <- err
					return
				}
				if start != 0 {
					t.Errorf("append to fresh chunk started at sector %d", start)
				}
				wrote.Add(int64(spc))
				for s := range ppas {
					ppas[s] = id.PPAOf(s)
				}
				end, err = d.VectorRead(end, ppas, rd)
				if err != nil {
					errs <- err
					return
				}
				readSectors.Add(int64(spc))
				if !bytes.Equal(rd, data) {
					t.Errorf("worker %d: read-back mismatch on %v", w, id)
				}
				end, err = d.Reset(end, id)
				if err != nil {
					errs <- err
					return
				}
				resets.Add(1)
				now = end
			}
		}(g, u, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := d.Stats()
	if s.SectorsWritten != wrote.Load() {
		t.Errorf("SectorsWritten = %d, want %d", s.SectorsWritten, wrote.Load())
	}
	if s.SectorsRead != readSectors.Load() {
		t.Errorf("SectorsRead = %d, want %d", s.SectorsRead, readSectors.Load())
	}
	if s.Resets != resets.Load() {
		t.Errorf("Resets = %d, want %d", s.Resets, resets.Load())
	}
	if s.VectorWrites != int64(workers*iters) {
		t.Errorf("VectorWrites = %d, want %d", s.VectorWrites, workers*iters)
	}
	// Every chunk a worker touched was reset: the whole device must be
	// back to free with write pointers at zero.
	for _, ci := range d.Report() {
		if ci.State != ChunkFree {
			t.Errorf("%v: state %v after all resets", ci.ID, ci.State)
		}
		if ci.WP != 0 {
			t.Errorf("%v: wp %d after reset", ci.ID, ci.WP)
		}
	}
}

// TestConcurrentSamePU hammers one parallel unit from many goroutines,
// each appending to its own chunk, so the per-PU open-chunk accounting
// and the shared stripe-buffer free list are contended for real. The
// open count must end at zero and no write may be lost.
func TestConcurrentSamePU(t *testing.T) {
	geo := raceGeometry()
	geo.MaxOpenPerPU = geo.ChunksPerPU
	d, err := New(geo, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	workers := geo.ChunksPerPU // one chunk per goroutine, same PU
	spc := geo.SectorsPerChunk()
	secSize := geo.Chip.SectorSize
	unit := geo.WSMin * secSize

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ChunkID{Group: 0, PU: 0, Chunk: w}
			data := make([]byte, unit)
			for i := range data {
				data[i] = byte(w + 1)
			}
			var now vclock.Time
			// Fill the chunk one ws_min unit at a time: every append
			// contends on the same PU shard.
			for s := 0; s < spc; s += geo.WSMin {
				_, end, err := d.Append(now, id, data)
				if err != nil {
					errs <- err
					return
				}
				now = end
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		ci, err := d.Chunk(ChunkID{Group: 0, PU: 0, Chunk: w})
		if err != nil {
			t.Fatal(err)
		}
		if ci.State != ChunkClosed || ci.WP != spc {
			t.Errorf("chunk %d: state %v wp %d, want closed/%d", w, ci.State, ci.WP, spc)
		}
	}
	if s := d.Stats(); s.SectorsWritten != int64(workers*spc) {
		t.Errorf("SectorsWritten = %d, want %d", s.SectorsWritten, workers*spc)
	}
}

// TestConcurrentMixedOps mixes writers, readers, resetters and report
// scans across overlapping PUs to shake out lock-ordering and torn-state
// bugs under -race. Correctness assertions are minimal (no worker may
// observe an error other than the expected state conflicts); the value
// of the test is the race detector coverage.
func TestConcurrentMixedOps(t *testing.T) {
	geo := raceGeometry()
	d, err := New(geo, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spc := geo.SectorsPerChunk()
	secSize := geo.Chip.SectorSize

	var wg sync.WaitGroup
	// Writers fill and reset their own chunk on a shared group.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ChunkID{Group: w % geo.Groups, PU: (w / 2) % geo.PUsPerGroup, Chunk: w % geo.ChunksPerPU}
			data := make([]byte, spc*secSize)
			var now vclock.Time
			for it := 0; it < 3; it++ {
				_, end, err := d.Append(now, id, data)
				if err != nil {
					return // a sibling writer owns this chunk: fine
				}
				end, err = d.Pad(end, id)
				if err != nil {
					return
				}
				end, err = d.Reset(end, id)
				if err != nil {
					return
				}
				now = end
			}
		}(w)
	}
	// Scanners read the chunk report concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, ci := range d.Report() {
					if ci.WP < 0 || ci.WP > spc {
						t.Errorf("%v: impossible wp %d", ci.ID, ci.WP)
					}
				}
				d.Stats()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkAppendReadReset measures the allocation profile of the device
// hot path: steady-state append → vector-read → reset cycles should be
// allocation-free once the stripe-buffer and page pools are warm.
func BenchmarkAppendReadReset(b *testing.B) {
	geo := raceGeometry()
	d, err := New(geo, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spc := geo.SectorsPerChunk()
	data := make([]byte, spc*geo.Chip.SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	rd := make([]byte, len(data))
	ppas := make([]PPA, spc)
	id := ChunkID{}
	for s := range ppas {
		ppas[s] = id.PPAOf(s)
	}
	var now vclock.Time
	// Warm the pools with one full cycle.
	if _, end, err := d.Append(now, id, data); err != nil {
		b.Fatal(err)
	} else if end, err = d.VectorRead(end, ppas, rd); err != nil {
		b.Fatal(err)
	} else if now, err = d.Reset(end, id); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, end, err := d.Append(now, id, data)
		if err != nil {
			b.Fatal(err)
		}
		if end, err = d.VectorRead(end, ppas, rd); err != nil {
			b.Fatal(err)
		}
		if now, err = d.Reset(end, id); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCrossGroupTimingCommutes is the device-level audit behind the
// host's batched executor: on a cache-less device, the same per-group
// schedule of appends, reads and resets must yield bit-identical
// virtual completion times whether the groups run one after another on
// a single goroutine or concurrently on one goroutine per group. It
// proves no hidden cross-group (cross-PU, cross-channel) timing state
// exists outside the write-back cache — per-group channel buses and
// per-PU chip timelines commute, so disjoint-footprint overlap is safe.
func TestCrossGroupTimingCommutes(t *testing.T) {
	geo := raceGeometry()
	geo.CacheMB = 0 // cache admission is the one device-global timeline
	geo = Finish(geo)
	const iters = 4

	type opTime struct {
		G  int
		It int
		T  vclock.Time
	}
	schedule := func(d *Device, g int, sink func(opTime)) error {
		spc := geo.SectorsPerChunk()
		data := make([]byte, spc*geo.Chip.SectorSize)
		for i := range data {
			data[i] = byte(g + i)
		}
		rd := make([]byte, spc*geo.Chip.SectorSize)
		ppas := make([]PPA, spc)
		var now vclock.Time
		for it := 0; it < iters; it++ {
			id := ChunkID{Group: g, PU: it % geo.PUsPerGroup, Chunk: it % geo.ChunksPerPU}
			start, end, err := d.Append(now, id, data)
			if err != nil {
				return err
			}
			for s := range ppas {
				ppas[s] = id.PPAOf(start + s)
			}
			end2, err := d.VectorRead(end, ppas, rd)
			if err != nil {
				return err
			}
			end3, err := d.Reset(end2, id)
			if err != nil {
				return err
			}
			sink(opTime{G: g, It: it, T: end3})
			now = end3
		}
		return nil
	}

	run := func(concurrent bool) map[opTime]bool {
		d, err := New(geo, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		times := make(map[opTime]bool)
		sink := func(ot opTime) {
			mu.Lock()
			times[ot] = true
			mu.Unlock()
		}
		if !concurrent {
			for g := 0; g < geo.Groups; g++ {
				if err := schedule(d, g, sink); err != nil {
					t.Fatal(err)
				}
			}
			return times
		}
		var wg sync.WaitGroup
		errs := make(chan error, geo.Groups)
		for g := 0; g < geo.Groups; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := schedule(d, g, sink); err != nil {
					errs <- err
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return times
	}

	serial := run(false)
	conc := run(true)
	if len(serial) != len(conc) {
		t.Fatalf("op counts differ: %d vs %d", len(serial), len(conc))
	}
	for ot := range serial {
		if !conc[ot] {
			t.Fatalf("completion %+v present serially, missing concurrently", ot)
		}
	}
}

// TestConcurrentFullStripeAppends is the race regression for the
// whole-stripe write path: one goroutine per parallel unit appends
// whole stripes — stored into sectors and programmed as references — and
// a sub-stripe tail plus Pad per round, rewriting its one buffer in
// place the moment each call returns, while every goroutine also appends
// from a single shared read-only stripe. If the device kept a caller's
// slice past the call, -race sees the rewrite collide with the later
// read, and the read-back at the end sees the wrong round's bytes.
func TestConcurrentFullStripeAppends(t *testing.T) {
	geo := raceGeometry()
	d, err := New(geo, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	secSize := geo.Chip.SectorSize
	stripe := geo.WSOpt * secSize
	unit := geo.WSMin * secSize
	// Per round and chunk: own stripe, shared stripe, one-unit tail, pad.
	rounds := geo.SectorsPerChunk() / (3 * geo.WSOpt)
	shared := bytes.Repeat([]byte{0xC3}, stripe)
	fill := func(buf []byte, w, round int) {
		for i := range buf {
			buf[i] = byte(w*31 + round*7 + i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < geo.TotalPUs(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ChunkID{Group: w % geo.Groups, PU: w / geo.Groups, Chunk: w % geo.ChunksPerPU}
			buf := make([]byte, stripe)
			var now vclock.Time
			for round := 0; round < rounds; round++ {
				fill(buf, w, round)
				for _, src := range [][]byte{buf, shared, buf[:unit]} {
					_, end, err := d.Append(now, id, src)
					if err != nil {
						t.Errorf("worker %d round %d: %v", w, round, err)
						return
					}
					now = end
				}
				fill(buf, w, -1) // reuse the buffer at once
				end, err := d.Pad(now, id)
				if err != nil {
					t.Errorf("worker %d round %d: pad: %v", w, round, err)
					return
				}
				now = end
			}
			want := make([]byte, stripe)
			got := make([]byte, stripe)
			ppas := make([]PPA, geo.WSOpt)
			for round := 0; round < rounds; round++ {
				fill(want, w, round)
				for s, expect := range [][]byte{want, shared, append(append([]byte(nil), want[:unit]...), make([]byte, stripe-unit)...)} {
					for i := range ppas {
						ppas[i] = id.PPAOf((round*3+s)*geo.WSOpt + i)
					}
					if _, err := d.VectorRead(now, ppas, got); err != nil {
						t.Errorf("worker %d round %d: read: %v", w, round, err)
						return
					}
					if !bytes.Equal(got, expect) {
						t.Errorf("worker %d round %d stripe %d: read-back differs from what was appended", w, round, s)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64(geo.TotalPUs() * rounds * (2*geo.WSOpt + geo.WSMin))
	if s := d.Stats(); s.SectorsWritten != want || s.PadSectors != int64(geo.TotalPUs()*rounds*(geo.WSOpt-geo.WSMin)) {
		t.Errorf("stats %+v: want %d sectors written", s, want)
	}
}

// TestConcurrentCrossPUCopy races device-side copies against the resets
// that free their sources. Two copiers move sectors across parallel
// units in opposite directions — A's source on one PU into destinations
// on the other, B's the other way — while a rewriter resets both sources
// and writes them anew, and readers check the destinations. Every sector
// carries a stamp (source chunk, sector, generation) and a fill derived
// from it, so a destination sector must hold the source sector its copy
// named, from a generation the source held while the copy ran, intact: a
// sector recycled while a copy still held it would show another stamp,
// a later generation or a torn fill, and under -race the rewrite of its
// buffer would collide with the readers.
func TestConcurrentCrossPUCopy(t *testing.T) {
	geo := raceGeometry()
	d, err := New(geo, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sz, spc := geo.Chip.SectorSize, geo.SectorsPerChunk()
	stamp := func(sec []byte, chunk, sector int, gen uint32) {
		sec[0], sec[1] = byte(chunk), byte(sector)
		binary.LittleEndian.PutUint32(sec[2:], gen)
		for i := 6; i < len(sec); i++ {
			sec[i] = byte(int(gen)*7 + chunk*13 + sector*31 + i)
		}
	}
	// A source is rewritten whole, generation by generation; gen is
	// raised before its reset, so a copy that began under generation g
	// reads sectors of g-1 or later.
	type source struct {
		id  ChunkID
		gen atomic.Uint32
	}
	srcA := &source{id: ChunkID{Group: 0, PU: 0, Chunk: 0}}
	srcB := &source{id: ChunkID{Group: 1, PU: 1, Chunk: 0}}
	write := func(s *source, gen uint32) error {
		data := make([]byte, geo.WSOpt*sz)
		var now vclock.Time
		for base := 0; base < spc; base += geo.WSOpt {
			for k := 0; k < geo.WSOpt; k++ {
				stamp(data[k*sz:(k+1)*sz], s.id.Chunk, base+k, gen)
			}
			if _, _, err := d.Append(now, s.id, data); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range []*source{srcA, srcB} {
		if err := write(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A destination holds what its copier recorded for it: per sector,
	// the source sector and the generations it may come from.
	type want struct {
		sector     int
		minG, maxG uint32
	}
	type dest struct {
		mu    sync.RWMutex
		id    ChunkID
		wants []want
	}
	dests := func(g, u int) []*dest {
		var out []*dest
		for c := 1; c < geo.ChunksPerPU; c++ {
			out = append(out, &dest{id: ChunkID{Group: g, PU: u, Chunk: c}})
		}
		return out
	}
	destsA, destsB := dests(1, 1), dests(0, 0) // A's source is on PU 0.0, B's on 1.1
	check := func(dst *dest) error {
		dst.mu.RLock()
		defer dst.mu.RUnlock()
		if len(dst.wants) == 0 {
			return nil
		}
		got := make([]byte, len(dst.wants)*sz)
		if _, err := d.VectorRead(0, seqPPAs(dst.id, 0, len(dst.wants)), got); err != nil {
			return err
		}
		ref := make([]byte, sz)
		for i, w := range dst.wants {
			sec := got[i*sz : (i+1)*sz]
			gen := binary.LittleEndian.Uint32(sec[2:])
			stamp(ref, int(sec[0]), int(sec[1]), gen)
			if !bytes.Equal(sec, ref) || int(sec[1]) != w.sector || gen < w.minG || gen > w.maxG {
				return fmt.Errorf("%v sector %d: stamp sector %d generation %d (want sector %d, generation %d..%d), fill intact %v",
					dst.id, i, sec[1], gen, w.sector, w.minG, w.maxG, bytes.Equal(sec, ref))
			}
		}
		return nil
	}

	const copies = 60
	var wg sync.WaitGroup
	var stop atomic.Bool
	copier := func(s *source, ds []*dest, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		di := 0
		for n := 0; n < copies; {
			dst := ds[di]
			start := rng.Intn(spc - geo.WSOpt)
			src := seqPPAs(s.id, start, geo.WSMin*(1+rng.Intn(geo.WSOpt/geo.WSMin)))
			dst.mu.Lock()
			if len(dst.wants)+len(src) > spc {
				if _, err := d.Reset(0, dst.id); err != nil {
					t.Errorf("reset %v: %v", dst.id, err)
				}
				dst.wants = dst.wants[:0]
				dst.mu.Unlock()
				di = (di + 1) % len(ds)
				continue
			}
			before := s.gen.Load()
			at, _, err := d.Copy(0, src, dst.id)
			after := s.gen.Load()
			if err == nil {
				if at != len(dst.wants) {
					t.Errorf("copy into %v landed at %d, want %d", dst.id, at, len(dst.wants))
				}
				for _, p := range src {
					dst.wants = append(dst.wants, want{sector: p.Sector, minG: max(before, 1) - 1, maxG: after})
				}
				n++
			} else if !errors.Is(err, ErrUnwritten) && !errors.Is(err, ErrChunkState) {
				t.Errorf("copy to %v: %v", dst.id, err) // the source mid-rewrite is the only excuse
			}
			dst.mu.Unlock()
		}
	}
	wg.Add(2)
	go copier(srcA, destsA, 1)
	go copier(srcB, destsB, 2)
	var rewriter sync.WaitGroup
	rewriter.Add(1)
	go func() {
		defer rewriter.Done()
		for stop.Load() == false {
			for _, s := range []*source{srcA, srcB} {
				gen := s.gen.Add(1)
				if _, err := d.Reset(0, s.id); err != nil {
					t.Errorf("reset %v: %v", s.id, err)
					return
				}
				if err := write(s, gen); err != nil {
					t.Errorf("rewrite %v: %v", s.id, err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		rewriter.Add(1)
		go func(ds []*dest) {
			defer rewriter.Done()
			for stop.Load() == false {
				for _, dst := range ds {
					if err := check(dst); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}([][]*dest{destsA, destsB}[r])
	}
	wg.Wait()
	stop.Store(true)
	rewriter.Wait()
	for _, dst := range append(destsA, destsB...) {
		if err := check(dst); err != nil {
			t.Error(err)
		}
	}
}
