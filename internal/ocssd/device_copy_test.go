package ocssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/vclock"
)

// copy copies src to dst on both twins: the padded twin with Copy, the
// zeroed twin by Copy's definition — VectorRead of src, then Append of
// what it read at the instant the read returned, counted as one copy.
// The two must report the same start, instant and error, and leave the
// same counters, chunk report and NAND counters behind. On success the
// destination's model grows by the source sectors' model bytes, which
// the reference's read must have returned.
func (tw *padTwins) copy(now vclock.Time, src []PPA, dst ChunkID) error {
	tw.t.Helper()
	sz := tw.geo.Chip.SectorSize
	s1, e1, err1 := tw.padded.Copy(now, src, dst)
	s2, e2, err2 := 0, now, error(nil)
	buf := make([]byte, len(src)*sz)
	if len(src) == 0 || len(src)%tw.geo.WSMin != 0 {
		err2 = fmt.Errorf("%w: %d source sectors", ErrWriteSize, len(src))
	} else if end, err := tw.zeroed.VectorRead(now, src, buf); err != nil {
		err2 = err
	} else if s, end, err := tw.zeroed.Append(end, dst, buf); err != nil {
		err2 = err
	} else {
		s2, e2 = s, end
		tw.zeroed.stats.copies.Add(1)
	}
	tw.same(fmt.Sprintf("copy of %d sectors to %v", len(src), dst),
		fmt.Sprintf("start %d end %d err %v", s1, e1, err1), fmt.Sprintf("start %d end %d err %v", s2, e2, err2))
	if err1 == nil {
		var want []byte
		for _, p := range src {
			want = append(want, tw.model[p.ChunkOf()][p.Sector*sz:(p.Sector+1)*sz]...)
		}
		if !bytes.Equal(buf, want) {
			tw.t.Fatalf("copy to %v: the reference read other bytes than were written", dst)
		}
		tw.model[dst] = append(tw.model[dst], want...)
	}
	tw.state("copy")
	return err1
}

// fill appends n sectors of kind-patterned data (see padSector) to id on
// both twins, with no pad.
func (tw *padTwins) fill(now vclock.Time, id ChunkID, seq int, kinds ...int) error {
	tw.t.Helper()
	sz := tw.geo.Chip.SectorSize
	b := make([]byte, len(kinds)*sz)
	for s, k := range kinds {
		padSector(b[s*sz:(s+1)*sz], k, seq+s)
	}
	return tw.appendPadded(now, id, b, 0)
}

// copySequence runs ops commands drawn from pick on the twins, over a
// handful of chunks on both groups, two of them on one PU: copies of
// every shape — runs and scattered sectors, from one chunk or two, from
// the stripe buffer and from NAND, into empty, partly filled and full
// destinations — between appends, pads, reads, resets (of sources too,
// full or still open) and, when crashes is set, power losses.
func (tw *padTwins) copySequence(now vclock.Time, pick func(n int) int, ops int, crashes bool) vclock.Time {
	tw.t.Helper()
	geo := tw.geo
	spc := geo.SectorsPerChunk()
	chunks := []ChunkID{{0, 0, 1}, {0, 0, 5}, {0, 1, 2}, {1, 0, 3}, {1, 1, 1}, {1, 0, 4}}
	for i := 0; i < ops; i++ {
		now = now.Add(vclock.Duration(pick(300)) * vclock.Microsecond)
		id := chunks[pick(len(chunks))]
		ci, _ := tw.padded.Chunk(id)
		switch op := pick(20); {
		case op < 6:
			n := geo.WSMin * (1 + pick(2*geo.WSOpt/geo.WSMin))
			if pick(4) == 0 {
				n = spc - ci.WP // up to the chunk's end
			}
			kinds := make([]int, max(n, 0))
			for s := range kinds {
				kinds[s] = pick(4)
			}
			tw.fill(now, id, i*64, kinds...)
		case op < 7:
			tw.pad(now, id)
		case op < 13:
			// Sources: one or two chunks, each a run or scattered sectors
			// below its write pointer, now and then one past it.
			var src []PPA
			for k := 1 + pick(2); k > 0; k-- {
				from := chunks[pick(len(chunks))]
				fi, _ := tw.padded.Chunk(from)
				if fi.WP == 0 {
					continue
				}
				n := 1 + pick(geo.WSOpt+geo.WSMin)
				start := pick(fi.WP)
				for s := 0; s < n; s++ {
					sector := start + s
					if pick(3) == 0 {
						sector = pick(fi.WP + pick(2))
					}
					src = append(src, from.PPAOf(min(sector, spc-1)))
				}
			}
			if pick(8) != 0 {
				src = src[:len(src)-len(src)%geo.WSMin]
			}
			tw.copy(now, src, id)
		case op < 16:
			if ci.WP > 0 {
				from := pick(ci.WP)
				tw.read(now, id, from, 1+pick(ci.WP-from))
			}
		case op < 19:
			if ci.State == ChunkClosed || ci.State == ChunkOpen && pick(3) == 0 {
				tw.reset(now, id)
			}
		default:
			if crashes {
				tw.padded.Crash()
				tw.zeroed.Crash()
				tw.state("crash")
				tw.settle()
			}
		}
	}
	return now
}

// TestCopyMatchesReadThenAppend holds Device.Copy, which moves sector
// references, to its definition, a VectorRead followed by an Append of
// what was read at the instant the read returned, on twin devices. A
// scripted opening covers the cases a reference can get wrong: the
// source reset and rewritten after the copy, sources still in an open
// chunk's stripe buffer, zero sectors, a chain A → B → C whose first two
// links are reset, a destination whose stripe is partly filled, and a
// copy within one PU; seeded commands of every shape follow, then every
// sector is read from NAND, and the twins lose power (a crash, or a cut
// landing on a copy's program, protected or torn) and are restored from
// the backend where they have one. After every step the instants,
// errors, counters, chunk report and NAND counters match, and every
// written sector reads back the same through VectorRead and VectorView
// on both twins.
func TestCopyMatchesReadThenAppend(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cache, plp      bool
		file, cut, torn bool
	}{
		{name: "mem"},
		{name: "mem-cache", cache: true},
		{name: "mem-plp-crash", plp: true, cache: true},
		{name: "mem-crash"},
		{name: "file-plp", plp: true, cache: true, file: true},
		{name: "file-plp-cut", plp: true, cache: true, file: true, cut: true},
		{name: "file-torn-cut", file: true, cut: true, torn: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := smallGeo()
			if !tc.cache {
				geo.CacheMB = 0
			}
			var opts [2]Options
			var injectors [2]*fault.Injector
			for i := range opts {
				opts[i] = Options{Seed: 7, PowerLossProtected: tc.plp}
				if tc.file {
					opts[i].BackendPath = filepath.Join(t.TempDir(), "dev.img")
				}
				if tc.cut {
					injectors[i] = fault.New(fault.Config{Seed: 3, TornWrites: tc.torn})
					opts[i].Faults = injectors[i]
				}
			}
			tw := newPadTwins(t, geo, opts)
			now := vclock.Time(0)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			step := func() {
				t.Helper()
				now = now.Add(200 * vclock.Microsecond)
				tw.readAll(now)
			}
			run := func(id ChunkID, from, n int) []PPA { return seqPPAs(id, from, n) }
			cycle := func(id ChunkID, k, n int) []PPA { // n sectors, id's first k over and over
				out := make([]PPA, n)
				for i := range out {
					out[i] = id.PPAOf(i % k)
				}
				return out
			}
			data := func(n int) []int { // data and record sectors, no zeros
				k := make([]int, n)
				for s := range k {
					k[s] = 1 + s%2*2
				}
				return k
			}
			a, b, c := ChunkID{0, 0, 1}, ChunkID{0, 1, 2}, ChunkID{1, 0, 3}
			same, other := ChunkID{0, 0, 5}, ChunkID{1, 1, 1}

			// The source reset and rewritten with other data after the
			// copy: the destination still reads what was copied, from the
			// stripe buffer and, once a stripe completes it, from NAND.
			must(tw.fill(now, a, 1, data(geo.WSOpt)...))
			must(tw.fill(now, a, 100, data(geo.WSOpt)...))
			must(tw.copy(now, run(a, 2, 8), b))
			step()
			must(tw.fill(now, a, 200, data(geo.SectorsPerChunk()-2*geo.WSOpt)...))
			must(tw.reset(now, a))
			must(tw.fill(now, a, 300, data(geo.WSOpt+geo.WSMin)...))
			step()
			must(tw.copy(now, run(b, 0, 8), b))
			must(tw.copy(now, run(b, 4, geo.WSOpt-16), b))
			step()
			// Sources in an open chunk's stripe buffer (a holds one unit
			// past its stripe), mixed with sectors on NAND.
			must(tw.copy(now, append(run(a, geo.WSOpt, geo.WSMin), run(a, 0, geo.WSMin)...), c))
			step()
			// Zero sectors, buffered and programmed, alone and among data.
			must(tw.fill(now, other, 400, 0, 0, 0, 0, 2, 0, 2, 0))
			must(tw.copy(now, run(other, 0, 8), c))
			must(tw.fill(now, other, 500, make([]int, geo.WSOpt-8)...))
			must(tw.copy(now, run(other, 0, geo.WSOpt), c))
			step()
			// A chain A → B → C, A and B reset once C holds the sectors.
			x, y, z := ChunkID{1, 1, 5}, ChunkID{0, 1, 6}, ChunkID{1, 0, 6}
			must(tw.fill(now, x, 600, data(geo.WSOpt)...))
			must(tw.copy(now, run(x, 0, geo.WSOpt), y))
			must(tw.copy(now, run(y, 4, geo.WSMin*3), z))
			must(tw.copy(now, run(y, 0, geo.WSOpt), z))
			for _, id := range []ChunkID{x, y} {
				ci, _ := tw.padded.Chunk(id)
				must(tw.fill(now, id, 700, data(geo.SectorsPerChunk()-ci.WP)...))
				must(tw.reset(now, id))
			}
			step()
			// A destination whose stripe is partly filled: the copy
			// completes it and runs into the next.
			must(tw.fill(now, same, 800, data(geo.WSMin*2)...))
			must(tw.copy(now, run(z, 0, geo.WSOpt), same))
			step()
			// A copy within one PU, a and same sharing chip and lock.
			must(tw.copy(now, run(same, 0, geo.WSMin*2), a))
			must(tw.copy(now, run(a, 0, geo.WSMin), same))
			step()
			// Copies the device refuses: an odd size, and one that does not
			// fit, whose sources are still read and charged.
			if err := tw.copy(now, run(a, 0, 3), b); !errors.Is(err, ErrWriteSize) {
				t.Fatalf("copy of 3 sectors: %v", err)
			}
			ci, _ := tw.padded.Chunk(c)
			if err := tw.copy(now, cycle(a, geo.WSMin, geo.SectorsPerChunk()-ci.WP+geo.WSMin), c); !errors.Is(err, ErrChunkFull) {
				t.Fatalf("copy past the chunk's end: %v", err)
			}
			step()

			rng := rand.New(rand.NewSource(11))
			now = tw.copySequence(now, rng.Intn, 300, !tc.cut)

			// Everything again, long after the write-back cache drained: NAND.
			now = now.Add(10 * vclock.Second)
			tw.readAll(now)

			// Power loss with copied sectors in stripe buffers.
			e, f := ChunkID{1, 1, 7}, ChunkID{0, 1, 7}
			must(tw.fill(now, e, 900, data(geo.WSMin)...))
			must(tw.copy(now, run(e, 0, geo.WSMin), f))
			if tc.cut {
				// The cut lands on the program of the stripe this copy
				// completes: its read is the first media op, its program
				// the second.
				for _, in := range injectors {
					in.PowerCut(2)
				}
				ci, _ := tw.padded.Chunk(e)
				src := cycle(e, ci.WP, geo.WSOpt-ci.WP)
				if err := tw.copy(now, src, e); !errors.Is(err, fault.ErrPowerCut) {
					t.Fatalf("copy under a power cut: %v", err)
				}
				for _, p := range src {
					tw.model[e] = append(tw.model[e], tw.model[e][p.Sector*geo.Chip.SectorSize:(p.Sector+1)*geo.Chip.SectorSize]...)
				}
			} else {
				tw.padded.Crash()
				tw.zeroed.Crash()
				tw.state("crash")
				tw.settle()
				tw.readAll(now.Add(20 * vclock.Second))
			}
			tw.close()
			if !tc.file {
				return
			}
			for _, path := range []func(Options) string{
				func(o Options) string { return o.BackendPath },
				func(o Options) string { return LogPath(o.BackendPath) },
			} {
				p, err1 := os.ReadFile(path(opts[0]))
				z, err2 := os.ReadFile(path(opts[1]))
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !bytes.Equal(p, z) {
					t.Fatalf("backend file %s differs between the twins", filepath.Base(path(opts[0])))
				}
			}
			var err error
			for i, d := range []**Device{&tw.padded, &tw.zeroed} {
				opts[i].Faults = nil
				if *d, err = OpenDevice(geo, opts[i]); err != nil {
					t.Fatalf("OpenDevice: %v", err)
				}
			}
			defer tw.close()
			tw.state("restored")
			tw.settle()
			tw.readAll(0)
		})
	}
}

// FuzzCopyMatchesReadThenAppend drives the copy twins with commands
// decoded from the input: its first byte picks the write cache and
// power-loss protection, every later byte answers one choice of
// copySequence (0 once the input runs out), crashes included. After the
// sequence every sector is read from NAND, the twins lose power, and
// what survives is read again.
func FuzzCopyMatchesReadThenAppend(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{3, 0, 0, 24, 7, 1, 9, 3, 0, 0, 1, 8, 4, 0, 9, 9, 2, 0, 5, 1, 11, 2, 0, 3})
	f.Add(bytes.Repeat([]byte{1, 0, 3, 0, 200, 2, 1, 0, 8, 1, 1, 2, 5, 17, 3}, 16))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 4096 {
			return
		}
		geo := smallGeo()
		if in[0]&1 == 0 {
			geo.CacheMB = 0
		}
		opt := Options{Seed: 5, PowerLossProtected: in[0]&2 != 0}
		tw := newPadTwins(t, geo, [2]Options{opt, opt})
		rest := in[1:]
		pick := func(n int) int {
			if len(rest) == 0 {
				return 0
			}
			b := int(rest[0])
			rest = rest[1:]
			return b % n
		}
		now := tw.copySequence(0, pick, len(in)/4+1, true)
		now = now.Add(10 * vclock.Second)
		tw.readAll(now)
		tw.padded.Crash()
		tw.zeroed.Crash()
		tw.state("crash")
		tw.settle()
		tw.readAll(now.Add(10 * vclock.Second))
	})
}
