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
	"repro/internal/nand"
	"repro/internal/vclock"
)

// padTwins drives two devices through the same commands. padded is
// handed every pad as a count (AppendPadded); zeroed gets the same append
// with the pad written out as zero sectors (Append). Virtual time, the
// counters and what the sectors read back as may not tell them apart:
// every step compares the instants, starts and errors, the Stats, the
// chunk report and the NAND counters, and every read compares the bytes
// of VectorRead and VectorView on both twins with a model of what was
// written.
type padTwins struct {
	t              testing.TB
	geo            Geometry
	padded, zeroed *Device
	model          map[ChunkID][]byte
}

func newPadTwins(t testing.TB, geo Geometry, opts [2]Options) *padTwins {
	tw := &padTwins{t: t, geo: geo, model: map[ChunkID][]byte{}}
	var err error
	if tw.padded, err = New(geo, opts[0]); err != nil {
		t.Fatal(err)
	}
	if tw.zeroed, err = New(geo, opts[1]); err != nil {
		t.Fatal(err)
	}
	return tw
}

// same fails unless both twins returned the same thing.
func (tw *padTwins) same(what string, padded, zeroed string) {
	tw.t.Helper()
	if padded != zeroed {
		tw.t.Fatalf("%s differs:\npadded %s\nzeroed %s", what, padded, zeroed)
	}
}

// state compares everything the twins report outside of reads.
func (tw *padTwins) state(what string) {
	tw.t.Helper()
	tw.same(what+": stats", fmt.Sprintf("%+v", tw.padded.Stats()), fmt.Sprintf("%+v", tw.zeroed.Stats()))
	tw.same(what+": report", fmt.Sprintf("%+v", tw.padded.Report()), fmt.Sprintf("%+v", tw.zeroed.Report()))
	tw.same(what+": chips", fmt.Sprintf("%+v", everyChip(tw.padded)), fmt.Sprintf("%+v", everyChip(tw.zeroed)))
}

// everyChip lists the counters of every NAND chip of d.
func everyChip(d *Device) []nand.Stats {
	var out []nand.Stats
	for g := range d.chips {
		for _, chip := range d.chips[g] {
			out = append(out, chip.Stats())
		}
	}
	return out
}

// appendPadded appends data and pad zero sectors to id on both twins.
func (tw *padTwins) appendPadded(now vclock.Time, id ChunkID, data []byte, pad int) error {
	tw.t.Helper()
	sz := tw.geo.Chip.SectorSize
	s1, e1, err1 := tw.padded.AppendPadded(now, id, data, pad)
	s2, e2, err2 := tw.zeroed.Append(now, id, append(append([]byte(nil), data...), make([]byte, pad*sz)...))
	tw.same(fmt.Sprintf("append %v %d+%d sectors", id, len(data)/sz, pad),
		fmt.Sprintf("start %d end %d err %v", s1, e1, err1), fmt.Sprintf("start %d end %d err %v", s2, e2, err2))
	if err1 == nil {
		tw.model[id] = append(append(tw.model[id], data...), make([]byte, pad*sz)...)
	}
	tw.state("append")
	return err1
}

func (tw *padTwins) pad(now vclock.Time, id ChunkID) error {
	tw.t.Helper()
	before, _ := tw.padded.Chunk(id)
	e1, err1 := tw.padded.Pad(now, id)
	e2, err2 := tw.zeroed.Pad(now, id)
	tw.same(fmt.Sprintf("pad %v", id), fmt.Sprintf("end %d err %v", e1, err1), fmt.Sprintf("end %d err %v", e2, err2))
	after, _ := tw.padded.Chunk(id)
	tw.model[id] = append(tw.model[id], make([]byte, (after.WP-before.WP)*tw.geo.Chip.SectorSize)...)
	tw.state("pad")
	return err1
}

func (tw *padTwins) reset(now vclock.Time, id ChunkID) error {
	tw.t.Helper()
	e1, err1 := tw.padded.Reset(now, id)
	e2, err2 := tw.zeroed.Reset(now, id)
	tw.same(fmt.Sprintf("reset %v", id), fmt.Sprintf("end %d err %v", e1, err1), fmt.Sprintf("end %d err %v", e2, err2))
	if err1 == nil {
		delete(tw.model, id)
	}
	tw.state("reset")
	return err1
}

// read reads n sectors of id from sector from on both twins, through
// VectorRead and then VectorView, and checks the bytes against the model.
func (tw *padTwins) read(at vclock.Time, id ChunkID, from, n int) error {
	tw.t.Helper()
	sz := tw.geo.Chip.SectorSize
	ppas := seqPPAs(id, from, n)
	var got [2][]byte
	var results [2]string
	var firstErr error
	for i, d := range []*Device{tw.padded, tw.zeroed} {
		got[i] = make([]byte, n*sz)
		end, err := d.VectorRead(at, ppas, got[i])
		viewed := make([]byte, n*sz)
		vend, verr := d.VectorView(at, ppas, func(k int, sector []byte) {
			copy(viewed[k*sz:(k+1)*sz], sector)
		})
		results[i] = fmt.Sprintf("read end %d err %v, view end %d err %v", end, err, vend, verr)
		if err == nil && !bytes.Equal(got[i], viewed) {
			tw.t.Fatalf("read %v [%d,+%d): VectorView bytes differ from VectorRead's", id, from, n)
		}
		if i == 0 {
			firstErr = err
		}
	}
	tw.same(fmt.Sprintf("read %v [%d,+%d)", id, from, n), results[0], results[1])
	if firstErr == nil {
		if !bytes.Equal(got[0], got[1]) {
			tw.t.Fatalf("read %v [%d,+%d): the twins read different bytes", id, from, n)
		}
		if want := tw.model[id][from*sz : (from+n)*sz]; !bytes.Equal(got[0], want) {
			tw.t.Fatalf("read %v [%d,+%d): bytes differ from what was written", id, from, n)
		}
	}
	tw.state("read")
	return firstErr
}

// readAll reads every written sector of every chunk on both twins.
func (tw *padTwins) readAll(at vclock.Time) {
	tw.t.Helper()
	for _, ci := range tw.padded.Report() {
		if ci.State != ChunkOffline && ci.WP > 0 {
			if err := tw.read(at, ci.ID, 0, ci.WP); err != nil {
				tw.t.Fatalf("read back %v: %v", ci.ID, err)
			}
		}
	}
}

// settle makes the model agree with the write pointers after power loss:
// sectors beyond a pointer are gone, and a stripe that power-loss
// protection completed reads as zeros past what was written.
func (tw *padTwins) settle() {
	sz := tw.geo.Chip.SectorSize
	for _, ci := range tw.padded.Report() {
		m := tw.model[ci.ID]
		if n := ci.WP * sz; n <= len(m) {
			tw.model[ci.ID] = m[:n]
		} else {
			tw.model[ci.ID] = append(m, make([]byte, n-len(m))...)
		}
	}
}

// padSector renders one data sector: kind 0 is a zero sector, 1 a
// WAL-style record (64 non-zero bytes, then zeros), anything else a
// sector of data.
func padSector(b []byte, kind, seq int) {
	switch kind {
	case 0:
		clear(b)
	case 1:
		clear(b)
		for j := 0; j < 64; j++ {
			b[j] = byte(seq + j | 0x80)
		}
	default:
		for j := range b {
			b[j] = byte(seq*31 + j*7 + 1)
		}
	}
}

// padSequence runs ops commands drawn from pick (pick(n) is in [0, n))
// on the twins, over a handful of chunks on both groups: padded appends
// of every shape — sub-unit data with a short pad, data ending on a unit
// with whole units of pad, pad alone, runs that fill a stripe or a chunk,
// sizes the device must reject — interleaved with Pad, reads at once
// (stripe buffer, cache window) and resets of full chunks.
func (tw *padTwins) padSequence(now vclock.Time, pick func(n int) int, ops int) vclock.Time {
	tw.t.Helper()
	geo := tw.geo
	sz, spc := geo.Chip.SectorSize, geo.SectorsPerChunk()
	chunks := []ChunkID{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 1}, {0, 0, 5}}
	for i := 0; i < ops; i++ {
		now = now.Add(vclock.Duration(pick(300)) * vclock.Microsecond)
		id := chunks[pick(len(chunks))]
		ci, _ := tw.padded.Chunk(id)
		switch op := pick(10); {
		case op < 6:
			n := pick(2*geo.WSOpt + 1)
			if pick(4) == 0 {
				// Up to the chunk's end, so that appends fill chunks.
				n = max(spc-ci.WP-pick(geo.WSMin+1), 0)
			}
			data := make([]byte, n*sz)
			for s := 0; s < n; s++ {
				padSector(data[s*sz:(s+1)*sz], pick(4), i*64+s)
			}
			pad := (geo.WSMin - n%geo.WSMin) % geo.WSMin
			if pick(3) == 0 {
				pad += geo.WSMin * pick(3)
			}
			if pick(16) == 0 {
				pad++ // not a ws_min multiple: both twins must refuse
			}
			tw.appendPadded(now, id, data, pad)
		case op < 7:
			tw.pad(now, id)
		case op < 9:
			if ci.WP > 0 {
				from := pick(ci.WP)
				tw.read(now, id, from, 1+pick(ci.WP-from))
			}
		default:
			if ci.State == ChunkClosed {
				tw.reset(now, id)
			}
		}
	}
	return now
}

func (tw *padTwins) close() {
	tw.t.Helper()
	for _, d := range []*Device{tw.padded, tw.zeroed} {
		if err := d.Close(); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// TestAppendPaddedMatchesZeros runs one command sequence on twin devices,
// one appending pads as a count and one appending the same zeros as
// bytes: a scripted opening (a one-sector write padded to a unit, a WAL
// tail completed by Pad, a padded append that completes a stripe, one of
// pad alone, one that fills its chunk), then seeded commands of every
// shape, then every sector read from NAND; with write cache and without,
// with power-loss protection through a Crash, on the durable backend,
// and with power cut on a stripe program, protected and torn. Every
// instant, counter, chunk report entry and byte read must match.
func TestAppendPaddedMatchesZeros(t *testing.T) {
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
			sz := geo.Chip.SectorSize
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
			data := func(kinds ...int) []byte {
				b := make([]byte, len(kinds)*sz)
				for s, k := range kinds {
					padSector(b[s*sz:(s+1)*sz], k, s+1)
				}
				return b
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			// OX-Block's 4 KB write, read at once from the stripe buffer.
			a := ChunkID{0, 0, 1}
			must(tw.appendPadded(now, a, data(2), geo.WSMin-1))
			must(tw.read(now, a, 0, geo.WSMin))
			// A WAL sync: a record's sector and the unit's pad, then Pad.
			b := ChunkID{0, 1, 2}
			must(tw.appendPadded(now, b, data(1), geo.WSMin-1))
			must(tw.pad(now, b))
			must(tw.read(now, b, 0, geo.WSOpt))
			// A padded append completing a stripe whose head is buffered,
			// then pad alone (a WAL segment fill), then data that ends in
			// one stripe and pad that fills it and the whole next one.
			must(tw.appendPadded(now, a, data(2, 0, 2, 0, 2, 1, 0), geo.WSOpt-geo.WSMin-7))
			must(tw.appendPadded(now, a, nil, 2*geo.WSMin))
			must(tw.appendPadded(now, a, data(2, 2, 2, 2, 2, 2, 2, 2, 0, 2), 2*geo.WSOpt-geo.WSMin*2-10))
			// A whole stripe of data into an empty buffer (programmed from
			// the caller's slice when no backend is attached), then a
			// padded tail left in the buffer.
			g := ChunkID{1, 1, 2}
			whole := make([]int, geo.WSOpt+5)
			for s := range whole {
				if s%4 != 3 { // every fourth sector stays zero
					whole[s] = 2
				}
			}
			must(tw.appendPadded(now, g, data(whole...), 3))
			// Every sector so far, while part of it is still buffered.
			for _, id := range []ChunkID{a, g} {
				ci, _ := tw.padded.Chunk(id)
				must(tw.read(now, id, 0, ci.WP))
			}
			// An append that fills its chunk, its tail a pad.
			c := ChunkID{1, 0, 3}
			spc := geo.SectorsPerChunk()
			full := make([]int, spc-3)
			for s := range full {
				full[s] = s % 3 // zero, record and data sectors
			}
			must(tw.appendPadded(now, c, data(full...), 3))
			if ci, _ := tw.padded.Chunk(c); ci.State != ChunkClosed || ci.WP != spc {
				t.Fatalf("chunk filled by a padded append: %+v", ci)
			}
			// Sizes the device refuses, whichever way the pad comes.
			if err := tw.appendPadded(now, b, data(2), geo.WSMin); !errors.Is(err, ErrWriteSize) {
				t.Fatalf("append of a unit and a sector: %v", err)
			}
			if err := tw.appendPadded(now, b, nil, 0); !errors.Is(err, ErrWriteSize) {
				t.Fatalf("empty append: %v", err)
			}
			if _, _, err := tw.padded.AppendPadded(now, b, data(2)[:100], geo.WSMin-1); !errors.Is(err, ErrWriteSize) {
				t.Fatalf("append of a partial sector: %v", err)
			}
			if _, _, err := tw.padded.AppendPadded(now, b, data(2, 2, 2, 2, 2), -1); !errors.Is(err, ErrWriteSize) {
				t.Fatalf("append with a negative pad: %v", err)
			}
			tw.state("scripted")

			rng := rand.New(rand.NewSource(9))
			now = tw.padSequence(now, rng.Intn, 400)

			// Everything again, long after the write-back cache drained: NAND.
			now = now.Add(10 * vclock.Second)
			tw.readAll(now)

			// Power loss with partial stripes buffered in two more chunks
			// (on PUs whose other chunks the sequence may hold open).
			e, f := ChunkID{1, 1, 6}, ChunkID{0, 1, 6}
			must(tw.appendPadded(now, e, data(2), geo.WSMin-1))
			must(tw.appendPadded(now, f, data(1, 0), geo.WSMin-2))
			if tc.cut {
				// The cut lands on the program of the stripe this padded
				// append completes: with PLP the stripe is persisted whole,
				// torn only a prefix of it, and neither is acknowledged.
				for _, in := range injectors {
					in.PowerCut(1)
				}
				tail := data(2, 2, 1)
				pad := geo.WSOpt - geo.WSMin - len(tail)/sz
				if err := tw.appendPadded(now, e, tail, pad); !errors.Is(err, fault.ErrPowerCut) {
					t.Fatalf("append under a power cut: %v", err)
				}
				tw.model[e] = append(append(tw.model[e], tail...), make([]byte, pad*sz)...)
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
			// The backend files are byte-identical, and restore to
			// identical devices that read back what was persisted.
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

// FuzzAppendPaddedMatchesZeros drives the twins with commands decoded
// from the input: its first byte picks the write cache and power-loss
// protection, every later byte answers one choice of padSequence (0 once
// the input runs out). After the sequence, every sector is read from
// NAND, the twins lose power, and what survives is read again.
func FuzzAppendPaddedMatchesZeros(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 0, 0, 24, 0, 2, 1, 3, 0, 0, 1, 0, 4, 0, 9, 9, 2, 0, 5, 1})
	f.Add(bytes.Repeat([]byte{1, 0, 3, 0, 200, 2, 1, 0}, 16))
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
		now := tw.padSequence(0, pick, len(in)/4+1)
		now = now.Add(10 * vclock.Second)
		tw.readAll(now)
		tw.padded.Crash()
		tw.zeroed.Crash()
		tw.state("crash")
		tw.settle()
		tw.readAll(now.Add(10 * vclock.Second))
	})
}
