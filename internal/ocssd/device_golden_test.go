package ocssd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vclock"
)

// goldenHashes pins, per device configuration, the SHA-256 over
// everything one seeded command sequence can observe: every returned
// virtual instant, start sector and error, the final Stats, the chunk
// report, every read-back byte and (file-backed) the backend files. The
// values were computed at the commit before the zero-aware write path
// (pad as a length, whole stripes programmed from the caller's slice)
// and must never move: host-time work on the write path may not shift a
// virtual tick, a counter or a stored byte.
var goldenHashes = map[string]string{
	"mem":           "7cc8cfc4f2d65841113f982e4ed3439855e60ce276b4a083f2eb941d1d33dc9f",
	"mem-plp":       "fdbfc6c5e93ed91991bd71afbbbb4361e108c204f65a0e6cb47f046a6d725d0d",
	"mem-cache":     "18c01adf21f779ec9f10895b73d60d3b2d6a6a9c02f7d2fa6afc92d4b8ffbf4e",
	"mem-plp-cache": "183caf3ff25a119c8beccaa81b66a61c519c6ffd6a0c6a21473fa55871bd5735",
	"file-plp":      "628a03f91d4d279be507036881a7577d068af8a26751b37c73399c262837ac82",
}

func TestGoldenCommandSequence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		plp, cache bool
		file       bool
	}{
		{name: "mem"},
		{name: "mem-plp", plp: true},
		{name: "mem-cache", cache: true},
		{name: "mem-plp-cache", plp: true, cache: true},
		{name: "file-plp", plp: true, cache: true, file: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := smallGeo()
			if !tc.cache {
				geo.CacheMB = 0
			}
			opts := Options{Seed: 11, PowerLossProtected: tc.plp}
			if tc.file {
				opts.BackendPath = filepath.Join(t.TempDir(), "dev.img")
			}
			h := sha256.New()
			d := newDev(t, geo, opts)
			goldenSequence(h, d, 20260917, 2500)
			goldenFinalState(h, d)
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if tc.file {
				for _, p := range []string{opts.BackendPath, LogPath(opts.BackendPath)} {
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatalf("read backend: %v", err)
					}
					fmt.Fprintf(h, "file %d %x\n", len(raw), sha256.Sum256(raw))
				}
				d2, err := OpenDevice(geo, opts)
				if err != nil {
					t.Fatalf("OpenDevice: %v", err)
				}
				goldenFinalState(h, d2)
				d2.Close()
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != goldenHashes[tc.name] {
				t.Fatalf("golden hash moved:\n got  %s\n want %s", got, goldenHashes[tc.name])
			}
		})
	}
}

// goldenSequence runs ops seeded commands of mixed kind and size against
// d, folding every result into h. Commands that the device rejects
// (full chunk, open limit, reset of a free chunk) stay in the sequence:
// their errors are part of the pinned behaviour.
func goldenSequence(h hash.Hash, d *Device, seed int64, ops int) {
	geo := d.Geometry()
	sz := geo.Chip.SectorSize
	spc := geo.SectorsPerChunk()
	rng := rand.New(rand.NewSource(seed))
	now := vclock.Time(0)

	pick := func() ChunkID {
		return ChunkID{rng.Intn(geo.Groups), rng.Intn(geo.PUsPerGroup), rng.Intn(6)}
	}
	// prefer retries pick a few times for a chunk in a wanted state, so
	// most commands do work; the last pick stands whatever its state.
	prefer := func(want func(ChunkInfo) bool) ChunkID {
		id := pick()
		for tries := 0; tries < 3; tries++ {
			if ci, _ := d.Chunk(id); want(ci) {
				break
			}
			id = pick()
		}
		return id
	}
	writable := func(ci ChunkInfo) bool {
		return (ci.State == ChunkFree || ci.State == ChunkOpen) && ci.WP < spc
	}
	resettable := func(ci ChunkInfo) bool {
		return ci.State == ChunkClosed || ci.WP == spc
	}
	// payload draws n sectors; one page in eight is all zeros so the
	// NAND zero-page dedup sees host-written zeros as well as pads.
	payload := func(n int) []byte {
		b := make([]byte, n*sz)
		x := rng.Uint64()
		for i := 0; i < len(b); i += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(b[i:], x)
		}
		for p := 0; p+geo.WSMin <= n; p += geo.WSMin {
			if rng.Intn(8) == 0 {
				clear(b[p*sz : (p+geo.WSMin)*sz])
			}
		}
		return b
	}
	// units picks a write size in ws_min units: sub-stripe runs, exact
	// stripes, stripe-plus-tail and multi-stripe runs.
	sizes := []int{1, 1, 2, 3, 5, 6, 6, 7, 12, 13}
	units := func(id ChunkID) int {
		n := sizes[rng.Intn(len(sizes))]
		if ci, _ := d.Chunk(id); rng.Intn(10) != 0 && ci.WP < spc {
			if room := (spc - ci.WP) / geo.WSMin; n > room {
				n = room
			}
		}
		return n
	}
	written := func() []PPA {
		var out []PPA
		for tries := 0; tries < 8 && len(out) == 0; tries++ {
			id := pick()
			ci, _ := d.Chunk(id)
			if ci.State == ChunkOffline || ci.WP == 0 {
				continue
			}
			n := 1 + rng.Intn(30)
			start := rng.Intn(ci.WP)
			for s := start; s < ci.WP && len(out) < n; s++ {
				out = append(out, id.PPAOf(s))
			}
		}
		return out
	}

	for i := 0; i < ops; i++ {
		now = now.Add(vclock.Duration(rng.Intn(300)) * vclock.Microsecond)
		switch r := rng.Intn(100); {
		case r < 35:
			id := prefer(writable)
			start, end, err := d.Append(now, id, payload(units(id)*geo.WSMin))
			fmt.Fprintf(h, "append %v %d %d %v\n", id, start, end, err)
		case r < 50:
			a, b := prefer(writable), prefer(writable)
			ca, _ := d.Chunk(a)
			ppas := seqPPAs(a, ca.WP, min(units(a)*geo.WSMin, spc-ca.WP))
			if cb, _ := d.Chunk(b); b != a && rng.Intn(2) == 0 {
				ppas = append(ppas, seqPPAs(b, cb.WP, min(units(b)*geo.WSMin, spc-cb.WP))...)
			}
			end, err := d.VectorWrite(now, ppas, payload(len(ppas)))
			fmt.Fprintf(h, "vwrite %v %d %v\n", a, end, err)
		case r < 65:
			id := pick()
			end, err := d.Pad(now, id)
			fmt.Fprintf(h, "pad %v %d %v\n", id, end, err)
		case r < 85:
			ppas := written()
			dst := make([]byte, len(ppas)*sz)
			end, err := d.VectorRead(now, ppas, dst)
			fmt.Fprintf(h, "vread %d %d %v %x\n", len(ppas), end, err, sha256.Sum256(dst))
		case r < 90:
			src := written()
			src = src[:len(src)-len(src)%geo.WSMin]
			dst := prefer(writable)
			start, end, err := d.Copy(now, src, dst)
			fmt.Fprintf(h, "copy %d %v %d %d %v\n", len(src), dst, start, end, err)
		case r < 98:
			id := prefer(resettable)
			end, err := d.Reset(now, id)
			fmt.Fprintf(h, "reset %v %d %v\n", id, end, err)
		default:
			d.Crash()
			fmt.Fprintf(h, "crash\n")
		}
		if rng.Intn(4) == 0 {
			// Sometimes the next command is issued only when the previous
			// ones could have completed, sometimes it overlaps them.
			now = now.Add(2 * vclock.Millisecond)
		}
	}
}

// goldenFinalState folds the counters, the chunk report and every
// readable byte of the device into h.
func goldenFinalState(h hash.Hash, d *Device) {
	geo := d.Geometry()
	fmt.Fprintf(h, "stats %+v\n", d.Stats())
	for _, ci := range d.Report() {
		fmt.Fprintf(h, "chunk %+v\n", ci)
		if ci.State == ChunkOffline || ci.WP == 0 {
			continue
		}
		dst := make([]byte, ci.WP*geo.Chip.SectorSize)
		end, err := d.VectorRead(vclock.Time(vclock.Second), seqPPAs(ci.ID, 0, ci.WP), dst)
		fmt.Fprintf(h, "readback %d %v %x\n", end, err, sha256.Sum256(dst))
	}
	fmt.Fprintf(h, "stats %+v\n", d.Stats())
}
