package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fault"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/oxeleos"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// CrashstormConfig parameterizes the crash-recovery storm: every FTL
// that owns recovery machinery (OX-Block, OX-ELEOS, LightLSM, OX-ZNS)
// runs on a file-backed device, is killed mid-write-burst by a power
// cut at a deterministically varying media-op count, reopened from the
// backend, and replays its recovery path; a host-side oracle then
// verifies that no acknowledged write was lost and nothing deleted was
// resurrected with wrong content. Recovery cost is virtual time, so
// the whole table is bit-identical run to run and sits in the CI
// determinism diff next to the figure tables.
type CrashstormConfig struct {
	// Cycles is the number of kill/recover cycles per FTL.
	Cycles int
	Seed   int64
	// Dir holds the backend files; empty uses a private temp directory
	// removed afterwards.
	Dir string
	// Executor/Workers select the host engine for the OX-Block storm
	// (the one storm driven through queue pairs).
	Executor hostif.ExecutorKind
	Workers  int
}

// DefaultCrashstorm returns the default configuration: 50 cycles per
// FTL, the acceptance floor.
func DefaultCrashstorm() CrashstormConfig {
	return CrashstormConfig{Cycles: 50, Seed: 9}
}

// CrashstormPoint is one FTL's row of the storm.
type CrashstormPoint struct {
	FTL        string
	Cycles     int
	Cuts       int     // power cuts fired (== Cycles)
	Acked      int64   // acknowledged operations (writes/flushes/commits/appends)
	Verified   int64   // pages/blocks read back and content-checked after recovery
	ReplaySegs int64   // WAL segments replayed across all recoveries
	ReplayRecs int64   // WAL records replayed across all recoveries
	RecoveryMs float64 // total virtual recovery time across all recoveries
	GrownBad   int64   // chunks the device retired (injected + wear)
}

// Crashstorm runs the storm on all four FTLs.
func Crashstorm(cfg CrashstormConfig) ([]CrashstormPoint, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = DefaultCrashstorm().Cycles
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "crashstorm")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	var out []CrashstormPoint
	for _, storm := range []struct {
		name string
		run  func(CrashstormConfig, string) (CrashstormPoint, error)
	}{
		{"oxblock", crashstormBlock},
		{"oxeleos", crashstormEleos},
		{"lightlsm", crashstormLSM},
		{"oxzns", crashstormZNS},
	} {
		p, err := storm.run(cfg, dir)
		if err != nil {
			return out, fmt.Errorf("crashstorm %s: %w", storm.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// CrashstormTable renders the storm rows.
func CrashstormTable(points []CrashstormPoint) *Table {
	t := &Table{
		Title: "Crashstorm: power-cut kill/recover cycles per FTL (zero lost acked writes)",
		Headers: []string{"ftl", "cycles", "cuts", "acked", "verified",
			"replay_segs", "replay_recs", "recovery_virt_ms", "grown_bad"},
	}
	for _, p := range points {
		t.Add(p.FTL, p.Cycles, p.Cuts, p.Acked, p.Verified,
			p.ReplaySegs, p.ReplayRecs, p.RecoveryMs, p.GrownBad)
	}
	return t
}

// stormRig is the small durable testbed every storm starts from: 2
// groups × 2 PUs keeps restore-at-reopen cheap enough for 50 cycles,
// and 384 small chunks leave headroom for the chunks each incarnation
// strands (WAL segments of old epochs, half-written data chunks) —
// they hold recovered state and never return to the allocator pool.
func stormRig(seed int64) RigConfig {
	return RigConfig{
		Groups:        2,
		PUsPerGroup:   2,
		ChunksPerPU:   96,
		PagesPerBlock: 12, // 384 KB chunks
		CacheMB:       8,
		Seed:          seed,
		PLP:           true,
	}
}

// stormCut varies the power-cut point cycle to cycle so kills land in
// every phase of a burst: mid data stripe, mid WAL sync, mid pad.
func stormCut(cycle int) int64 {
	return int64(3 + (cycle*13)%29)
}

func sortedLPNs(m map[int64]byte) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// crashstormBlock storms OX-Block through the host interface: the
// write burst is queue-pair commands, the cut surfaces as a
// power-loss completion status, and every reopened incarnation
// recovers from checkpoint + log before the oracle re-reads all
// acknowledged transactions.
func crashstormBlock(cfg CrashstormConfig, dir string) (CrashstormPoint, error) {
	rc := stormRig(cfg.Seed)
	rc.BackendPath = filepath.Join(dir, "oxblock.img")
	const wpages = 8 // one 32 KB transaction
	const logicalPages = 2048
	p := CrashstormPoint{FTL: "oxblock", Cycles: cfg.Cycles}
	oracle := make(map[int64]byte) // transaction base LPN -> payload fill
	// pending holds the fill of the one write each cut interrupts: its
	// commit record may have reached the backend through the PLP flush
	// even though the host saw a power-loss completion, so after
	// recovery that LPN legally reads as either generation. The oracle
	// resolves to whichever the device kept.
	pending := make(map[int64]byte)
	rng := rand.New(rand.NewSource(cfg.Seed))
	payload := make([]byte, wpages*4096)

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		inj := fault.New(fault.Config{Seed: cfg.Seed + int64(cycle)})
		rc.Faults = inj
		var dev *ocssd.Device
		var ctrl *ox.Controller
		var err error
		if cycle == 0 {
			dev, ctrl, err = rc.Build()
		} else {
			dev, ctrl, err = rc.Reopen()
		}
		if err != nil {
			return p, err
		}
		d, rep, now, err := oxblock.New(ctrl, oxblock.Config{
			LogicalPages:       logicalPages,
			StripeWidth:        1, // one stranded data chunk per incarnation
			CheckpointInterval: 20 * vclock.Millisecond,
		}, 0)
		if err != nil {
			return p, fmt.Errorf("cycle %d: recover: %w", cycle, err)
		}
		if rep != nil {
			p.ReplaySegs += int64(rep.ReplayedSegments)
			p.ReplayRecs += int64(rep.ReplayedRecords)
			p.RecoveryMs += float64(rep.Duration) / float64(vclock.Millisecond)
		}
		host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{}, cfg.Executor, cfg.Workers))
		admin := host.Admin()
		nsid, err := admin.AttachNamespace(now, hostif.NewBlockNamespace(d))
		if err != nil {
			return p, err
		}
		qp, err := admin.CreateIOQueuePair(now, 1, hostif.ClassMedium)
		if err != nil {
			return p, err
		}

		// Oracle check: every acknowledged transaction reads back.
		for _, base := range sortedLPNs(oracle) {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, nsid, base, wpages
			if err := qp.Push(now, cmd); err != nil {
				return p, err
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				return p, fmt.Errorf("cycle %d: lost acked txn at lpn %d: %w", cycle, base, comp.Err)
			}
			want := oracle[base]
			if alt, ok := pending[base]; ok && len(comp.Data) > 0 && comp.Data[0] == alt {
				want = alt // the cut write's commit record survived
			}
			for i, b := range comp.Data {
				if b != want {
					return p, fmt.Errorf("cycle %d: lpn %d byte %d = %#x, want %#x",
						cycle, base, i, b, want)
				}
			}
			oracle[base] = want
			now = comp.Done
			p.Verified += wpages
		}
		// The cut ambiguity is settled once one recovery has run.
		pending = make(map[int64]byte)

		// Write burst until the armed cut kills the device. Cycle 0
		// first lays down a few unarmed transactions so there is always
		// a log to recover.
		burst := func(armed bool) error {
			for i := 0; ; i++ {
				if armed && i > 400 {
					return errors.New("power cut never fired")
				}
				base := rng.Int63n(logicalPages/wpages) * wpages
				fill := byte(cycle*31+i*7) | 1
				for j := range payload {
					payload[j] = fill
				}
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.LPN = hostif.OpWrite, nsid, base
				cmd.Data = payload
				if err := qp.Push(now, cmd); err != nil {
					return err
				}
				comp := qp.MustReap()
				if comp.Err != nil {
					if comp.Status != hostif.StatusPowerLoss {
						return fmt.Errorf("write failed with status %v: %w", comp.Status, comp.Err)
					}
					pending[base] = fill
					p.Cuts++
					return nil
				}
				now = comp.Done
				oracle[base] = fill
				p.Acked++
				if !armed && i >= 3 {
					return nil
				}
			}
		}
		if cycle == 0 {
			if err := burst(false); err != nil {
				return p, err
			}
		}
		inj.PowerCut(stormCut(cycle))
		if err := burst(true); err != nil {
			return p, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		p.GrownBad = dev.FaultLog().GrownBadChunks
		host.Close()
		dev.Close()
	}
	return p, nil
}

// crashstormEleos storms OX-ELEOS: flush bursts of variable pages,
// occasional deletes, recovery by full log replay. A flush interrupted
// by the cut may or may not have reached durability (the PLP flush can
// persist its WAL record); the oracle accepts either generation and
// resolves to what the device actually kept. A delete is logged
// lazily, so until a later acknowledged flush syncs the log the oracle
// accepts the page resurfacing with its old content.
func crashstormEleos(cfg CrashstormConfig, dir string) (CrashstormPoint, error) {
	rc := stormRig(cfg.Seed + 100)
	rc.BackendPath = filepath.Join(dir, "oxeleos.img")
	ecfg := oxeleos.Config{BufferBytes: 1 << 20, StripeWidth: 1}
	const pageBytes = 4096
	const idSpace = 48
	p := CrashstormPoint{FTL: "oxeleos", Cycles: cfg.Cycles}

	oracle := make(map[int64]int)  // id -> acked generation, -1 deleted
	pending := make(map[int64]int) // id -> generation of a cut flush
	// pendingDel holds the prior generation of ids whose delete is not
	// yet known durable (no acked flush since).
	pendingDel := make(map[int64]int)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	content := func(id int64, gen int) []byte {
		b := make([]byte, pageBytes)
		for j := range b {
			b[j] = byte(int(id)*11 + gen*101 + j)
		}
		return b
	}
	sortedIDs := func() []int64 {
		out := make([]int64, 0, len(oracle))
		for id := range oracle {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	gen := 1
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		inj := fault.New(fault.Config{Seed: cfg.Seed + 200 + int64(cycle)})
		rc.Faults = inj
		var dev *ocssd.Device
		var ctrl *ox.Controller
		var err error
		var s *oxeleos.Store
		if cycle == 0 {
			if dev, ctrl, err = rc.Build(); err != nil {
				return p, err
			}
			if s, err = oxeleos.New(ctrl, ecfg); err != nil {
				return p, err
			}
		} else {
			if dev, ctrl, err = rc.Reopen(); err != nil {
				return p, err
			}
			var rep *oxeleos.RecoveryReport
			if s, rep, err = oxeleos.Recover(0, ctrl, ecfg); err != nil {
				return p, fmt.Errorf("cycle %d: recover: %w", cycle, err)
			}
			p.ReplaySegs += int64(rep.ReplayedSegments)
			p.ReplayRecs += int64(rep.ReplayedRecords)
			p.RecoveryMs += float64(rep.End) / float64(vclock.Millisecond)
		}
		now := vclock.Time(0)

		// Oracle check.
		for _, id := range sortedIDs() {
			want := oracle[id]
			got, end, err := s.ReadPage(now, id)
			switch {
			case want < 0 && err != nil:
				if !errors.Is(err, oxeleos.ErrNotFound) {
					return p, fmt.Errorf("cycle %d: page %d: %w", cycle, id, err)
				}
				delete(pendingDel, id)
			case want < 0 && err == nil:
				// Delete not yet durable: only its old content may appear.
				old, has := pendingDel[id]
				if !has || !bytes.Equal(got, content(id, old)) {
					return p, fmt.Errorf("cycle %d: deleted page %d resurrected with wrong content", cycle, id)
				}
				oracle[id] = old
				now = end
				p.Verified++
			case err != nil:
				return p, fmt.Errorf("cycle %d: lost acked page %d: %w", cycle, id, err)
			default:
				ok := bytes.Equal(got, content(id, want))
				if pg, has := pending[id]; has && !ok && bytes.Equal(got, content(id, pg)) {
					oracle[id] = pg
					ok = true
				}
				if !ok {
					return p, fmt.Errorf("cycle %d: page %d content mismatch", cycle, id)
				}
				now = end
				p.Verified++
			}
			delete(pending, id)
		}

		// Flush burst until the cut; one delete per cycle keeps the
		// trim replay path hot.
		if len(oracle) > 4 && cycle%2 == 1 {
			victim := sortedIDs()[cycle%len(oracle)]
			if oracle[victim] >= 0 {
				if end, err := s.Delete(now, victim); err == nil {
					pendingDel[victim] = oracle[victim]
					oracle[victim] = -1
					now = end
				} else if !errors.Is(err, oxeleos.ErrNotFound) {
					return p, fmt.Errorf("cycle %d: delete %d: %w", cycle, victim, err)
				}
			}
		}
		inj.PowerCut(stormCut(cycle))
		for i := 0; ; i++ {
			if i > 400 {
				return p, fmt.Errorf("cycle %d: power cut never fired", cycle)
			}
			gen++
			ids := []int64{rng.Int63n(idSpace), rng.Int63n(idSpace)}
			if ids[1] == ids[0] {
				ids[1] = (ids[0] + 1) % idSpace
			}
			buf := make([]byte, 0, len(ids)*pageBytes)
			var descs []oxeleos.PageDesc
			for k, id := range ids {
				buf = append(buf, content(id, gen)...)
				descs = append(descs, oxeleos.PageDesc{ID: id, Offset: k * pageBytes, Length: pageBytes})
			}
			end, err := s.Flush(now, buf, descs)
			if err != nil {
				if !errors.Is(err, fault.ErrPowerCut) {
					return p, fmt.Errorf("cycle %d: flush: %w", cycle, err)
				}
				for _, id := range ids {
					pending[id] = gen
				}
				p.Cuts++
				break
			}
			now = end
			for _, id := range ids {
				oracle[id] = gen
				delete(pending, id)
			}
			// An acked sync flush also made every earlier delete durable.
			for id := range pendingDel {
				delete(pendingDel, id)
			}
			p.Acked++
		}
		p.GrownBad = dev.FaultLog().GrownBadChunks
		dev.Close()
	}
	return p, nil
}

// crashstormLSM storms LightLSM: SSTable commit bursts, rolling
// deletes, recovery by metadata-log replay. A commit interrupted by
// the cut may still be durable (the PLP flush can persist its record);
// such tables are verified if present. Deleted tables may resurrect
// when the lazily-logged trim was lost, but only with intact content —
// Recover prunes half-deleted and chunk-conflicted tables.
func crashstormLSM(cfg CrashstormConfig, dir string) (CrashstormPoint, error) {
	rc := stormRig(cfg.Seed + 300)
	rc.BackendPath = filepath.Join(dir, "lightlsm.img")
	lcfg := lightlsm.Config{TableChunks: 2}
	const tableBlocks = 3
	const maxLive = 6
	p := CrashstormPoint{FTL: "lightlsm", Cycles: cfg.Cycles}

	type entry struct {
		h    lsm.TableHandle
		fill byte
	}
	var live []entry     // committed and acknowledged tables, commit order
	var maybeDel []entry // deleted, trim record possibly not yet durable

	verifyTable := func(e *lightlsm.Env, now *vclock.Time, en entry, dst []byte) error {
		for b := 0; b < en.h.Blocks; b++ {
			end, err := e.ReadBlock(*now, en.h, b, dst)
			if err != nil {
				return fmt.Errorf("table %d block %d: %w", en.h.ID, b, err)
			}
			*now = end
			fill := en.fill + byte(b)
			for j, got := range dst {
				if got != fill {
					return fmt.Errorf("table %d block %d byte %d = %#x, want %#x",
						en.h.ID, b, j, got, fill)
				}
			}
			p.Verified++
		}
		return nil
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		inj := fault.New(fault.Config{Seed: cfg.Seed + 400 + int64(cycle)})
		rc.Faults = inj
		var dev *ocssd.Device
		var ctrl *ox.Controller
		var err error
		var e *lightlsm.Env
		if cycle == 0 {
			if dev, ctrl, err = rc.Build(); err != nil {
				return p, err
			}
			if e, err = lightlsm.New(ctrl, lcfg); err != nil {
				return p, err
			}
		} else {
			if dev, ctrl, err = rc.Reopen(); err != nil {
				return p, err
			}
			var rep *lightlsm.RecoveryReport
			if e, rep, err = lightlsm.Recover(0, ctrl, lcfg); err != nil {
				return p, fmt.Errorf("cycle %d: recover: %w", cycle, err)
			}
			p.ReplaySegs += int64(rep.ReplayedSegments)
			p.ReplayRecs += int64(rep.ReplayedRecords)
			p.RecoveryMs += float64(rep.End) / float64(vclock.Millisecond)
		}
		now := vclock.Time(0)
		dst := make([]byte, e.BlockSize())

		// Every acknowledged commit must read back intact.
		for _, en := range live {
			if err := verifyTable(e, &now, en, dst); err != nil {
				return p, fmt.Errorf("cycle %d: lost committed table: %w", cycle, err)
			}
		}
		// A lazily-logged delete may have been lost: the table may
		// resurrect, but only with intact content; re-delete it.
		for _, en := range maybeDel {
			if _, ok := e.TableChunks(en.h.ID); !ok {
				continue
			}
			if err := verifyTable(e, &now, en, dst); err != nil {
				return p, fmt.Errorf("cycle %d: resurrected table corrupt: %w", cycle, err)
			}
			if now, err = e.DeleteTable(now, en.h); err != nil {
				return p, fmt.Errorf("cycle %d: re-delete %d: %w", cycle, en.h.ID, err)
			}
		}
		// Roll the window before arming: deletes stay un-armed so a
		// mid-delete cut cannot half-reset a verified table.
		for len(live) > maxLive {
			en := live[0]
			live = live[1:]
			if now, err = e.DeleteTable(now, en.h); err != nil {
				return p, fmt.Errorf("cycle %d: delete %d: %w", cycle, en.h.ID, err)
			}
			maybeDel = append(maybeDel, en)
		}

		// Commit burst until the cut fires.
		inj.PowerCut(stormCut(cycle))
		for i := 0; ; i++ {
			if i > 400 {
				return p, fmt.Errorf("cycle %d: power cut never fired", cycle)
			}
			fill := byte(cycle*17+i*5) | 1
			w, err := e.CreateTable(now)
			if err != nil {
				return p, fmt.Errorf("cycle %d: create: %w", cycle, err)
			}
			cut := false
			for b := 0; b < tableBlocks && !cut; b++ {
				for j := range dst {
					dst[j] = fill + byte(b)
				}
				end, err := w.Append(now, dst)
				if err != nil {
					if !errors.Is(err, fault.ErrPowerCut) {
						return p, fmt.Errorf("cycle %d: append: %w", cycle, err)
					}
					cut = true
					break
				}
				now = end
			}
			if cut {
				p.Cuts++
				break
			}
			h, end, err := w.Commit(now)
			if err != nil {
				if !errors.Is(err, fault.ErrPowerCut) {
					return p, fmt.Errorf("cycle %d: commit: %w", cycle, err)
				}
				// The commit record may still have reached durability
				// via the PLP flush, but no handle was returned, so
				// the table is unaddressable garbage: it stays out of
				// the oracle and its chunks stay stranded — the sizing
				// headroom of stormRig absorbs them.
				p.Cuts++
				break
			}
			now = end
			live = append(live, entry{h: h, fill: fill})
			p.Acked++
			// This durable sync also made every earlier trim durable.
			maybeDel = maybeDel[:0]
		}
		p.GrownBad = dev.FaultLog().GrownBadChunks
		dev.Close()
	}
	return p, nil
}

// crashstormZNS storms OX-ZNS on a non-PLP device with torn writes
// enabled: zone appends are whole write-units, so an acknowledged
// append is durable by the data-before-record ordering of the backend,
// while a cut mid-program persists only a stripe prefix that the
// restored write pointer excludes. Zone state is rebuilt from chunk
// metadata alone — no log, no replay.
func crashstormZNS(cfg CrashstormConfig, dir string) (CrashstormPoint, error) {
	rc := stormRig(cfg.Seed + 500)
	rc.PLP = false
	rc.BackendPath = filepath.Join(dir, "oxzns.img")
	p := CrashstormPoint{FTL: "oxzns", Cycles: cfg.Cycles}

	var oracle [][]byte // per zone: fill byte of each acked block
	pendingReset := make(map[int]bool)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		inj := fault.New(fault.Config{Seed: cfg.Seed + 600 + int64(cycle), TornWrites: true})
		rc.Faults = inj
		var dev *ocssd.Device
		var ctrl *ox.Controller
		var err error
		if cycle == 0 {
			dev, ctrl, err = rc.Build()
		} else {
			dev, ctrl, err = rc.Reopen()
		}
		if err != nil {
			return p, err
		}
		t, err := zns.New(ctrl, zns.Config{})
		if err != nil {
			return p, fmt.Errorf("cycle %d: rebuild: %w", cycle, err)
		}
		if oracle == nil {
			oracle = make([][]byte, t.Zones())
		}
		blockBytes := int64(t.BlockSize())
		blocksPerZone := int(t.ZoneCapacity() / blockBytes)
		now := vclock.Time(0)

		// Oracle check: restored write pointers exclude torn stripes
		// and cover exactly the acknowledged appends.
		for z := 0; z < t.Zones(); z++ {
			if pendingReset[z] {
				// The cut hit mid-reset: state is indeterminate, so
				// finish the reset and restart the zone's history.
				if now, err = t.Reset(now, z); err != nil {
					return p, fmt.Errorf("cycle %d: re-reset zone %d: %w", cycle, z, err)
				}
				delete(pendingReset, z)
				oracle[z] = nil
				continue
			}
			info, err := t.Zone(z)
			if err != nil {
				return p, err
			}
			want := int64(len(oracle[z])) * blockBytes
			if info.WP != want {
				return p, fmt.Errorf("cycle %d: zone %d wp = %d, want %d (acked blocks %d)",
					cycle, z, info.WP, want, len(oracle[z]))
			}
			for b, fill := range oracle[z] {
				data, end, err := t.Read(now, z, int64(b)*blockBytes, blockBytes)
				if err != nil {
					return p, fmt.Errorf("cycle %d: zone %d block %d: %w", cycle, z, b, err)
				}
				now = end
				for j, got := range data {
					if got != fill {
						return p, fmt.Errorf("cycle %d: zone %d block %d byte %d = %#x, want %#x",
							cycle, z, b, j, got, fill)
					}
				}
				p.Verified++
			}
		}

		// Append burst until the cut fires. The burst works a bounded
		// set of zones: every partially filled zone holds its chunk
		// open across incarnations, and an unbounded working set would
		// eventually trip the device's open-chunks-per-PU limit.
		const zoneSpan = 32
		span := zoneSpan
		if span > t.Zones() {
			span = t.Zones()
		}
		inj.PowerCut(stormCut(cycle))
		block := make([]byte, blockBytes)
		cut := false
		for i := 0; !cut; i++ {
			if i > 400 {
				return p, fmt.Errorf("cycle %d: power cut never fired", cycle)
			}
			z := rng.Intn(span)
			if len(oracle[z]) >= blocksPerZone {
				end, err := t.Reset(now, z)
				if err != nil {
					if !errors.Is(err, fault.ErrPowerCut) {
						return p, fmt.Errorf("cycle %d: reset zone %d: %w", cycle, z, err)
					}
					pendingReset[z] = true
					p.Cuts++
					cut = true
					break
				}
				now = end
				oracle[z] = nil
			}
			fill := byte(cycle*7+i*3) | 1
			for j := range block {
				block[j] = fill
			}
			_, end, err := t.Append(now, z, block)
			if err != nil {
				if !errors.Is(err, fault.ErrPowerCut) {
					return p, fmt.Errorf("cycle %d: append zone %d: %w", cycle, z, err)
				}
				p.Cuts++
				cut = true
				break
			}
			now = end
			oracle[z] = append(oracle[z], fill)
			p.Acked++
		}
		p.GrownBad = dev.FaultLog().GrownBadChunks
		dev.Close()
	}
	return p, nil
}
