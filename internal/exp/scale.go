package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/hostif"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// ScaleConfig parameterizes the executor scaling scenario — the paper's
// §2.2 argument ("parallel units never interfere") driven end to end
// through the host interface: an OX-ZNS namespace on a cache-less rig,
// one queue pair per group appending closed-loop into zones of its own
// group. Under the serial executor every append executes under the
// host's single sequencer; the batched executor (the engine) gathers a
// batch of grants per arbitration acquisition and overlaps the
// disjoint-group appends on a worker pool. Virtual-time results are
// bit-identical across both by the determinism contract (the run
// verifies this and fails otherwise); what the sweep measures is
// wall-clock — how much of the simulated device's parallelism the
// simulator itself can exploit — plus the arbitration-acquisition and
// metadata footprint costs of scale.
type ScaleConfig struct {
	// PUCounts sweeps the device size. Up to 64 PUs each point is a rig
	// of single-PU groups; beyond 64 the rig keeps 64 groups and deepens
	// them (the host's footprint group mask is 64 bits wide, so 512 PUs
	// is 64 groups × 8 PUs). Counts above 64 must be multiples of 64.
	PUCounts []int
	// Workers sweeps the engine's pool size, one engine row per entry.
	// Serial reference rows are always included.
	Workers []int
	// AppendsPerPU is the closed-loop command count per parallel unit.
	AppendsPerPU int
	// MaxOps caps one run's total appends so terabyte-scale points stay
	// bounded: effective appends per PU = min(AppendsPerPU, MaxOps/PUs),
	// floored at 1. Zero means no cap. The cap is part of the workload
	// definition, so the serial/engine equivalence check
	// always compares identical schedules.
	MaxOps int
	// AppendBlocks sizes each zone append in device write units.
	AppendBlocks int
	Seed         int64
}

// DefaultScale returns the default sweep, up to a 512-PU geometry.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		PUCounts:     []int{1, 2, 4, 8, 64, 512},
		Workers:      []int{1, 2, 4},
		AppendsPerPU: 256,
		MaxOps:       16384,
		AppendBlocks: 2,
		Seed:         13,
	}
}

// ScalePoint is one row of the sweep.
type ScalePoint struct {
	PUs      int
	Executor hostif.ExecutorKind
	Workers  int
	Ops      int
	// Elapsed is the virtual completion instant of the last append —
	// identical across executors at equal PU count.
	Elapsed vclock.Duration
	// VirtMBps is ingest throughput in virtual time.
	VirtMBps float64
	// Wall is the measured wall-clock time of the run.
	Wall time.Duration
	// Grants/Acquisitions/Overlapped/MaxInflight echo the executor log
	// page; AcqPerGrant is Acquisitions/Grants — how often the sequencer
	// had to take the arbitration lock per command it granted (1.0
	// serial, down to 1/16 for the engine under deep backlogs).
	Grants       int64
	Acquisitions int64
	AcqPerGrant  float64
	Overlapped   int64
	MaxInflight  int
	// MetaBytesPerChunk is the device's resident per-chunk metadata
	// footprint (controller chunk records + buffer-slot bookkeeping)
	// divided by total chunks.
	MetaBytesPerChunk float64
	// Speedup is serial wall-clock over this row's wall-clock at the
	// same PU count (1.0 for the serial row itself).
	Speedup float64
}

// Scale runs the sweep: for each PU count, a serial reference run and
// one engine run per worker count. It returns an error if any engine
// run's completion stream diverges from the serial reference in any
// completion's queue, slot, submit or done instant or status — the
// determinism contract, enforced on every invocation.
func Scale(cfg ScaleConfig) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, pus := range cfg.PUCounts {
		serial, want, err := scaleRun(cfg, pus, hostif.ExecutorSerial, 0)
		if err != nil {
			return out, fmt.Errorf("scale %d PUs serial: %w", pus, err)
		}
		serial.Speedup = 1
		out = append(out, serial)
		for _, workers := range cfg.Workers {
			p, got, err := scaleRun(cfg, pus, hostif.ExecutorBatched, workers)
			if err != nil {
				return out, fmt.Errorf("scale %d PUs %d workers: %w", pus, workers, err)
			}
			if got != want {
				return out, fmt.Errorf("scale %d PUs %d workers: completion digest %016x diverged from serial %016x",
					pus, workers, got, want)
			}
			if p.Wall > 0 {
				p.Speedup = float64(serial.Wall) / float64(p.Wall)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// scaleRig builds a cache-less device with pus parallel units: single-PU
// groups up to 64 PUs (group == PU, maximum isolation), 64 ever-deeper
// groups beyond (the footprint group mask is 64 bits wide).
func scaleRig(cfg ScaleConfig, pus int) RigConfig {
	rc := DefaultRig()
	groups := pus
	if groups > 64 {
		groups = 64
	}
	rc.Groups = groups
	rc.PUsPerGroup = pus / groups
	rc.ChunksPerPU = 32
	rc.CacheMB = 0 // cache admission is device-global; without it,
	// disjoint-PU writes commute and may overlap
	rc.Seed = cfg.Seed
	return rc
}

// scaleOps reports the effective appends per PU after the MaxOps cap.
func scaleOps(cfg ScaleConfig, pus int) int {
	per := cfg.AppendsPerPU
	if cfg.MaxOps > 0 && per*pus > cfg.MaxOps {
		per = cfg.MaxOps / pus
		if per < 1 {
			per = 1
		}
	}
	return per
}

// scaleRun runs one sweep point and returns it with a digest of every
// reaped completion (queue, slot, submit and done instants, status) in
// reap order.
func scaleRun(cfg ScaleConfig, pus int, ex hostif.ExecutorKind, workers int) (ScalePoint, uint64, error) {
	if pus > 64 && pus%64 != 0 {
		return ScalePoint{}, 0, fmt.Errorf("scale: %d PUs not a multiple of 64", pus)
	}
	rig := scaleRig(cfg, pus)
	dev, ctrl, err := rig.Build()
	if err != nil {
		return ScalePoint{}, 0, err
	}
	tgt, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		return ScalePoint{}, 0, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{Executor: ex, Workers: workers})
	defer host.Close() // one host per sweep point: release its workers
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(0, hostif.NewZoneNamespace(tgt))
	if err != nil {
		return ScalePoint{}, 0, err
	}
	report, err := admin.ZoneReport(0, nsid)
	if err != nil {
		return ScalePoint{}, 0, err
	}
	id, err := admin.IdentifyNamespace(0, nsid)
	if err != nil {
		return ScalePoint{}, 0, err
	}

	// One actor per group: its zones are the ones in its group (spanning
	// the group's PUs), filled round-robin; each append is AppendBlocks
	// write units. The payload is all zeros so the NAND model's zero-page
	// dedup keeps even terabyte-scale sweeps memory-free — content never
	// affects virtual timing.
	groups := rig.Groups
	zonesOf := make([][]int, groups)
	for _, zi := range report {
		zonesOf[zi.Group] = append(zonesOf[zi.Group], zi.Index)
	}
	appendBytes := cfg.AppendBlocks * id.BlockSize
	perZone := int(id.ZoneCapacity) / appendBytes
	if perZone == 0 {
		return ScalePoint{}, 0, fmt.Errorf("scale: %d-byte appends exceed the %d-byte zone capacity", appendBytes, id.ZoneCapacity)
	}
	data := make([]byte, appendBytes)
	perPU := scaleOps(cfg, pus)
	perActor := perPU * rig.PUsPerGroup
	type actor struct {
		qp       *hostif.QueuePair
		zones    []int
		issued   int
		lastDone vclock.Time
	}
	actors := make([]*actor, groups)
	for i := range actors {
		qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
		if err != nil {
			return ScalePoint{}, 0, err
		}
		actors[i] = &actor{qp: qp, zones: zonesOf[i]}
	}
	need := (perActor + perZone - 1) / perZone
	for _, a := range actors {
		if len(a.zones) < need {
			return ScalePoint{}, 0, fmt.Errorf("scale: %d zones per group, need %d", len(a.zones), need)
		}
	}
	submit := func(a *actor, at vclock.Time) error {
		cmd := a.qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.Data = hostif.OpZoneAppend, nsid, data
		cmd.Zone = a.zones[a.issued/perZone]
		a.issued++
		return a.qp.Push(at, cmd)
	}

	// Lockstep rounds: every group's next append is visible before the
	// round's drain, so the execution engine always sees the full
	// disjoint-group batch at once. Each actor still advances its own
	// virtual clock (it resubmits at its own completion instant), and
	// the round barrier is what a completion-batching driver does
	// anyway. The serial executor runs the identical schedule, so the
	// virtual results stay comparable command for command.
	wallStart := time.Now()
	for _, a := range actors {
		if err := submit(a, 0); err != nil {
			return ScalePoint{}, 0, err
		}
	}
	qid0 := actors[0].qp.ID()
	var end vclock.Time
	inRound := 0
	totalOps := perActor * groups
	digest := fnv.New64a()
	var rec [33]byte
	err = reapLoop(host, "scale", totalOps, func(comp hostif.Completion) error {
		binary.LittleEndian.PutUint64(rec[0:], uint64(comp.QueueID))
		binary.LittleEndian.PutUint64(rec[8:], comp.Slot)
		binary.LittleEndian.PutUint64(rec[16:], uint64(comp.Submitted))
		binary.LittleEndian.PutUint64(rec[24:], uint64(comp.Done))
		rec[32] = byte(comp.Status)
		digest.Write(rec[:])
		a := actors[comp.QueueID-qid0]
		a.lastDone = comp.Done
		if comp.Done > end {
			end = comp.Done
		}
		if inRound++; inRound == len(actors) {
			inRound = 0
			for _, a := range actors {
				if a.issued < perActor {
					if err := submit(a, a.lastDone); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return ScalePoint{}, 0, err
	}
	wall := time.Since(wallStart)

	p := ScalePoint{
		PUs:     pus,
		Ops:     totalOps,
		Elapsed: end.Sub(0),
		Wall:    wall,
	}
	log, err := admin.ExecutorStats(end)
	if err != nil {
		return ScalePoint{}, 0, err
	}
	p.Executor, p.Workers = log.Executor, log.Workers
	p.Grants = log.Grants
	p.Acquisitions = log.Acquisitions
	if log.Grants > 0 {
		p.AcqPerGrant = float64(log.Acquisitions) / float64(log.Grants)
	}
	p.Overlapped = log.Overlapped
	p.MaxInflight = log.MaxInflight
	totalChunks := pus * rig.ChunksPerPU
	p.MetaBytesPerChunk = float64(dev.MetadataBytes()) / float64(totalChunks)
	if end > 0 {
		p.VirtMBps = float64(p.Ops) * float64(appendBytes) / 1e6 / end.Seconds()
	}
	return p, digest.Sum64(), nil
}

// ScaleTable renders the sweep. Virtual columns are deterministic and
// byte-stable; the wall-clock and speedup columns measure the host
// machine and vary run to run (they are excluded from the determinism
// diffs for exactly that reason).
func ScaleTable(points []ScalePoint) *Table {
	t := &Table{
		Title: "Executor scaling: disjoint-group zone appends, serial vs engine (OX-ZNS, cache-less rig)",
		Headers: []string{"PUs", "executor", "workers", "ops",
			"virt elapsed", "virt MB/s", "acq/grant", "overlap", "max inflight",
			"meta B/chunk", "wall ms", "speedup"},
	}
	for _, p := range points {
		workers := "-"
		if p.Executor == hostif.ExecutorBatched {
			workers = fmt.Sprintf("%d", p.Workers)
		}
		t.Add(p.PUs, string(p.Executor), workers, p.Ops,
			p.Elapsed.String(), fmt.Sprintf("%.0f", p.VirtMBps),
			fmt.Sprintf("%.3f", p.AcqPerGrant),
			p.Overlapped, p.MaxInflight,
			fmt.Sprintf("%.1f", p.MetaBytesPerChunk),
			fmt.Sprintf("%.1f", float64(p.Wall.Microseconds())/1000),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t
}
