package exp

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// OffloadConfig parameterizes the computational-storage crossover
// scenario: the same three workloads run host-side (raw blocks cross
// the host link, the host computes) and in-storage (the device
// computes, only results cross the link), and the table shows where
// each side wins.
//
//   - KV point lookups against LightLSM, swept over value size: the
//     host-side path ships a whole SSTable block per lookup; the
//     offloaded path ships flags plus the value. In-storage wins while
//     the value is small against the block; once the value approaches
//     the block size the host side would have moved the data anyway
//     and the in-device compute surcharge loses.
//   - Predicate-filtered range scans against OX-Block, swept over
//     selectivity: the offloaded scan ships only matching sectors.
//     In-storage wins at low selectivity and loses as the match rate
//     approaches one.
//   - LSM compaction against LightLSM: the device-side merge moves no
//     block over the link at all — the column of interest is link
//     traffic, not latency.
//
// Every column is virtual-time- or counter-derived, so the table is a
// pure function of the seed: it joins the CI determinism diff, must be
// identical under the serial and pipelined executors (offload data
// commands are host-link-charged and therefore inline barriers), and
// identical again when every command crosses the fabrics loopback
// transport (OffloadLoopback).
type OffloadConfig struct {
	// ValueSizes are the KV value sizes swept, in bytes.
	ValueSizes []int
	// FillMB is the data volume filled per value-size point.
	FillMB int
	// Gets is the number of measured point lookups per point.
	Gets int
	// ScanMasks are the scan predicate masks; each mask matches a page
	// with probability 2^-popcount(mask), dialing selectivity.
	ScanMasks []byte
	// ScanPages is the extent length of each measured scan, in 4 KB
	// pages; Scans is the number of measured scans per mask.
	ScanPages int
	Scans     int
	// LogicalPages sizes the OX-Block namespace for the scan sweep.
	LogicalPages int64
	// CompactMB is the fill volume of the compaction comparison (sized
	// to trigger several L0 compactions).
	CompactMB int
	// Executor/Workers select the host's command-service engine
	// (results are identical for either engine).
	Executor hostif.ExecutorKind
	Workers  int
	Seed     int64
}

// DefaultOffload returns the default crossover sweep.
func DefaultOffload() OffloadConfig {
	return OffloadConfig{
		ValueSizes:   []int{64, 1024, 4096, 16384, 65536},
		FillMB:       2,
		Gets:         256,
		ScanMasks:    []byte{0xFF, 0x0F, 0x03, 0x01, 0x00},
		ScanPages:    64,
		Scans:        96,
		LogicalPages: 4096,
		CompactMB:    12,
		Seed:         29,
	}
}

// OffloadPoint is one row of the crossover table: one workload
// parameter, both variants.
type OffloadPoint struct {
	Op    string // "get", "scan" or "compact"
	Param string
	// HostLat / DevLat are mean virtual latencies per operation.
	HostLat, DevLat vclock.Duration
	// HostLinkKB / DevLinkKB are host-link bytes per operation, from
	// the controller's link counter.
	HostLinkKB, DevLinkKB float64
	// SavedMB is the link traffic the offloaded variant avoided in
	// total, from its AdminGetLogPage(LogOffload) counters.
	SavedMB float64
}

// Winner names the cheaper side by mean virtual latency; the
// compaction row is judged on link traffic (its latencies are merge
// schedules, near-equal by construction).
func (p OffloadPoint) Winner() string {
	if p.Op == "compact" {
		if p.DevLinkKB < p.HostLinkKB {
			return "device"
		}
		return "host"
	}
	if p.DevLat < p.HostLat {
		return "device"
	}
	return "host"
}

// offloadEnv is the lsm.Env surface plus the two offload hooks, as
// implemented by both the in-process and the fabric environment
// clients — what lets one scenario body run over either transport.
type offloadEnv interface {
	lsm.Env
	OffloadGet(now vclock.Time, h lsm.TableHandle, block int, key []byte) ([]byte, bool, bool, vclock.Time, error)
	OffloadCompact(now vclock.Time, inputs []lsm.TableHandle, bitsPerKey int, dropDeletes bool) ([]*lsm.TableMeta, vclock.Time, error)
}

// offloadAdmin reads the LogOffload page, over either transport.
type offloadAdmin interface {
	OffloadStats(now vclock.Time, nsid int) (offload.Stats, error)
}

// Offload runs the crossover scenario with in-process queue pairs.
func Offload(cfg OffloadConfig) ([]OffloadPoint, error) {
	return offloadRun(cfg, false)
}

// OffloadLoopback runs the identical scenario with every command
// crossing the fabrics wire layer over the loopback transport. Virtual
// timing is a pure function of the submission history, which the wire
// preserves exactly, so the table must be byte-identical to Offload.
func OffloadLoopback(cfg OffloadConfig) ([]OffloadPoint, error) {
	return offloadRun(cfg, true)
}

func offloadRun(cfg OffloadConfig, fabric bool) ([]OffloadPoint, error) {
	var out []OffloadPoint
	for _, vs := range cfg.ValueSizes {
		p, err := offloadGetPoint(cfg, vs, fabric)
		if err != nil {
			return out, fmt.Errorf("offload get %dB: %w", vs, err)
		}
		out = append(out, p)
	}
	for _, mask := range cfg.ScanMasks {
		p, err := offloadScanPoint(cfg, mask, fabric)
		if err != nil {
			return out, fmt.Errorf("offload scan mask %02x: %w", mask, err)
		}
		out = append(out, p)
	}
	p, err := offloadCompactPoint(cfg, fabric)
	if err != nil {
		return out, fmt.Errorf("offload compact: %w", err)
	}
	return append(out, p), nil
}

// offloadLSMRig builds one KV measurement's testbed: rig, LightLSM
// namespace, host-link-charged host, and an environment client over
// the selected transport.
func offloadLSMRig(cfg OffloadConfig, fabric bool) (*ox.Controller, offloadEnv, offloadAdmin, int, func(), error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return nil, nil, nil, 0, nil, err
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: lightlsm.Horizontal})
	if err != nil {
		return nil, nil, nil, 0, nil, err
	}
	host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{ChargeHostLink: true}, cfg.Executor, cfg.Workers))
	if !fabric {
		cli, err := hostif.AttachLSM(host, env)
		if err != nil {
			host.Close()
			return nil, nil, nil, 0, nil, err
		}
		return ctrl, cli, host.Admin(), cli.NSID(), host.Close, nil
	}
	nsid, err := host.Admin().AttachNamespace(0, hostif.NewLSMNamespace(env))
	if err != nil {
		host.Close()
		return nil, nil, nil, 0, nil, err
	}
	srv := fabrics.NewServer(host)
	cli := fabrics.Loopback(srv)
	fenv, err := cli.OpenLSM(0, nsid)
	if err != nil {
		srv.Close()
		host.Close()
		return nil, nil, nil, 0, nil, err
	}
	admin, err := cli.Admin()
	if err != nil {
		srv.Close()
		host.Close()
		return nil, nil, nil, 0, nil, err
	}
	cleanup := func() {
		admin.Close()
		fenv.Close()
		srv.Close()
		host.Close()
	}
	return ctrl, fenv, admin, nsid, cleanup, nil
}

// offloadKey renders the i-th fill key (fixed width keeps table order
// equal to insertion order).
func offloadKey(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

// offloadFill puts keys of the given value size until the volume is
// reached, then flushes and drains so every measured lookup hits
// SSTables rather than the memtable. Values come from the rng, so both
// variants of a point fill byte-identical databases.
func offloadFill(db *lsm.DB, rng *rand.Rand, keys, valueSize int) (vclock.Time, error) {
	value := make([]byte, valueSize)
	now := vclock.Time(0)
	var err error
	for i := 0; i < keys; i++ {
		rng.Read(value)
		if now, err = db.Put(now, offloadKey(i), value); err != nil {
			return now, err
		}
	}
	if now, err = db.Flush(now); err != nil {
		return now, err
	}
	return db.WaitIdle(now), nil
}

func offloadGetPoint(cfg OffloadConfig, valueSize int, fabric bool) (OffloadPoint, error) {
	keys := cfg.FillMB << 20 / valueSize
	p := OffloadPoint{Op: "get", Param: fmt.Sprintf("%d B values", valueSize)}
	for _, offl := range []bool{false, true} {
		ctrl, env, admin, nsid, cleanup, err := offloadLSMRig(cfg, fabric)
		if err != nil {
			return p, err
		}
		opts := lsm.Options{Env: env, MemtableBytes: 1 << 20, Seed: cfg.Seed}
		if offl {
			opts.Lookup = env.OffloadGet
		}
		db, err := lsm.Open(opts)
		if err != nil {
			cleanup()
			return p, err
		}
		now, err := offloadFill(db, rand.New(rand.NewSource(cfg.Seed+int64(valueSize))), keys, valueSize)
		if err != nil {
			cleanup()
			return p, err
		}
		draw := rand.New(rand.NewSource(cfg.Seed * 31))
		linkStart := ctrl.Stats().BytesHost
		var total vclock.Duration
		for i := 0; i < cfg.Gets; i++ {
			start := now
			_, end, err := db.Get(start, offloadKey(draw.Intn(keys)))
			if err != nil {
				cleanup()
				return p, err
			}
			total += end.Sub(start)
			now = end
		}
		lat := total / vclock.Duration(cfg.Gets)
		linkKB := float64(ctrl.Stats().BytesHost-linkStart) / float64(cfg.Gets) / 1024
		if offl {
			p.DevLat, p.DevLinkKB = lat, linkKB
			st, err := admin.OffloadStats(now, nsid)
			if err != nil {
				cleanup()
				return p, err
			}
			p.SavedMB = float64(st.BytesSaved()) / (1 << 20)
		} else {
			p.HostLat, p.HostLinkKB = lat, linkKB
		}
		cleanup()
	}
	return p, nil
}

func offloadScanPoint(cfg OffloadConfig, mask byte, fabric bool) (OffloadPoint, error) {
	sel := fmt.Sprintf("1/%d", 1<<bits.OnesCount8(mask))
	p := OffloadPoint{Op: "scan", Param: "sel " + sel}
	pred := offload.Predicate{Offset: 0, Mask: mask, Value: 0}
	for _, offl := range []bool{false, true} {
		rigCfg := DefaultRig()
		rigCfg.Seed = cfg.Seed
		_, ctrl, err := rigCfg.Build()
		if err != nil {
			return p, err
		}
		dev, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: cfg.LogicalPages}, 0)
		if err != nil {
			return p, err
		}
		host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{ChargeHostLink: true}, cfg.Executor, cfg.Workers))
		nsid, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(dev))
		if err != nil {
			host.Close()
			return p, err
		}
		var qp pushSession
		cleanup := host.Close
		if fabric {
			srv := fabrics.NewServer(host)
			fqp, err := fabrics.Loopback(srv).QueuePair(now, 1, hostif.ClassMedium, 1)
			if err != nil {
				srv.Close()
				host.Close()
				return p, err
			}
			qp = fqp
			cleanup = func() { fqp.Close(); srv.Close(); host.Close() }
		} else {
			lqp, err := host.Admin().CreateIOQueuePair(now, 1, hostif.ClassMedium)
			if err != nil {
				host.Close()
				return p, err
			}
			qp = lqp
		}

		// Prefill with seeded random pages: each page matches the mask
		// with probability 2^-popcount(mask), so the mask alone dials
		// selectivity and both variants scan identical data.
		const txn = 32
		rng := rand.New(rand.NewSource(cfg.Seed + int64(mask)))
		data := make([]byte, txn*4096)
		for lpn := int64(0); lpn+txn <= cfg.LogicalPages; lpn += txn {
			rng.Read(data)
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, nsid, lpn, data
			if err := qp.Push(now, cmd); err != nil {
				cleanup()
				return p, err
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				cleanup()
				return p, comp.Err
			}
			now = comp.Done
		}

		draw := rand.New(rand.NewSource(cfg.Seed * 37))
		span := cfg.LogicalPages - int64(cfg.ScanPages)
		linkStart := ctrl.Stats().BytesHost
		var total vclock.Duration
		for i := 0; i < cfg.Scans; i++ {
			lpn := draw.Int63n(span) / int64(cfg.ScanPages) * int64(cfg.ScanPages)
			cmd := qp.AcquireCommand()
			if offl {
				cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages, cmd.Data =
					hostif.OpOffloadScan, nsid, lpn, cfg.ScanPages, pred.Encode()
			} else {
				cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, nsid, lpn, cfg.ScanPages
			}
			if err := qp.Push(now, cmd); err != nil {
				cleanup()
				return p, err
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				cleanup()
				return p, comp.Err
			}
			if offl {
				if _, _, _, err := offload.DecodeScanResult(comp.Data); err != nil {
					cleanup()
					return p, err
				}
			} else {
				// The host-side variant pays its filter here: every page
				// crossed the link and the host applies the predicate.
				for o := 0; o+4096 <= len(comp.Data); o += 4096 {
					pred.Match(comp.Data[o : o+4096])
				}
			}
			total += comp.Done.Sub(now)
			now = comp.Done
		}
		lat := total / vclock.Duration(cfg.Scans)
		linkKB := float64(ctrl.Stats().BytesHost-linkStart) / float64(cfg.Scans) / 1024
		if offl {
			p.DevLat, p.DevLinkKB = lat, linkKB
			st, err := host.Admin().OffloadStats(now, nsid)
			if err != nil {
				cleanup()
				return p, err
			}
			p.SavedMB = float64(st.BytesSaved()) / (1 << 20)
		} else {
			p.HostLat, p.HostLinkKB = lat, linkKB
		}
		cleanup()
	}
	return p, nil
}

func offloadCompactPoint(cfg OffloadConfig, fabric bool) (OffloadPoint, error) {
	const valueSize = 1024
	puts := cfg.CompactMB << 20 / valueSize
	// Draw keys randomly from a quarter-sized key space: successive
	// flushes overwrite each other's ranges, so L0 tables overlap and
	// compaction must actually merge instead of trivially moving files.
	keySpace := puts / 4
	p := OffloadPoint{Op: "compact"}
	for _, offl := range []bool{false, true} {
		ctrl, env, admin, nsid, cleanup, err := offloadLSMRig(cfg, fabric)
		if err != nil {
			return p, err
		}
		opts := lsm.Options{Env: env, MemtableBytes: 1 << 20, Seed: cfg.Seed}
		if offl {
			opts.Compactor = env.OffloadCompact
		}
		db, err := lsm.Open(opts)
		if err != nil {
			cleanup()
			return p, err
		}
		linkStart := ctrl.Stats().BytesHost
		rng := rand.New(rand.NewSource(cfg.Seed + 101))
		value := make([]byte, valueSize)
		end := vclock.Time(0)
		for i := 0; i < puts; i++ {
			rng.Read(value)
			if end, err = db.Put(end, offloadKey(rng.Intn(keySpace)), value); err != nil {
				cleanup()
				return p, err
			}
		}
		if end, err = db.Flush(end); err != nil {
			cleanup()
			return p, err
		}
		end = db.WaitIdle(end)
		comps := db.Stats().Compactions
		p.Param = fmt.Sprintf("%d MB fill, %d compactions", cfg.CompactMB, comps)
		lat := vclock.Duration(end) / vclock.Duration(puts)
		linkKB := float64(ctrl.Stats().BytesHost-linkStart) / float64(puts) / 1024
		if offl {
			p.DevLat, p.DevLinkKB = lat, linkKB
			st, err := admin.OffloadStats(end, nsid)
			if err != nil {
				cleanup()
				return p, err
			}
			p.SavedMB = float64(st.BytesSaved()) / (1 << 20)
		} else {
			p.HostLat, p.HostLinkKB = lat, linkKB
		}
		cleanup()
	}
	return p, nil
}

// OffloadTable renders the crossover: per-op virtual latency and
// host-link traffic for the host-side and in-storage variants of each
// workload point, plus the link bytes the offloads saved.
func OffloadTable(points []OffloadPoint) *Table {
	t := &Table{
		Title: "Computational storage: host-side vs in-storage execution (per-op virtual latency and host-link traffic)",
		Headers: []string{"op", "param", "host us/op", "dev us/op",
			"host linkKB/op", "dev linkKB/op", "saved MB", "winner"},
	}
	for _, p := range points {
		t.Add(p.Op, p.Param,
			fmt.Sprintf("%.2f", p.HostLat.Seconds()*1e6),
			fmt.Sprintf("%.2f", p.DevLat.Seconds()*1e6),
			fmt.Sprintf("%.2f", p.HostLinkKB),
			fmt.Sprintf("%.2f", p.DevLinkKB),
			fmt.Sprintf("%.2f", p.SavedMB),
			p.Winner())
	}
	return t
}
