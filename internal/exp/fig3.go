package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/hostif"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// Fig3Config parameterizes the Figure 3 reproduction: OX-Block serves a
// paced stream of random transactional writes; at each failure point the
// controller is killed and recovery time is measured, for checkpointing
// disabled and for two checkpoint intervals.
//
// Scale note: the paper runs minutes of workload against a 1.4 TB drive
// and reports recovery up to ~100 s. The simulated drive and the
// failure points are scaled down together (see EXPERIMENTS.md); the
// shape — linear growth without checkpoints, bounded oscillation with
// them, little difference between the two intervals — is preserved.
type Fig3Config struct {
	// FailPoints are the T1..T6 kill instants.
	FailPoints []vclock.Duration
	// Intervals are the checkpoint settings; 0 means disabled.
	Intervals []vclock.Duration
	// TxnPages is the size of each random write in 4 KB pages (≤ 256,
	// the paper's "random writes of up to 1 MB").
	TxnPages int
	// TxnEvery paces the writer (one transaction per TxnEvery).
	TxnEvery vclock.Duration
	Seed     int64
}

// DefaultFig3 returns the scaled default configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		FailPoints: []vclock.Duration{
			10 * vclock.Second, 20 * vclock.Second, 30 * vclock.Second,
			40 * vclock.Second, 50 * vclock.Second, 60 * vclock.Second,
		},
		Intervals: []vclock.Duration{0, 10 * vclock.Second, 30 * vclock.Second},
		TxnPages:  128, // 512 KB transactions
		TxnEvery:  20 * vclock.Millisecond,
		Seed:      42,
	}
}

// Fig3Point is one measurement of Figure 3.
type Fig3Point struct {
	Interval     vclock.Duration // 0 = checkpoint disabled
	FailAt       vclock.Duration
	Txns         int
	RecoverySecs float64
	Replayed     int
	Checkpoints  int64
}

// Figure3 runs the whole grid and returns one point per (interval,
// failure time).
func Figure3(cfg Fig3Config) ([]Fig3Point, error) {
	var out []Fig3Point
	for _, ci := range cfg.Intervals {
		for _, failAt := range cfg.FailPoints {
			p, err := figure3Run(cfg, ci, failAt)
			if err != nil {
				return out, fmt.Errorf("fig3 Ci=%v T=%v: %w", ci, failAt, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

func figure3Run(cfg Fig3Config, interval, failAt vclock.Duration) (Fig3Point, error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	dev, ctrl, err := rigCfg.Build()
	if err != nil {
		return Fig3Point{}, err
	}
	geo := dev.Geometry()
	logicalPages := int64(geo.TotalPUs()) * int64(geo.ChunksPerPU) * int64(geo.SectorsPerChunk()) / 4
	blkCfg := oxblock.Config{
		LogicalPages:       logicalPages,
		CheckpointInterval: interval,
		// Per-record replay cost: one commit record carries TxnPages
		// mapping updates; ~30 µs per update on the ARM controller.
		CPUPerRecordReplay: vclock.Duration(cfg.TxnPages) * 30 * vclock.Microsecond,
	}
	d, _, now, err := oxblock.New(ctrl, blkCfg, 0)
	if err != nil {
		return Fig3Point{}, err
	}

	// The paced writer is one host actor on one queue pair (depth 1):
	// each transaction is a Write command submitted with a doorbell ring
	// at the writer's clock and reaped before the next is issued. Setup
	// is pure control plane: namespace attach and queue-pair creation
	// are admin commands over queue 0.
	host := hostif.NewHost(ctrl, hostif.HostConfig{})
	defer host.Close()
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		return Fig3Point{}, err
	}
	qp, err := admin.CreateIOQueuePair(now, 1, hostif.ClassMedium)
	if err != nil {
		return Fig3Point{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]byte, cfg.TxnPages*4096) // zero payload: content-free
	deadline := vclock.Time(failAt)
	txns := 0
	next := now
	for next < deadline {
		// Depth 1: the arena hands back the same recycled slot each loop.
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.Data = hostif.OpWrite, nsid, data
		cmd.LPN = rng.Int63n(logicalPages - int64(cfg.TxnPages))
		if err := qp.Push(next, cmd); err != nil {
			return Fig3Point{}, fmt.Errorf("txn %d: %w", txns, err)
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			return Fig3Point{}, fmt.Errorf("txn %d: %w", txns, comp.Err)
		}
		txns++
		// Paced submission: the next transaction starts one period after
		// the previous submission, or when the previous one finished.
		next = vclock.Max(comp.Done, next.Add(cfg.TxnEvery))
	}

	// Read the checkpoint counter over the admin queue, then kill -9:
	// all volatile state is lost.
	st, err := admin.NamespaceStats(next, nsid)
	if err != nil {
		return Fig3Point{}, err
	}
	ckpts := st.(oxblock.Stats).Checkpoints
	dev.Crash()
	_, report, _, err := oxblock.New(ctrl, blkCfg, deadline)
	if err != nil {
		return Fig3Point{}, fmt.Errorf("recovery: %w", err)
	}
	p := Fig3Point{
		Interval:    interval,
		FailAt:      failAt,
		Txns:        txns,
		Checkpoints: ckpts,
	}
	if report != nil {
		p.RecoverySecs = report.Duration.Seconds()
		p.Replayed = report.ReplayedRecords
	}
	return p, nil
}

// Figure3Table renders the grid the way the paper's plot is read:
// one row per failure point, one column per checkpoint setting.
func Figure3Table(points []Fig3Point) *Table {
	t := &Table{
		Title:   "Figure 3: impact of checkpoint intervals on recovery time (seconds)",
		Headers: []string{"fail at", "no checkpoint", "Ci=10s", "Ci=30s", "replayed (none/10/30)"},
	}
	byFail := map[vclock.Duration]map[vclock.Duration]Fig3Point{}
	var fails []vclock.Duration
	for _, p := range points {
		m, ok := byFail[p.FailAt]
		if !ok {
			m = map[vclock.Duration]Fig3Point{}
			byFail[p.FailAt] = m
			fails = append(fails, p.FailAt)
		}
		m[p.Interval] = p
	}
	for _, f := range fails {
		m := byFail[f]
		t.Add(
			fmt.Sprintf("T=%.0fs", f.Seconds()),
			fmt.Sprintf("%.2f", m[0].RecoverySecs),
			fmt.Sprintf("%.2f", m[10*vclock.Second].RecoverySecs),
			fmt.Sprintf("%.2f", m[30*vclock.Second].RecoverySecs),
			fmt.Sprintf("%d / %d / %d", m[0].Replayed, m[10*vclock.Second].Replayed, m[30*vclock.Second].Replayed),
		)
	}
	return t
}
