package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/hostif"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// GCLocalityConfig parameterizes the §4.3 locality measurement: OX-Block
// under overwrite churn triggers group-marked garbage collection while
// several writers keep issuing uniform traffic; the fraction of I/Os
// (issued during collection windows) that avoid the marked group should
// approach (groups-1)/groups — the paper's 93.7% at 16 channels and
// 87.5% at 8.
type GCLocalityConfig struct {
	ChannelCounts []int
	Writers       int
	TxnPages      int
	TxnsPerWriter int
	Seed          int64
	// GlobalGC disables group marking (the ablation: interference
	// spreads everywhere).
	GlobalGC bool
}

// DefaultGCLocality returns the default configuration.
func DefaultGCLocality() GCLocalityConfig {
	return GCLocalityConfig{
		ChannelCounts: []int{8, 16},
		Writers:       8,
		TxnPages:      64,
		TxnsPerWriter: 2400,
		Seed:          5,
	}
}

// GCLocalityPoint is one row of the §4.3 claim.
type GCLocalityPoint struct {
	Channels    int
	Collections int64
	Unaffected  float64 // fraction of in-window I/O not on the marked group
	Expected    float64 // (n-1)/n
}

// GCLocality measures the §4.3 percentages for each channel count.
func GCLocality(cfg GCLocalityConfig) ([]GCLocalityPoint, error) {
	var out []GCLocalityPoint
	for _, channels := range cfg.ChannelCounts {
		p, err := gcLocalityRun(cfg, channels)
		if err != nil {
			return out, fmt.Errorf("gc locality %d channels: %w", channels, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func gcLocalityRun(cfg GCLocalityConfig, channels int) (GCLocalityPoint, error) {
	rigCfg := DefaultRig()
	rigCfg.Groups = channels
	rigCfg.PUsPerGroup = 2
	rigCfg.ChunksPerPU = 32
	rigCfg.Seed = cfg.Seed
	dev, ctrl, err := rigCfg.Build()
	if err != nil {
		return GCLocalityPoint{}, err
	}
	geo := dev.Geometry()
	phys := int64(geo.TotalPUs()) * int64(geo.ChunksPerPU) * int64(geo.SectorsPerChunk())
	totalChunks := geo.TotalPUs() * geo.ChunksPerPU
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{
		LogicalPages: phys / 3, // overwrite pressure with log headroom
		GlobalGC:     cfg.GlobalGC,
		// Aggressive thresholds keep collection running throughout the
		// churn; frequent checkpoints keep the log truncated.
		GCFreeThreshold:    totalChunks / 6,
		GCTargetFree:       totalChunks / 4,
		CheckpointInterval: vclock.Second,
	}, 0)
	if err != nil {
		return GCLocalityPoint{}, err
	}

	// N writers overwrite a small working set uniformly: churn feeds the
	// collector while concurrent traffic samples every group. Each
	// writer is one queue pair at depth 1 driven closed-loop: the writer
	// whose command completes first (ReapAny) draws the next LPN and
	// rings its doorbell at the completion instant, so the shared random
	// stream is consumed in deterministic completion order.
	data := make([]byte, cfg.TxnPages*4096)
	host := hostif.NewHost(ctrl, hostif.HostConfig{})
	defer host.Close()
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		return GCLocalityPoint{}, err
	}
	qps := make([]*hostif.QueuePair, cfg.Writers)
	for i := range qps {
		if qps[i], err = admin.CreateIOQueuePair(now, 1, hostif.ClassMedium); err != nil {
			return GCLocalityPoint{}, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	submit := func(w int, at vclock.Time) error {
		cmd := qps[w].AcquireCommand() // depth 1: same recycled slot each loop
		cmd.Op, cmd.NSID, cmd.Data = hostif.OpWrite, nsid, data
		cmd.LPN = rng.Int63n(d.LogicalPages() - int64(cfg.TxnPages))
		return qps[w].Push(at, cmd)
	}
	issued := make([]int, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		if err := submit(w, now); err != nil {
			return GCLocalityPoint{}, err
		}
		issued[w]++
	}
	qid0 := qps[0].ID() // I/O queue IDs start after the admin queue
	var last vclock.Time
	err = reapLoop(host, "gc locality", cfg.Writers*cfg.TxnsPerWriter, func(comp hostif.Completion) error {
		last = comp.Done
		if w := comp.QueueID - qid0; issued[w] < cfg.TxnsPerWriter {
			if err := submit(w, comp.Done); err != nil {
				return err
			}
			issued[w]++
		}
		return nil
	})
	if err != nil {
		return GCLocalityPoint{}, err
	}
	gs, err := admin.GCStats(last, nsid)
	if err != nil {
		return GCLocalityPoint{}, err
	}
	return GCLocalityPoint{
		Channels:    channels,
		Collections: gs.Collections,
		Unaffected:  gs.UnaffectedFraction(),
		Expected:    float64(channels-1) / float64(channels),
	}, nil
}

// GCLocalityTable renders the §4.3 numbers.
func GCLocalityTable(points []GCLocalityPoint) *Table {
	t := &Table{
		Title:   "§4.3: application I/O unaffected by group-marked GC",
		Headers: []string{"channels", "collections", "unaffected %", "paper/expected %"},
	}
	for _, p := range points {
		t.Add(p.Channels, p.Collections,
			fmt.Sprintf("%.1f", p.Unaffected*100),
			fmt.Sprintf("%.1f", p.Expected*100))
	}
	return t
}
