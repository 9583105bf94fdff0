package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/hostif"
	"repro/internal/metrics"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// WRRSweepConfig parameterizes the arbitration-class sweep: a
// foreground tenant is measured once per WRR class while a fixed
// low-class batch tenant (created first, so it wins same-class
// doorbell ties) keeps a deep queue saturated on the same device. The
// sweep shows what a class buys under contention: urgent and high
// bursts preempt the batch queue entirely, a medium burst larger than
// the medium credit weight is split by the arbiter, and a low
// foreground queues behind the batch tenant's whole backlog.
type WRRSweepConfig struct {
	// Classes are the foreground classes to sweep (one table row each).
	Classes []hostif.Class
	// Depth is the foreground queue depth; BgDepth the background's.
	Depth   int
	BgDepth int
	// Ops is the measured foreground command count per class.
	Ops int
	// TxnPages sizes each command in 4 KB pages.
	TxnPages int
	// PagesPerTenant sizes the two partitions.
	PagesPerTenant int64
	Seed           int64
}

// DefaultWRRSweep returns the default sweep. The urgent, high and
// medium rows come out close: a foreground burst near the credit
// weight is served ahead of the batch tenant in every case, because
// the batch queue spends its low-class credits on each round's tail
// (a WRR phase effect — the credit mechanics themselves are pinned by
// hostif's TestWRRCreditSchedule). The low row is the payoff: sharing
// the batch tenant's class means queueing behind its whole backlog.
func DefaultWRRSweep() WRRSweepConfig {
	return WRRSweepConfig{
		Classes: []hostif.Class{
			hostif.ClassUrgent, hostif.ClassHigh, hostif.ClassMedium, hostif.ClassLow,
		},
		Depth:          6,
		BgDepth:        16,
		Ops:            1500,
		TxnPages:       32,
		PagesPerTenant: 8192,
		Seed:           31,
	}
}

// WRRPoint is one row of the sweep.
type WRRPoint struct {
	Class   hostif.Class
	Ops     int
	KIOPS   float64 // foreground throughput over its completion window
	BgKIOPS float64 // background throughput over the same window
	Lat     *metrics.Histogram
	Elapsed vclock.Duration
}

// WRRSweep measures each foreground class against the fixed background.
func WRRSweep(cfg WRRSweepConfig) ([]WRRPoint, error) {
	var out []WRRPoint
	for _, class := range cfg.Classes {
		p, err := wrrRun(cfg, class)
		if err != nil {
			return out, fmt.Errorf("wrr sweep class %v: %w", class, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func wrrRun(cfg WRRSweepConfig, class hostif.Class) (WRRPoint, error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return WRRPoint{}, err
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 2 * cfg.PagesPerTenant}, 0)
	if err != nil {
		return WRRPoint{}, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	defer host.Close()
	admin := host.Admin()

	type actor struct {
		nsid   int
		qp     *hostif.QueuePair
		draw   func(*hostif.Command)
		issued int
		done   int
	}
	data := make([]byte, cfg.TxnPages*4096)
	build := func(idx int, cl hostif.Class, depth int) (*actor, error) {
		ns, err := hostif.NewBlockPartition(d, int64(idx)*cfg.PagesPerTenant, cfg.PagesPerTenant)
		if err != nil {
			return nil, err
		}
		nsid, err := admin.AttachNamespace(now, ns)
		if err != nil {
			return nil, err
		}
		qp, err := admin.CreateIOQueuePair(now, depth, cl)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*101))
		return &actor{
			nsid: nsid,
			qp:   qp,
			draw: mixedDraw(rng, nsid, cfg.PagesPerTenant, cfg.TxnPages, cfg.TxnPages, data),
		}, nil
	}
	// The batch tenant is created first: it holds the lower queue ID,
	// so a low-class foreground genuinely loses same-class ties to it.
	bg, err := build(0, hostif.ClassLow, cfg.BgDepth)
	if err != nil {
		return WRRPoint{}, err
	}
	fg, err := build(1, class, cfg.Depth)
	if err != nil {
		return WRRPoint{}, err
	}
	for _, a := range []*actor{fg, bg} {
		if now, err = prefillBlock(a.qp, a.nsid, cfg.PagesPerTenant, cfg.TxnPages, data, now); err != nil {
			return WRRPoint{}, err
		}
	}

	// Measured phase: lockstep doorbell rounds. Each round, both actors
	// ring their full burst at the same instant — the moment class
	// arbitration decides who reaches the media first — then every
	// completion is reaped and the next round starts at the last one.
	// Per-completion resubmission would leave at most one command
	// visible per arbitration pass and no choice for the arbiter to
	// make; batched doorbells are where WRR classes bind.
	start := now
	burst := func(a *actor, depth int, at vclock.Time) error {
		for i := 0; i < depth; i++ {
			cmd := a.qp.AcquireCommand()
			a.draw(cmd)
			if _, err := a.qp.Submit(cmd); err != nil {
				return err
			}
			a.issued++
		}
		a.qp.Ring(at)
		return nil
	}
	p := WRRPoint{Class: class, Ops: cfg.Ops, Lat: metrics.NewHistogram()}
	fgID := fg.qp.ID()
	var end vclock.Time
	round := now
	for fg.done < cfg.Ops {
		if err := burst(fg, cfg.Depth, round); err != nil {
			return WRRPoint{}, err
		}
		if err := burst(bg, cfg.BgDepth, round); err != nil {
			return WRRPoint{}, err
		}
		next := round
		for reaped := 0; reaped < cfg.Depth+cfg.BgDepth; reaped++ {
			comp, ok := host.ReapAny()
			if !ok {
				return WRRPoint{}, fmt.Errorf("completion queue ran dry after %d fg ops", fg.done)
			}
			if comp.Err != nil {
				return WRRPoint{}, comp.Err
			}
			if comp.QueueID == fgID {
				fg.done++
				p.Lat.Observe(comp.Latency())
				if comp.Done > end {
					end = comp.Done
				}
			} else {
				bg.done++
			}
			if comp.Done > next {
				next = comp.Done
			}
		}
		round = next
	}
	p.Elapsed = end.Sub(start)
	if p.Elapsed > 0 {
		p.KIOPS = float64(fg.done) / p.Elapsed.Seconds() / 1000
		p.BgKIOPS = float64(bg.done) / p.Elapsed.Seconds() / 1000
	}
	return p, nil
}

// WRRSweepTable renders the sweep: foreground class vs throughput and
// latency under a saturating low-class batch background. The mean is
// exact (percentiles are bucketed), so it is where the high-vs-medium
// credit split shows.
func WRRSweepTable(points []WRRPoint) *Table {
	t := &Table{
		Title: "WRR arbitration: foreground class vs saturating low-class batch tenant (shared OX-Block device)",
		Headers: []string{"class", "fg kIOPS", "mean", "p50", "p95", "p99",
			"bg kIOPS"},
	}
	for _, p := range points {
		cells := []any{p.Class.String(), fmt.Sprintf("%.1f", p.KIOPS),
			fmt.Sprintf("%.3fms", p.Lat.Mean().Seconds()*1000)}
		for _, s := range metrics.LatencyRow(p.Lat) {
			cells = append(cells, s)
		}
		cells = append(cells, fmt.Sprintf("%.1f", p.BgKIOPS))
		t.Add(cells...)
	}
	return t
}
