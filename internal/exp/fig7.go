package exp

import (
	"fmt"

	"repro/internal/hostif"
	"repro/internal/ox"
	"repro/internal/oxeleos"
	"repro/internal/vclock"
)

// Fig7Config parameterizes the data-copy experiment of Figure 7: host
// threads stream 8 MB LSS buffers into OX-ELEOS; the controller's
// memory bus carries two copies per buffer (network→FTL, FTL→device)
// and saturates at two threads.
type Fig7Config struct {
	ThreadCounts     []int
	BuffersPerThread int
	BufferBytes      int
	Seed             int64
	// ZeroCopyRX enables the §4.4 ablation (AF_XDP-style receive).
	ZeroCopyRX bool
	// Executor selects the host's command-service engine (zero value:
	// serial); Workers sizes the pipelined worker pool. Results are
	// identical for either engine.
	Executor hostif.ExecutorKind
	Workers  int
}

// DefaultFig7 returns the default configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		ThreadCounts:     []int{1, 2, 4, 8},
		BuffersPerThread: 24,
		BufferBytes:      8 << 20,
		Seed:             11,
	}
}

// Fig7Point is one bar of Figure 7.
type Fig7Point struct {
	Threads     int
	Utilization float64 // controller memory-bus utilization, 0..1
	CoreUtil    float64
	MBps        float64 // aggregate ingest throughput
	Elapsed     vclock.Duration
}

// Figure7 measures controller utilization for each host thread count.
func Figure7(cfg Fig7Config) ([]Fig7Point, error) {
	var out []Fig7Point
	for _, threads := range cfg.ThreadCounts {
		p, err := figure7Run(cfg, threads)
		if err != nil {
			return out, fmt.Errorf("fig7 %d threads: %w", threads, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func figure7Run(cfg Fig7Config, threads int) (Fig7Point, error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	rigCfg.CacheMB = 64
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return Fig7Point{}, err
	}
	// The DFC's ARM memory bus copies far slower than the two OCSSDs
	// drain: on that platform the copies, not the flash, are the
	// bottleneck (§4.3). Rebuild the controller copy-bound.
	c := ctrl.Config()
	c.MemMBps = 400
	c.ZeroCopyRX = cfg.ZeroCopyRX
	if ctrl, err = ox.NewController(c, ctrl.Media()); err != nil {
		return Fig7Point{}, err
	}
	store, err := oxeleos.New(ctrl, oxeleos.Config{BufferBytes: cfg.BufferBytes})
	if err != nil {
		return Fig7Point{}, err
	}

	// Each host thread is one queue pair at depth 1 streaming buffers
	// back to back: a Flush command rings the doorbell at the thread's
	// clock, the host charges the host-link transfer, and the namespace
	// adapter performs both controller copies. The closed loop always
	// resumes the thread whose command completes first (ReapAny) — the
	// queue-pair incarnation of the old smallest-clock DES loop.
	host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{ChargeHostLink: true}, cfg.Executor, cfg.Workers))
	defer host.Close()
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(0, hostif.NewEleosNamespace(store))
	if err != nil {
		return Fig7Point{}, err
	}
	qps := make([]*hostif.QueuePair, threads)
	for i := range qps {
		if qps[i], err = admin.CreateIOQueuePair(0, 1, hostif.ClassMedium); err != nil {
			return Fig7Point{}, err
		}
	}
	buf := make([]byte, cfg.BufferBytes) // zero payload (content-free)
	pageBytes := 32 * 1024
	bufIdx := 0
	// One descriptor slice per thread, rebuilt in place each submission:
	// a buffer carries hundreds of page descriptors, so reallocating the
	// slice (and the command) per flush dominated the driver's allocs.
	descs := make([][]hostif.PageDesc, threads)
	for i := range descs {
		descs[i] = make([]hostif.PageDesc, 0, cfg.BufferBytes/pageBytes)
	}
	submit := func(ti int, at vclock.Time) error {
		pages := descs[ti][:0]
		for off := 0; off+pageBytes <= cfg.BufferBytes; off += pageBytes {
			pages = append(pages, hostif.PageDesc{
				ID:     int64(bufIdx*1_000_000 + off),
				Offset: off,
				Length: pageBytes,
			})
		}
		descs[ti] = pages
		bufIdx++
		cmd := qps[ti].AcquireCommand() // depth 1: same recycled slot each loop
		cmd.Op, cmd.NSID, cmd.Data, cmd.Descs = hostif.OpFlush, nsid, buf, pages
		return qps[ti].Push(at, cmd)
	}
	var end vclock.Time
	issued := make([]int, threads)
	for i := range qps {
		if err := submit(i, 0); err != nil {
			return Fig7Point{}, err
		}
		issued[i]++
	}
	qid0 := qps[0].ID() // I/O queue IDs start after the admin queue
	err = reapLoop(host, "fig7", threads*cfg.BuffersPerThread, func(comp hostif.Completion) error {
		if comp.Done > end {
			end = comp.Done
		}
		if ti := comp.QueueID - qid0; issued[ti] < cfg.BuffersPerThread {
			if err := submit(ti, comp.Done); err != nil {
				return err
			}
			issued[ti]++
		}
		return nil
	})
	if err != nil {
		return Fig7Point{}, err
	}
	// The utilization figures are an admin log page read at the last
	// completion instant.
	util, err := admin.Utilization(end)
	if err != nil {
		return Fig7Point{}, err
	}
	totalBytes := int64(threads) * int64(cfg.BuffersPerThread) * int64(cfg.BufferBytes)
	return Fig7Point{
		Threads:     threads,
		Utilization: util.MemBus,
		CoreUtil:    util.Core,
		MBps:        float64(totalBytes) / 1e6 / end.Seconds(),
		Elapsed:     end.Sub(0),
	}, nil
}

// Figure7Table renders the utilization-vs-threads series.
func Figure7Table(points []Fig7Point) *Table {
	t := &Table{
		Title:   "Figure 7: impact of data copies on storage controller utilization (OX-ELEOS writes)",
		Headers: []string{"host threads", "membus util %", "ingest MB/s", "core util %"},
	}
	for _, p := range points {
		t.Add(p.Threads,
			fmt.Sprintf("%.1f", p.Utilization*100),
			fmt.Sprintf("%.0f", p.MBps),
			fmt.Sprintf("%.1f", p.CoreUtil*100),
		)
	}
	return t
}
