package exp

import (
	"fmt"

	"repro/internal/dbbench"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Fig5Config parameterizes the db_bench reproduction (Figures 5 and 6):
// fill-sequential, read-sequential and read-random with 16 B keys and
// 1 KB values, for horizontal and vertical SSTable placement across
// client counts. Data volume is scaled down from the paper's 3 GB per
// client (see EXPERIMENTS.md); SSTable sizing keeps the paper's rule
// (chunks = number of PUs, so SSTable = #PUs × chunk size).
type Fig5Config struct {
	ClientCounts []int
	// FillOpsPerClient is the number of 1 KB puts per client.
	FillOpsPerClient int
	// ReadOpsPerClient bounds the read workloads.
	ReadOpsPerClient int
	Seed             int64
	// TimelineBucket samples fill throughput over time (Figure 6).
	TimelineBucket vclock.Duration
	// PagesPerBlock sizes the rig's chunks (48 → 1.5 MB chunks and
	// 48 MB SSTables with the paper's 32-PU striping rule).
	PagesPerBlock int
	// MemtableMB sizes the write buffer; the paper pins SSTable size
	// (768 MB) to the flush size, so this should be close to the
	// 32-chunk table capacity.
	MemtableMB int
	// Notify switches the host-interface client from Reap-polling to
	// interrupt-style completion notification (timing-equivalent; the
	// tables are identical either way).
	Notify bool
	// Executor/Workers select the host's command-service engine
	// (results are identical for either engine).
	Executor hostif.ExecutorKind
	Workers  int
}

// DefaultFig5 returns the scaled default configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		ClientCounts:     []int{1, 2, 4, 8},
		FillOpsPerClient: 64_000, // 64 MB per client (paper: 3 GB)
		ReadOpsPerClient: 4_000,
		Seed:             7,
		TimelineBucket:   200 * vclock.Millisecond,
		PagesPerBlock:    48, // 1.5 MB chunks → 48 MB SSTables
		MemtableMB:       32,
	}
}

// Fig5Cell is one bar of Figure 5.
type Fig5Cell struct {
	Workload  dbbench.Workload
	Placement lightlsm.Placement
	Clients   int
	KOps      float64 // thousands of operations per second
	Stall     vclock.Duration
	Timeline  *metrics.Timeline // fill only (Figure 6)
}

// Figure5 runs the full grid: for each placement and client count it
// fills a fresh database, then runs the two read workloads over it.
func Figure5(cfg Fig5Config) ([]Fig5Cell, error) {
	var out []Fig5Cell
	for _, placement := range []lightlsm.Placement{lightlsm.Horizontal, lightlsm.Vertical} {
		for _, clients := range cfg.ClientCounts {
			cells, err := figure5Run(cfg, placement, clients)
			if err != nil {
				return out, fmt.Errorf("fig5 %v %d clients: %w", placement, clients, err)
			}
			out = append(out, cells...)
		}
	}
	return out, nil
}

func figure5Run(cfg Fig5Config, placement lightlsm.Placement, clients int) ([]Fig5Cell, error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	if cfg.PagesPerBlock > 0 {
		rigCfg.PagesPerBlock = cfg.PagesPerBlock
	}
	// Keep the write-back cache small relative to the fill volume so
	// media drain speed matters, as it does at the paper's 3 GB scale.
	rigCfg.CacheMB = 4
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return nil, err
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: placement})
	if err != nil {
		return nil, err
	}
	// The database drives the FTL through the host interface: every
	// SSTable command (create/append/commit/read/delete) crosses a
	// queue pair instead of calling LightLSM directly. Attachment is
	// all admin-queue commands; cfg.Notify swaps Reap-polling for
	// interrupt-style completion delivery.
	host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{}, cfg.Executor, cfg.Workers))
	defer host.Close()
	cli, err := hostif.AttachLSM(host, env)
	if err != nil {
		return nil, err
	}
	if cfg.Notify {
		cli.EnableNotify()
	}
	memtable := int64(cfg.MemtableMB)
	if memtable <= 0 {
		memtable = 32
	}
	db, err := lsm.Open(lsm.Options{
		Env:           cli,
		MemtableBytes: memtable << 20,
		// Flush pipelining grows with client pressure: a deeper write-
		// buffer queue over four background flushes lets vertical
		// placement spread concurrent flushes across groups.
		MaxImmutables: 6,
		FlushWorkers:  4,
		Seed:          cfg.Seed,
		// RocksDB's rate limiter, whose throttling the paper blames for
		// Figure 6's fluctuation.
		RateLimitMBps: 400,
	})
	if err != nil {
		return nil, err
	}

	bench := dbbench.Config{
		Clients:        clients,
		KeySize:        16,
		ValueSize:      1024,
		OpsPerClient:   cfg.FillOpsPerClient,
		Seed:           cfg.Seed,
		TimelineBucket: cfg.TimelineBucket,
	}
	fill, err := dbbench.Run(db, dbbench.FillSequential, bench, 0)
	if err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	cells := []Fig5Cell{{
		Workload:  dbbench.FillSequential,
		Placement: placement,
		Clients:   clients,
		KOps:      fill.OpsPerSec / 1000,
		Stall:     db.Stats().StallTime,
		Timeline:  fill.Timeline,
	}}

	start := db.WaitIdle(fill.End)
	bench.OpsPerClient = cfg.ReadOpsPerClient
	bench.TimelineBucket = 0
	for _, w := range []dbbench.Workload{dbbench.ReadSequential, dbbench.ReadRandom} {
		res, err := dbbench.Run(db, w, bench, start)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", w, err)
		}
		cells = append(cells, Fig5Cell{
			Workload:  w,
			Placement: placement,
			Clients:   clients,
			KOps:      res.OpsPerSec / 1000,
		})
	}
	return cells, nil
}

// Figure5Table renders the grid like the paper's bar chart: workloads ×
// placements as columns, client counts as rows, in thousands of ops/sec.
func Figure5Table(cells []Fig5Cell) *Table {
	t := &Table{
		Title: "Figure 5: db_bench average throughput (operations/sec, thousands)",
		Headers: []string{"clients",
			"fill-seq horiz", "fill-seq vert",
			"read-seq horiz", "read-seq vert",
			"read-rand horiz", "read-rand vert"},
	}
	type key struct {
		w dbbench.Workload
		p lightlsm.Placement
		c int
	}
	m := map[key]float64{}
	clientSet := map[int]bool{}
	var clients []int
	for _, c := range cells {
		m[key{c.Workload, c.Placement, c.Clients}] = c.KOps
		if !clientSet[c.Clients] {
			clientSet[c.Clients] = true
			clients = append(clients, c.Clients)
		}
	}
	for _, n := range clients {
		t.Add(
			fmt.Sprintf("%d", n),
			m[key{dbbench.FillSequential, lightlsm.Horizontal, n}],
			m[key{dbbench.FillSequential, lightlsm.Vertical, n}],
			m[key{dbbench.ReadSequential, lightlsm.Horizontal, n}],
			m[key{dbbench.ReadSequential, lightlsm.Vertical, n}],
			m[key{dbbench.ReadRandom, lightlsm.Horizontal, n}],
			m[key{dbbench.ReadRandom, lightlsm.Vertical, n}],
		)
	}
	return t
}

// Figure6Table renders throughput-over-time series for the fill runs
// (one row per time bucket; columns are client counts), matching
// Figure 6's two panels.
func Figure6Table(cells []Fig5Cell, placement lightlsm.Placement) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: fill-sequential throughput over time, %v placement (ops/sec, thousands)", placement),
		Headers: []string{"t (s)"},
	}
	var series []*metrics.Timeline
	var counts []int
	for _, c := range cells {
		if c.Workload == dbbench.FillSequential && c.Placement == placement && c.Timeline != nil {
			series = append(series, c.Timeline)
			counts = append(counts, c.Clients)
			t.Headers = append(t.Headers, fmt.Sprintf("%d clients", c.Clients))
		}
	}
	if len(series) == 0 {
		return t
	}
	points := make([][]metrics.Point, len(series))
	maxLen := 0
	for i, tl := range series {
		points[i] = tl.Series()
		if len(points[i]) > maxLen {
			maxLen = len(points[i])
		}
	}
	for row := 0; row < maxLen; row++ {
		cellsOut := make([]any, 0, len(series)+1)
		var ts float64
		for i := range points {
			if row < len(points[i]) {
				ts = points[i][row].T.Seconds()
				break
			}
		}
		cellsOut = append(cellsOut, fmt.Sprintf("%.1f", ts))
		for i := range points {
			if row < len(points[i]) {
				cellsOut = append(cellsOut, points[i][row].Rate/1000)
			} else {
				cellsOut = append(cellsOut, "")
			}
		}
		t.Add(cellsOut...)
	}
	return t
}
