package exp

import (
	"strings"
	"testing"

	"repro/internal/dbbench"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/vclock"
)

// Scaled-down configurations keep these integration tests fast; the
// full-scale runs live in the root bench_test.go and cmd/oxbench.

func smallFig3() Fig3Config {
	return Fig3Config{
		FailPoints: []vclock.Duration{2 * vclock.Second, 4 * vclock.Second, 6 * vclock.Second},
		Intervals:  []vclock.Duration{0, 1 * vclock.Second},
		TxnPages:   64,
		TxnEvery:   20 * vclock.Millisecond,
		Seed:       3,
	}
}

func TestFigure3Shape(t *testing.T) {
	points, err := Figure3(smallFig3())
	if err != nil {
		t.Fatal(err)
	}
	byInterval := map[vclock.Duration][]Fig3Point{}
	for _, p := range points {
		byInterval[p.Interval] = append(byInterval[p.Interval], p)
	}
	none := byInterval[0]
	ckpt := byInterval[vclock.Second]
	if len(none) != 3 || len(ckpt) != 3 {
		t.Fatalf("points: %d/%d", len(none), len(ckpt))
	}
	// Without checkpoints, recovery grows with the failure time.
	if !(none[0].RecoverySecs < none[2].RecoverySecs) {
		t.Fatalf("no-checkpoint recovery not increasing: %v vs %v",
			none[0].RecoverySecs, none[2].RecoverySecs)
	}
	// With checkpoints, recovery at the last failure point is far lower.
	if ckpt[2].RecoverySecs >= none[2].RecoverySecs/2 {
		t.Fatalf("checkpointing did not bound recovery: %.3f vs %.3f",
			ckpt[2].RecoverySecs, none[2].RecoverySecs)
	}
	// Replay volume shrinks accordingly.
	if ckpt[2].Replayed >= none[2].Replayed {
		t.Fatalf("checkpointing did not bound replay: %d vs %d",
			ckpt[2].Replayed, none[2].Replayed)
	}
	// The render includes every failure point.
	table := Figure3Table(points)
	out := table.Render()
	if !strings.Contains(out, "T=2s") || !strings.Contains(out, "T=6s") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func smallFig5() Fig5Config {
	return Fig5Config{
		ClientCounts:     []int{1, 4, 8},
		FillOpsPerClient: 16000,
		ReadOpsPerClient: 1500,
		Seed:             7,
		TimelineBucket:   100 * vclock.Millisecond,
		PagesPerBlock:    12, // 384 KB chunks → 12 MB tables
		MemtableMB:       8,
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cells, err := Figure5(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	get := func(w dbbench.Workload, p lightlsm.Placement, c int) float64 {
		for _, cell := range cells {
			if cell.Workload == w && cell.Placement == p && cell.Clients == c {
				return cell.KOps
			}
		}
		t.Fatalf("missing cell %v %v %d", w, p, c)
		return 0
	}
	// Shape 1: writes are much faster than reads (write-back cache).
	if get(dbbench.FillSequential, lightlsm.Horizontal, 1) <= get(dbbench.ReadRandom, lightlsm.Horizontal, 1) {
		t.Error("fill should beat read-random (write-back policy)")
	}
	// Shape 2: read-sequential beats read-random.
	for _, p := range []lightlsm.Placement{lightlsm.Horizontal, lightlsm.Vertical} {
		if get(dbbench.ReadSequential, p, 1) <= get(dbbench.ReadRandom, p, 1) {
			t.Errorf("%v: read-seq should beat read-random", p)
		}
	}
	// Shape 3: under flush backpressure (4 clients here), horizontal fill
	// beats vertical fill — the SSTable is striped across all PUs, so a
	// single flush streams at the whole device's bandwidth rather than
	// one group's (§4.3: "with one thread we observe 4x more throughput
	// with horizontal placement").
	h4 := get(dbbench.FillSequential, lightlsm.Horizontal, 4)
	v4 := get(dbbench.FillSequential, lightlsm.Vertical, 4)
	if h4 <= v4 {
		t.Errorf("horizontal fill (%.1f) should beat vertical (%.1f) under backpressure", h4, v4)
	}
	// Shape 4: horizontal fill degrades sharply at 8 clients (§4.3:
	// "performance degrades by 60% when considering 4 or 8 db_bench
	// threads"). NOTE: the paper's 8-client vertical>horizontal
	// crossover — which the authors themselves call "unexpected" — is
	// not reproduced; see EXPERIMENTS.md.
	h8 := get(dbbench.FillSequential, lightlsm.Horizontal, 8)
	if h8 >= h4*0.6 {
		t.Errorf("horizontal fill should degrade at 8 clients: %.1f -> %.1f", h4, h8)
	}
	// Shape 5: horizontal placement dominates vertical on reads
	// ("Horizontal placement consistently dominates vertical placement",
	// with marginal impact) — allow a small tolerance.
	for _, n := range []int{4, 8} {
		hr := get(dbbench.ReadRandom, lightlsm.Horizontal, n)
		vr := get(dbbench.ReadRandom, lightlsm.Vertical, n)
		if hr < vr*0.9 {
			t.Errorf("%d clients: horizontal read-random (%.1f) far below vertical (%.1f)", n, hr, vr)
		}
	}
	// Figure 6 tables render with timelines.
	f6 := Figure6Table(cells, lightlsm.Horizontal)
	if len(f6.Rows) == 0 {
		t.Error("figure 6 table empty")
	}
	if !strings.Contains(Figure5Table(cells).Render(), "fill-seq horiz") {
		t.Error("figure 5 render broken")
	}
}

func TestFigure7Shape(t *testing.T) {
	cfg := DefaultFig7()
	cfg.BuffersPerThread = 10
	points, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Utilization is monotone in thread count and saturates by 2 threads
	// (the paper: "The storage controller is saturated with 2 host
	// threads").
	if points[0].Utilization >= 0.95 {
		t.Errorf("1 thread already saturated: %.2f", points[0].Utilization)
	}
	if points[1].Utilization < 0.85 {
		t.Errorf("2 threads should (near-)saturate the bus: %.2f", points[1].Utilization)
	}
	if points[2].Utilization < 0.93 || points[3].Utilization < 0.93 {
		t.Errorf("4/8 threads should pin the bus: %.2f %.2f",
			points[2].Utilization, points[3].Utilization)
	}
	// Throughput stops scaling once the bus is saturated.
	if points[3].MBps > points[1].MBps*1.35 {
		t.Errorf("throughput kept scaling past saturation: %v", points)
	}
	if len(Figure7Table(points).Rows) != 4 {
		t.Error("figure 7 table broken")
	}
}

func TestFigure7ZeroCopyAblation(t *testing.T) {
	base := DefaultFig7()
	base.BuffersPerThread = 8
	base.ThreadCounts = []int{2}
	with, err := Figure7(base)
	if err != nil {
		t.Fatal(err)
	}
	base.ZeroCopyRX = true
	without, err := Figure7(base)
	if err != nil {
		t.Fatal(err)
	}
	// §4.4: avoiding the RX copy raises achievable throughput.
	if without[0].MBps <= with[0].MBps {
		t.Errorf("zero-copy should raise throughput: %.0f vs %.0f",
			without[0].MBps, with[0].MBps)
	}
}

func TestGCLocalityMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := DefaultGCLocality()
	cfg.TxnsPerWriter = 2400
	points, err := GCLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Collections == 0 {
			t.Fatalf("%d channels: GC never ran", p.Channels)
		}
		// The paper: 87.5% at 8 channels, 93.7% at 16. Allow ±8pp of
		// sampling noise around the structural expectation (in-window
		// samples are sparse at test scale).
		if diff := p.Unaffected - p.Expected; diff < -0.08 || diff > 0.08 {
			t.Errorf("%d channels: unaffected %.1f%%, expected %.1f%%",
				p.Channels, p.Unaffected*100, p.Expected*100)
		}
	}
	if len(GCLocalityTable(points).Rows) != len(points) {
		t.Error("table broken")
	}
}

func TestUnitOfWriteMatchesPaper(t *testing.T) {
	rows := UnitOfWrite()
	lookup := func(cell, planes int) int {
		for _, r := range rows {
			if int(r.Cell) == cell && r.Planes == planes {
				return r.Unit
			}
		}
		return -1
	}
	// §2.2: dual-plane TLC → 24 sectors = 96 KB.
	if lookup(3, 2) != 96*1024 {
		t.Errorf("TLC×2 = %d, want 96KB", lookup(3, 2))
	}
	// §2.1: QLC with 4 planes → 256 KB.
	if lookup(4, 4) != 256*1024 {
		t.Errorf("QLC×4 = %d, want 256KB", lookup(4, 4))
	}
	// SLC single plane: one 16 KB page.
	if lookup(1, 1) != 16*1024 {
		t.Errorf("SLC×1 = %d, want 16KB", lookup(1, 1))
	}
	if len(UnitOfWriteTable(rows).Rows) != 12 {
		t.Error("table should have 12 rows")
	}
}

func smallQD() QDSweepConfig {
	return QDSweepConfig{
		Depths:       []int{1, 4, 16},
		Ops:          400,
		TxnPages:     32,
		ReadPages:    32,
		LogicalPages: 4096,
		Seed:         17,
	}
}

func TestQDSweepShape(t *testing.T) {
	points, err := QDSweep(smallQD())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Deeper queues never lose throughput at this scale...
	if points[2].KIOPS < points[0].KIOPS {
		t.Errorf("QD16 throughput (%.2f) below QD1 (%.2f)", points[2].KIOPS, points[0].KIOPS)
	}
	// ...and pay for it in queueing latency.
	if points[2].WriteLat.Percentile(99) < points[0].WriteLat.Percentile(99) {
		t.Errorf("QD16 write p99 (%v) below QD1 (%v)",
			points[2].WriteLat.Percentile(99), points[0].WriteLat.Percentile(99))
	}
	for _, p := range points {
		if p.WriteLat.Count()+p.ReadLat.Count() != int64(p.Ops) {
			t.Errorf("QD%d: %d latencies recorded for %d ops",
				p.Depth, p.WriteLat.Count()+p.ReadLat.Count(), p.Ops)
		}
	}
	out := QDSweepTable(points).Render()
	if !strings.Contains(out, "wr p99") || !strings.Contains(out, "rd p50") {
		t.Fatalf("table missing latency columns:\n%s", out)
	}
}

// TestQDSweepDeterministic pins the queue-pair determinism contract at
// the scenario level: two runs with the same seed render byte-identical
// tables.
func TestQDSweepDeterministic(t *testing.T) {
	cfg := smallQD()
	cfg.Depths = []int{4}
	a, err := QDSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QDSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := QDSweepTable(a).Render(), QDSweepTable(b).Render()
	if ta != tb {
		t.Fatalf("tables differ across identical runs:\n%s\nvs\n%s", ta, tb)
	}
}

func TestTenantsFairness(t *testing.T) {
	cfg := DefaultTenants()
	cfg.OpsPerTenant = 300
	cfg.PagesPerTenant = 2048
	points, err := Tenants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != cfg.Tenants {
		t.Fatalf("points = %d", len(points))
	}
	// Symmetric tenants behind round-robin arbitration finish with
	// near-identical throughput.
	minK, maxK := points[0].KIOPS, points[0].KIOPS
	for _, p := range points {
		if p.KIOPS < minK {
			minK = p.KIOPS
		}
		if p.KIOPS > maxK {
			maxK = p.KIOPS
		}
	}
	if minK <= 0 || maxK/minK > 1.10 {
		t.Errorf("tenant throughput unfair: min %.2f max %.2f kIOPS", minK, maxK)
	}
	if len(TenantsTable(points).Rows) != cfg.Tenants {
		t.Error("tenants table broken")
	}
}

func TestTenantsQoSIsolation(t *testing.T) {
	cfg := DefaultTenantsQoS()
	cfg.OpsPerTenant = 200
	cfg.PagesPerTenant = 2048
	points, err := TenantsQoS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != cfg.Tenants {
		t.Fatalf("points = %d", len(points))
	}
	iso := func(p TenantPoint) float64 {
		if p.SoloP99 <= 0 {
			t.Fatalf("tenant %d missing solo baseline", p.Tenant)
		}
		return p.Lat.Percentile(99).Seconds() / p.SoloP99.Seconds()
	}
	// The high-class tenant pushes 4x the load yet its isolation factor
	// must not exceed the low-class batch tenant's.
	if hi, lo := iso(points[0]), iso(points[3]); hi > lo {
		t.Errorf("high-class isolation %.2fx worse than low-class %.2fx", hi, lo)
	}
	table := TenantsQoSTable(points)
	if len(table.Rows) != cfg.Tenants {
		t.Error("QoS table broken")
	}
	if out := table.Render(); !strings.Contains(out, "high") || !strings.Contains(out, "solo p99") {
		t.Errorf("QoS render missing columns:\n%s", out)
	}
}

func TestWRRSweepShape(t *testing.T) {
	cfg := DefaultWRRSweep()
	cfg.Ops = 180
	cfg.PagesPerTenant = 2048
	run := func() []WRRPoint {
		points, err := WRRSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	points := run()
	if len(points) != len(cfg.Classes) {
		t.Fatalf("points = %d", len(points))
	}
	// Sharing the batch tenant's low class must cost tail latency
	// against every preempting class.
	low := points[len(points)-1]
	for _, p := range points[:len(points)-1] {
		if low.Lat.Percentile(99) < p.Lat.Percentile(99) {
			t.Errorf("low-class p99 %v beat %v-class p99 %v",
				low.Lat.Percentile(99), p.Class, p.Lat.Percentile(99))
		}
	}
	// Deterministic: an identical run renders the identical table.
	if a, b := WRRSweepTable(points).Render(), WRRSweepTable(run()).Render(); a != b {
		t.Fatalf("tables differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "b"}}
	tab.Add("x", 1.5)
	tab.Add("longer", "cell,with,commas")
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "1.500") {
		t.Fatalf("render:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"cell,with,commas"`) {
		t.Fatalf("csv escaping broken:\n%s", csv)
	}
}

func smallScale() ScaleConfig {
	return ScaleConfig{
		PUCounts:     []int{1, 4, 128},
		Workers:      []int{2},
		AppendsPerPU: 24,
		MaxOps:       512,
		AppendBlocks: 2,
		Seed:         13,
	}
}

// TestExecutorEquivalence is the oracle of the execution engines at
// sweep level. The figure scenarios run only the serial executor; the
// scale sweep is the one scenario that runs both, and Scale itself fails
// when an engine row's per-completion digest diverges from the serial
// row's. Here two invocations must also agree on the deterministic
// virtual columns (wall/speedup vary run to run and are excluded).
func TestExecutorEquivalence(t *testing.T) {
	t.Run("scale", func(t *testing.T) {
		first, err := Scale(smallScale())
		if err != nil {
			t.Fatal(err)
		}
		again, err := Scale(smallScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("second invocation: %d points, want %d", len(again), len(first))
		}
		for i, p := range first {
			q := again[i]
			if p.PUs != q.PUs || p.Executor != q.Executor || p.Ops != q.Ops || p.Elapsed != q.Elapsed || p.VirtMBps != q.VirtMBps {
				t.Fatalf("row %d differs across invocations:\n%+v\n%+v", i, p, q)
			}
		}
	})
}

// TestScaleShape checks the scale sweep's structure: the serial row and
// every engine row agree on every completion (enforced inside Scale),
// the engine rows realize overlap on multi-PU geometry and amortize
// arbitration acquisitions, the packed per-chunk metadata stays within
// budget, and the table renders every row. One PU count above 64
// exercises the deep-group geometry (64 groups, PUs/group > 1) with the
// MaxOps cap.
func TestScaleShape(t *testing.T) {
	cfg := smallScale()
	points, err := Scale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(cfg.PUCounts) * (1 + len(cfg.Workers))
	if len(points) != wantRows {
		t.Fatalf("points = %d, want %d", len(points), wantRows)
	}
	var sawOverlap bool
	for _, p := range points {
		if p.Executor == hostif.ExecutorSerial && p.Overlapped != 0 {
			t.Errorf("serial row reports overlap: %+v", p)
		}
		if p.Executor == hostif.ExecutorBatched && p.PUs > 1 {
			sawOverlap = sawOverlap || p.Overlapped > 0
			// With several queues feeding one doorbell instant, a batch
			// must take fewer acquisitions than grants.
			if p.AcqPerGrant >= 1 {
				t.Errorf("engine %d-PU row did not amortize: acq/grant = %.3f", p.PUs, p.AcqPerGrant)
			}
		}
		if p.MetaBytesPerChunk <= 0 || p.MetaBytesPerChunk >= 64 {
			t.Errorf("%d-PU metadata footprint out of budget: %.1f B/chunk (packed struct is 24 B)", p.PUs, p.MetaBytesPerChunk)
		}
	}
	if !sawOverlap {
		t.Error("engine multi-PU rows realized no overlap")
	}
	if rows := len(ScaleTable(points).Rows); rows != wantRows {
		t.Fatalf("table rows = %d, want %d", rows, wantRows)
	}
}
