// Benchmarks regenerating every table and figure of the paper's
// evaluation (run: go test -bench=. -benchmem). Each benchmark executes
// the corresponding experiment end to end in virtual time and reports
// the headline quantity as a custom metric; the rendered tables are
// logged with -v. Ablation benchmarks cover the design choices DESIGN.md
// calls out (group-marked vs global GC, zero-copy receive, write-back
// cache, checkpoint interval).
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/landscape"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/netfault"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// benchFig3 is a bench-scale Figure 3 grid (≈½ of the default).
func benchFig3() exp.Fig3Config {
	cfg := exp.DefaultFig3()
	cfg.FailPoints = []vclock.Duration{
		5 * vclock.Second, 10 * vclock.Second, 15 * vclock.Second,
		20 * vclock.Second, 25 * vclock.Second, 30 * vclock.Second,
	}
	return cfg
}

func BenchmarkFigure3Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure3(benchFig3())
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(points[5].RecoverySecs, "noCkptRecovery_s")
		b.ReportMetric(last.RecoverySecs, "ci30Recovery_s")
		if i == 0 {
			b.Log("\n" + exp.Figure3Table(points).Render())
		}
	}
}

// benchFig5 is a bench-scale Figure 5/6 configuration.
func benchFig5() exp.Fig5Config {
	return exp.Fig5Config{
		ClientCounts:     []int{1, 2, 4, 8},
		FillOpsPerClient: 16000,
		ReadOpsPerClient: 2000,
		Seed:             7,
		TimelineBucket:   100 * vclock.Millisecond,
		PagesPerBlock:    12,
		MemtableMB:       8,
	}
}

func BenchmarkFigure5DbBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := exp.Figure5(benchFig5())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Clients == 1 && c.Workload == 0 && c.Placement == 0 {
				b.ReportMetric(c.KOps, "fillH1_kops")
			}
		}
		if i == 0 {
			b.Log("\n" + exp.Figure5Table(cells).Render())
		}
	}
}

// BenchmarkFigure5DbBenchNotify is the notification-mode twin of
// BenchmarkFigure5DbBench: the host-interface client consumes
// completions through interrupt-style notification instead of polling
// Reap. Virtual-time results are identical by the timing-equality
// contract; the entry exists so benchcheck tracks the notification
// path's allocation budget separately.
func BenchmarkFigure5DbBenchNotify(b *testing.B) {
	cfg := benchFig5()
	cfg.Notify = true
	for i := 0; i < b.N; i++ {
		cells, err := exp.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Clients == 1 && c.Workload == 0 && c.Placement == 0 {
				b.ReportMetric(c.KOps, "fillH1_kops")
			}
		}
		if i == 0 {
			b.Log("\n" + exp.Figure5Table(cells).Render())
		}
	}
}

func BenchmarkFigure6Timeline(b *testing.B) {
	cfg := benchFig5()
	cfg.ClientCounts = []int{1, 8}
	for i := 0; i < b.N; i++ {
		cells, err := exp.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.Figure6Table(cells, 0).Render())
			b.Log("\n" + exp.Figure6Table(cells, 1).Render())
		}
	}
}

func BenchmarkFigure7DataCopies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure7(exp.DefaultFig7())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Utilization*100, "util1thread_pct")
		b.ReportMetric(points[1].Utilization*100, "util2threads_pct")
		if i == 0 {
			b.Log("\n" + exp.Figure7Table(points).Render())
		}
	}
}

func BenchmarkGCLocalityTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.GCLocality(exp.DefaultGCLocality())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Channels == 16 {
				b.ReportMetric(p.Unaffected*100, "unaffected16ch_pct")
			}
		}
		if i == 0 {
			b.Log("\n" + exp.GCLocalityTable(points).Render())
		}
	}
}

func BenchmarkUnitOfWriteTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.UnitOfWrite()
		if len(rows) != 12 {
			b.Fatal("table incomplete")
		}
		if i == 0 {
			b.Log("\n" + exp.UnitOfWriteTable(rows).Render())
		}
	}
}

func BenchmarkFigure1Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := landscape.Render()
		if len(out) == 0 {
			b.Fatal("empty landscape")
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkQDSweep regenerates the queue-depth sweep: throughput and
// per-command-type latency percentiles through one host-interface
// queue pair.
func BenchmarkQDSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.QDSweep(exp.DefaultQDSweep())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].KIOPS, "qd1_kIOPS")
		b.ReportMetric(points[len(points)-1].KIOPS, "qd32_kIOPS")
		if i == 0 {
			b.Log("\n" + exp.QDSweepTable(points).Render())
		}
	}
}

// BenchmarkTenants regenerates the multi-tenant namespace scenario.
func BenchmarkTenants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Tenants(exp.DefaultTenants())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].KIOPS, "tenant0_kIOPS")
		if i == 0 {
			b.Log("\n" + exp.TenantsTable(points).Render())
		}
	}
}

// BenchmarkTenantsQoS regenerates the asymmetric multi-tenant QoS
// scenario: WRR classes, unequal load, shared-vs-solo p99 isolation.
func BenchmarkTenantsQoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.TenantsQoS(exp.DefaultTenantsQoS())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Lat.Percentile(99).Seconds()*1000, "highP99_ms")
		b.ReportMetric(points[3].Lat.Percentile(99).Seconds()*1000, "lowP99_ms")
		if i == 0 {
			b.Log("\n" + exp.TenantsQoSTable(points).Render())
		}
	}
}

// BenchmarkWRRSweep regenerates the arbitration-class sweep.
func BenchmarkWRRSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.WRRSweep(exp.DefaultWRRSweep())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Lat.Percentile(99).Seconds()*1000, "urgentP99_ms")
		b.ReportMetric(points[len(points)-1].Lat.Percentile(99).Seconds()*1000, "lowP99_ms")
		if i == 0 {
			b.Log("\n" + exp.WRRSweepTable(points).Render())
		}
	}
}

// BenchmarkFabricLoopback measures the fabric transport's wall-clock
// and allocation overhead: submit-to-completion round trips through
// the full wire path (encode, CRC, frame the doorbell batch, server
// drain, completion push, decode) over the in-process loopback. Each
// iteration is 64 pairs of one 4 KB write and one 4 KB read, so
// allocs/op amortizes pool warm-up noise; the steady-state figure is
// the tracked budget — the wire layer is designed to recycle every
// frame and data buffer.
func BenchmarkFabricLoopback(b *testing.B) {
	_, ctrl, err := exp.DefaultRig().Build()
	if err != nil {
		b.Fatal(err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 4096}, 0)
	if err != nil {
		b.Fatal(err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		b.Fatal(err)
	}
	srv := fabrics.NewServer(host)
	defer srv.Close()
	qp, err := fabrics.Loopback(srv).QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer qp.Close()

	const span = 64 // pages cycled through
	data := make([]byte, 4096)
	at := now
	roundtrip := func(write bool, lpn int64) {
		cmd := qp.AcquireCommand()
		if write {
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, nsid, lpn, data
		} else {
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, nsid, lpn, 1
		}
		if err := qp.Push(at, cmd); err != nil {
			b.Fatal(err)
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			b.Fatal(comp.Err)
		}
		at = comp.Done
	}
	// Warm-up: map the span and fill the frame/data buffer pools.
	for lpn := int64(0); lpn < span; lpn++ {
		roundtrip(true, lpn)
		roundtrip(false, lpn)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lpn := int64(0); lpn < span; lpn++ {
			roundtrip(true, lpn)
			roundtrip(false, lpn)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*2*span/b.Elapsed().Seconds()/1000, "wire_kops_wall")
}

// BenchmarkFabricReconnect measures the session-resumption path: the
// netfault proxy kills the connection on every fourth data frame
// (looping), so each iteration's four write round trips include one
// full redial — dial, token re-handshake, un-acked command replay,
// dedup'd completion redelivery. The delta against BenchmarkFabricLoopback
// is the price of surviving a connection loss.
func BenchmarkFabricReconnect(b *testing.B) {
	_, ctrl, err := exp.DefaultRig().Build()
	if err != nil {
		b.Fatal(err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 4096}, 0)
	if err != nil {
		b.Fatal(err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		b.Fatal(err)
	}
	srv := fabrics.NewServer(host)
	defer srv.Close()
	proxy := netfault.New(fabrics.LoopbackDial(srv), netfault.Config{
		Script: []netfault.Event{{After: 4, Action: netfault.Kill}},
		Loop:   true,
	})
	cli := fabrics.NewClient(proxy.Dial).WithConfig(fabrics.Config{
		Redial: fabrics.RedialConfig{MaxAttempts: 10, Base: 50 * time.Microsecond, Cap: time.Millisecond, Seed: 3},
	})
	qp, err := cli.QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer qp.Close()

	const span = 64
	data := make([]byte, 4096)
	at := now
	write := func(lpn int64) {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, nsid, lpn, data
		if err := qp.Push(at, cmd); err != nil {
			b.Fatal(err)
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			b.Fatal(comp.Err)
		}
		at = comp.Done
	}
	// Warm-up: map the span, fill the pools, take the first kill.
	for lpn := int64(0); lpn < span; lpn++ {
		write(lpn)
	}

	warm := qp.Stats().Redials
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			write(int64((i*4 + k) % span))
		}
	}
	b.StopTimer()
	redials := qp.Stats().Redials - warm
	b.ReportMetric(float64(redials)/float64(b.N), "redials_per_op")
}

// BenchmarkHostPipelinedExecutor measures the pipelined execution
// engine against the serial reference on the scale scenario's widest
// geometry: 8 parallel units of disjoint-group zone appends, serial vs
// a worker pool sized to the machine (minimum 2 workers, the smallest
// pool that can overlap). Virtual-time results are bit-identical by the
// determinism contract (exp.Scale fails the run otherwise); the
// benchmark tracks wall-clock. speedup_x is serial wall over pipelined
// wall — above 1 when GOMAXPROCS allows real parallelism, around 1 on
// a single-core runner where overlap cannot buy wall-clock time. Each
// executor's point is matched by kind and filed under its own name
// (serial_ms, pipelined_ms, batched_ms).
func BenchmarkHostPipelinedExecutor(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	cfg := exp.DefaultScale()
	cfg.PUCounts = []int{8}
	cfg.Workers = []int{workers}
	for i := 0; i < b.N; i++ {
		points, err := exp.Scale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var serial, pipelined, batched exp.ScalePoint
		for _, p := range points {
			switch p.Executor {
			case hostif.ExecutorSerial:
				serial = p
			case hostif.ExecutorPipelined:
				pipelined = p
			case hostif.ExecutorBatched:
				batched = p
			}
		}
		b.ReportMetric(float64(serial.Wall.Microseconds())/1000, "serial_ms")
		b.ReportMetric(float64(pipelined.Wall.Microseconds())/1000, "pipelined_ms")
		b.ReportMetric(float64(batched.Wall.Microseconds())/1000, "batched_ms")
		b.ReportMetric(pipelined.Speedup, "speedup_x")
		b.ReportMetric(float64(pipelined.Overlapped), "overlapped")
		if i == 0 {
			b.Log("\n" + exp.ScaleTable(points).Render())
		}
	}
}

// BenchmarkScaleSweep regenerates the full worker × PU sweep table.
func BenchmarkScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Scale(exp.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.ScaleTable(points).Render())
		}
	}
}

// BenchmarkScaleSweep512 is the production-scale headline: the 512-PU
// terabyte-class geometry (64 groups × 8 PUs) under the batched
// executor, serial-verified on every run. metadata_bytes_per_chunk is
// the packed per-chunk device footprint (the unpacked struct was 64 B;
// the packed one is 24 B plus slot-table overhead) and acq_per_grant
// is how many arbitration lock acquisitions a grant costs at batch 16
// — the two gated compaction metrics, tracked alongside wall clock.
func BenchmarkScaleSweep512(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	cfg := exp.DefaultScale()
	cfg.PUCounts = []int{512}
	cfg.Workers = []int{workers}
	cfg.BatchSizes = []int{hostif.DefaultBatchSize}
	for i := 0; i < b.N; i++ {
		points, err := exp.Scale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var batched exp.ScalePoint
		for _, p := range points {
			if p.Executor == hostif.ExecutorBatched {
				batched = p
			}
		}
		b.ReportMetric(batched.MetaBytesPerChunk, "metadata_bytes_per_chunk")
		b.ReportMetric(batched.AcqPerGrant, "acq_per_grant")
		b.ReportMetric(float64(batched.Wall.Microseconds())/1000, "batched_ms")
		b.ReportMetric(batched.VirtMBps, "virt_MBps")
		if i == 0 {
			b.Log("\n" + exp.ScaleTable(points).Render())
		}
	}
}

// BenchmarkPoolAcquire measures vclock.Pool's hot path: one Acquire on
// a 512-member pool per op (the indexed min-heap replaces the O(n)
// scan; allocs/op must stay 0).
func BenchmarkPoolAcquire(b *testing.B) {
	p := vclock.NewPool("bench", 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(vclock.Time(i), vclock.Microsecond)
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationGlobalGC disables group marking: interference spreads
// across all channels instead of staying on the marked one (§4.3).
func BenchmarkAblationGlobalGC(b *testing.B) {
	cfg := exp.DefaultGCLocality()
	cfg.ChannelCounts = []int{8}
	cfg.GlobalGC = true
	for i := 0; i < b.N; i++ {
		points, err := exp.GCLocality(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Unaffected*100, "unaffectedGlobalGC_pct")
		if i == 0 {
			b.Log("\n" + exp.GCLocalityTable(points).Render())
		}
	}
}

// BenchmarkAblationZeroCopy measures §4.4's co-design hint: eliding the
// network→FTL copy (AF_XDP-style) raises the saturation throughput.
func BenchmarkAblationZeroCopy(b *testing.B) {
	cfg := exp.DefaultFig7()
	cfg.ThreadCounts = []int{2}
	for i := 0; i < b.N; i++ {
		with, err := exp.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		zc := cfg
		zc.ZeroCopyRX = true
		without, err := exp.Figure7(zc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with[0].MBps, "copies_MBps")
		b.ReportMetric(without[0].MBps, "zerocopy_MBps")
	}
}

// BenchmarkAblationCheckpointInterval sweeps Ci beyond the paper's two
// settings to show the recovery/checkpoint-overhead trade-off.
// BenchmarkCrashRecovery runs a reduced crashstorm — power-cut
// kill/recover cycles on file-backed devices across all four FTLs —
// and reports the total virtual recovery time and replay volume. It
// guards the wall-clock cost of the durable backend's restore path and
// the allocation discipline of WAL replay.
func BenchmarkCrashRecovery(b *testing.B) {
	cfg := exp.DefaultCrashstorm()
	cfg.Cycles = 10
	for i := 0; i < b.N; i++ {
		points, err := exp.Crashstorm(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var recoveryMs float64
		var recs int64
		for _, p := range points {
			recoveryMs += p.RecoveryMs
			recs += p.ReplayRecs
		}
		b.ReportMetric(recoveryMs, "recoveryVirt_ms")
		b.ReportMetric(float64(recs), "replayedRecords")
		if i == 0 {
			b.Log("\n" + exp.CrashstormTable(points).Render())
		}
	}
}

func BenchmarkAblationCheckpointInterval(b *testing.B) {
	cfg := benchFig3()
	cfg.FailPoints = []vclock.Duration{20 * vclock.Second}
	cfg.Intervals = []vclock.Duration{
		0, 2 * vclock.Second, 5 * vclock.Second, 10 * vclock.Second, 30 * vclock.Second,
	}
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("Ci=%v: recovery %.2fs (replayed %d, checkpoints %d)",
					p.Interval, p.RecoverySecs, p.Replayed, p.Checkpoints)
			}
		}
	}
}

// BenchmarkOffloadGet measures the computational-storage point-lookup
// paths side by side: each iteration issues 64 offloaded gets
// (OpOffloadGet — the key goes down, only flags+value come back) and
// 64 host-side gets (the whole SSTable block crosses the host link)
// against identically pre-filled LightLSM-backed databases. Wall-clock
// and allocs/op track the offload machinery's overhead; the custom
// metrics report each path's virtual latency per lookup.
func BenchmarkOffloadGet(b *testing.B) {
	const keys, valueSize, getsPerOp = 512, 4096, 64
	build := func(offloaded bool) (*lsm.DB, vclock.Time) {
		_, ctrl, err := exp.DefaultRig().Build()
		if err != nil {
			b.Fatal(err)
		}
		env, err := lightlsm.New(ctrl, lightlsm.Config{TableChunks: 1})
		if err != nil {
			b.Fatal(err)
		}
		host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
		cli, err := hostif.AttachLSM(host, env)
		if err != nil {
			b.Fatal(err)
		}
		opts := lsm.Options{Env: cli, MemtableBytes: 256 << 10, Seed: 7}
		if offloaded {
			opts.Lookup = cli.OffloadGet
		}
		db, err := lsm.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		value := make([]byte, valueSize)
		rng := rand.New(rand.NewSource(11))
		var now vclock.Time
		for i := 0; i < keys; i++ {
			rng.Read(value)
			if now, err = db.Put(now, []byte(fmt.Sprintf("key-%04d", i)), value); err != nil {
				b.Fatal(err)
			}
		}
		if now, err = db.Flush(now); err != nil {
			b.Fatal(err)
		}
		return db, db.WaitIdle(now)
	}
	hostDB, hostNow := build(false)
	devDB, devNow := build(true)
	lookups := func(db *lsm.DB, now vclock.Time, round int) (vclock.Time, vclock.Duration) {
		start := now
		for k := 0; k < getsPerOp; k++ {
			key := []byte(fmt.Sprintf("key-%04d", (round*getsPerOp+k)*7%keys))
			_, end, err := db.Get(now, key)
			if err != nil {
				b.Fatal(err)
			}
			now = end
		}
		return now, vclock.Duration(now-start) / getsPerOp
	}
	b.ResetTimer()
	var hostLat, devLat vclock.Duration
	for i := 0; i < b.N; i++ {
		hostNow, hostLat = lookups(hostDB, hostNow, i)
		devNow, devLat = lookups(devDB, devNow, i)
	}
	b.ReportMetric(hostLat.Seconds()*1e6, "hostGet_us")
	b.ReportMetric(devLat.Seconds()*1e6, "devGet_us")
}
