package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// metricSpec names one metric. The lists below are the single source of
// BENCHMARK.json's end_to_end and per_layer arrays: `-spec` prints the
// file and a test compares it with the one at the repo root.
//
// Every number is either wall (host time and host resources: what the
// simulator costs) or virt (simulated time and device counters: what
// the modelled drive does). Wall numbers carry the host's noise; virt
// numbers and counts repeat bit for bit for one seed.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the stack sees, reported by every workload
// in the untraced pass. Bound is the share of the parent's median by
// which a metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},            // wall: build the rig, prefill, precondition; median of five
	{"wall_kops", "kops/s", "higher", 0.25},    // wall: operations per host second
	{"wall_p50_us", "us", "lower", 0.25},       // wall: submit → reap on the driver
	{"cpu_us_per_op", "us", "lower", 0.25},     // wall: getrusage user+sys, client and server together
	{"allocs_per_op", "count", "lower", 0.10},  // wall: heap allocations over the virt window
	{"alloc_bytes_per_op", "B", "lower", 0.10}, //
	{"live_heap_mb", "MB", "lower", 0.10},      // wall: HeapAlloc after a forced GC at the end of the virt window
	{"virt_kiops", "kops/s", "higher", 0.05},   // virt: operations per simulated second
	{"virt_mean_us", "us", "lower", 0.05},      // virt: mean Completion.Latency(), or end − now for the LSM
	{"virt_waf", "ratio", "lower", 0.02},       // virt: flash sectors written, padding included, × 4 KB / user bytes written
}

// perLayer is what single layers do, reported by every workload in the
// traced pass; a layer a workload does not load reports 0. See
// README.md for the end-to-end metric each should move.
var perLayer = []metricSpec{
	// fabrics and the sockets under it (tcp_read_mostly).
	{Name: "fabrics.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "fabrics.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "fabrics.redials", Unit: "count", Better: "lower"},
	{Name: "fabrics.replayed", Unit: "count", Better: "lower"},
	{Name: "net.write_us_per_op", Unit: "us", Better: "lower"},
	{Name: "net.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "net.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "net.bytes_per_op", Unit: "B", Better: "lower"},
	// hostif: queue pairs, arbitration, the engine.
	{Name: "hostif.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "hostif.grants_per_op", Unit: "count", Better: "lower"},
	{Name: "hostif.acq_per_grant", Unit: "ratio", Better: "lower"},
	{Name: "hostif.overlap_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hostif.max_inflight", Unit: "count", Better: "higher"},
	{Name: "hostif.inline_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hostif.conflict_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "hostif.barrier_stalls_per_kop", Unit: "count", Better: "lower"},
	// The FTLs.
	{Name: "oxblock.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "oxblock.checkpoints", Unit: "count", Better: "lower"},
	{Name: "ftlcore.gc_collections", Unit: "count", Better: "lower"},
	{Name: "ftlcore.gc_chunks_reclaimed", Unit: "count", Better: "higher"},
	{Name: "ftlcore.gc_sectors_moved_per_op", Unit: "count", Better: "lower"},
	{Name: "ftlcore.wal_records_per_op", Unit: "count", Better: "lower"},
	{Name: "zns.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lightlsm.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lightlsm.blocks_written_per_op", Unit: "count", Better: "lower"},
	{Name: "lightlsm.blocks_read_per_op", Unit: "count", Better: "lower"},
	{Name: "lightlsm.chunk_resets", Unit: "count", Better: "lower"},
	// The device, nand and vclock included.
	{Name: "ocssd.span_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ocssd.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "ocssd.sectors_written_per_op", Unit: "count", Better: "lower"},
	{Name: "ocssd.sectors_read_per_op", Unit: "count", Better: "lower"},
	{Name: "ocssd.pad_sectors_per_op", Unit: "count", Better: "lower"},
	{Name: "ocssd.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ocssd.resets_per_kop", Unit: "count", Better: "lower"},
	{Name: "ocssd.copies_per_kop", Unit: "count", Better: "lower"},
	{Name: "ocssd.metadata_bytes_per_chunk", Unit: "B", Better: "lower"},
	// The controller's virtual accounting.
	{Name: "ox.bytes_host_per_op", Unit: "B", Better: "lower"},
	{Name: "ox.core_util", Unit: "ratio", Better: "lower"},
	// The mini-RocksDB (lsm_mixed).
	{Name: "lsm.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lsm.env_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.bytes_compacted_per_put", Unit: "B", Better: "lower"},
	{Name: "lsm.block_reads_per_get", Unit: "count", Better: "lower"},
	{Name: "lsm.bloom_skips_per_get", Unit: "count", Better: "higher"},
	{Name: "lsm.stall_virt_share", Unit: "ratio", Better: "lower"},
	// The driver: the mixes split, so a read/write trade shows.
	{Name: "driver.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.p999_us", Unit: "us", Better: "lower"},
	{Name: "driver.virt_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.virt_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.fail_ratio", Unit: "ratio", Better: "lower"},
	// What qualifies the run.
	{Name: "generator.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func init() {
	for _, op := range ladderOps {
		for _, rung := range ladderRungs {
			perLayer = append(perLayer,
				metricSpec{Name: "ladder." + op + "." + rung + ".ns_per_op", Unit: "ns", Better: "lower"},
				metricSpec{Name: "ladder." + op + "." + rung + ".allocs_per_op", Unit: "count", Better: "lower"})
		}
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the end-to-end metrics of an untraced pass.
func endToEndValues(res *runResult) map[string]float64 {
	virtOps := float64(len(res.rec.virt))
	virtS := res.c1.virtNow.Sub(res.c0.virtNow).Seconds()
	var virtSum int64
	for _, v := range res.rec.virt {
		virtSum += v
	}
	// Host time is divided by the host's slowdown: see referenceKernel.
	slow := res.slowdown()
	return map[string]float64{
		"setup_s":            median(res.setupS) / slow,
		"wall_kops":          res.over(allRounds, roundStat.kops) * slow,
		"wall_p50_us":        res.over(allRounds, func(r roundStat) float64 { return r.p50 }) / slow,
		"cpu_us_per_op":      res.over(allRounds, roundStat.cpuUsPerOp) / slow,
		"allocs_per_op":      float64(res.m1.Mallocs-res.m0.Mallocs) / virtOps,
		"alloc_bytes_per_op": float64(res.m1.TotalAlloc-res.m0.TotalAlloc) / virtOps,
		"live_heap_mb":       res.liveHeapMB,
		"virt_kiops":         div(virtOps, virtS) / 1e3,
		"virt_mean_us":       float64(virtSum) / virtOps / 1e3,
		"virt_waf": div(float64(res.c1.dev.SectorsWritten+res.c1.dev.PadSectors-res.c0.dev.SectorsWritten-res.c0.dev.PadSectors)*pageBytes,
			float64(res.rec.userBytes)),
	}
}

// perLayerValues computes the per-layer metrics of a traced pass. Count
// metrics cover the virt window, so they repeat exactly; span metrics
// cover the traced rounds.
func perLayerValues(res *runResult, ladder map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	c0, c1 := res.c0, res.c1
	ops := float64(len(res.rec.virt))
	d := func(a, b int64) float64 { return float64(b - a) }

	// Counts, over the virt window.
	dev0, dev1 := c0.dev, c1.dev
	m["ocssd.sectors_written_per_op"] = d(dev0.SectorsWritten, dev1.SectorsWritten) / ops
	m["ocssd.sectors_read_per_op"] = d(dev0.SectorsRead, dev1.SectorsRead) / ops
	m["ocssd.pad_sectors_per_op"] = d(dev0.PadSectors, dev1.PadSectors) / ops
	m["ocssd.cache_hit_ratio"] = div(d(dev0.CacheHitReads, dev1.CacheHitReads),
		d(dev0.CacheHitReads, dev1.CacheHitReads)+d(dev0.MediaReads, dev1.MediaReads))
	m["ocssd.resets_per_kop"] = d(dev0.Resets, dev1.Resets) / ops * 1e3
	m["ocssd.copies_per_kop"] = d(dev0.Copies, dev1.Copies) / ops * 1e3
	m["ocssd.metadata_bytes_per_chunk"] = c1.metaBytesPerChunk
	m["ox.bytes_host_per_op"] = d(c0.ctrl.BytesHost, c1.ctrl.BytesHost) / ops
	m["ox.core_util"] = div(c1.coreBusy-c0.coreBusy, float64(c1.virtNow.Sub(c0.virtNow)))
	m["oxblock.checkpoints"] = d(c0.block.Checkpoints, c1.block.Checkpoints)
	m["ftlcore.gc_collections"] = d(c0.gc.Collections, c1.gc.Collections)
	m["ftlcore.gc_chunks_reclaimed"] = d(c0.gc.ChunksReclaimed, c1.gc.ChunksReclaimed)
	m["ftlcore.gc_sectors_moved_per_op"] = d(c0.gc.SectorsMoved, c1.gc.SectorsMoved) / ops
	m["ftlcore.wal_records_per_op"] = float64(c1.wal-c0.wal) / ops
	m["lightlsm.blocks_written_per_op"] = d(c0.light.BlocksWritten, c1.light.BlocksWritten) / ops
	m["lightlsm.blocks_read_per_op"] = d(c0.light.BlocksRead, c1.light.BlocksRead) / ops
	m["lightlsm.chunk_resets"] = d(c0.light.ChunkResets, c1.light.ChunkResets)
	gets, puts := d(c0.lsm.Gets, c1.lsm.Gets), d(c0.lsm.Puts, c1.lsm.Puts)
	m["lsm.flushes"] = d(c0.lsm.Flushes, c1.lsm.Flushes)
	m["lsm.compactions"] = d(c0.lsm.Compactions, c1.lsm.Compactions)
	m["lsm.bytes_compacted_per_put"] = div(d(c0.lsm.BytesCompacted, c1.lsm.BytesCompacted), puts)
	m["lsm.block_reads_per_get"] = div(d(c0.lsm.BlockReads, c1.lsm.BlockReads), gets)
	m["lsm.bloom_skips_per_get"] = div(d(c0.lsm.BloomSkips, c1.lsm.BloomSkips), gets)
	m["lsm.stall_virt_share"] = div(float64(c1.lsm.StallTime-c0.lsm.StallTime), float64(c1.virtNow.Sub(c0.virtNow)))
	if grants := d(c0.exec.Grants, c1.exec.Grants); grants > 0 {
		disp := d(c0.exec.Dispatched, c1.exec.Dispatched)
		m["hostif.grants_per_op"] = grants / ops
		m["hostif.acq_per_grant"] = d(c0.exec.Acquisitions, c1.exec.Acquisitions) / grants
		m["hostif.overlap_ratio"] = div(d(c0.exec.Overlapped, c1.exec.Overlapped), disp)
		m["hostif.max_inflight"] = float64(c1.exec.MaxInflight)
		m["hostif.inline_ratio"] = d(c0.exec.Inline, c1.exec.Inline) / grants
		m["hostif.conflict_stalls_per_kop"] = d(c0.exec.ConflictStalls, c1.exec.ConflictStalls) / ops * 1e3
		m["hostif.barrier_stalls_per_kop"] = d(c0.exec.BarrierStalls, c1.exec.BarrierStalls) / ops * 1e3
	}
	m["fabrics.redials"] = float64(c1.redials)
	m["fabrics.replayed"] = float64(c1.replays)
	m["driver.fail_ratio"] = float64(res.rec.failed) / float64(res.rec.attempted)
	// Virtual percentiles are per-layer because on a deterministic
	// device they can read the same for every seed; the end-to-end list
	// carries the mean, which moves with the mix.
	vp50, vp99, _ := quantiles3(slices.Clone(res.rec.virt))
	m["driver.virt_p50_us"], m["driver.virt_p99_us"] = vp50, vp99

	// Spans, over the traced rounds.
	tops := float64(res.tracedOps)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / tops }
	var tracedWall int64
	for _, r := range res.rounds {
		if r.traced {
			tracedWall += r.wallNs
		}
	}
	wallUs := us(tracedWall)
	cpuUs := res.over(tracedRounds, roundStat.cpuUsPerOp)
	gen := wallUs - us(res.spanTotal[layCall])
	exec, media := us(res.spanTotal[layExec]), us(res.spanTotal[layMedia])
	m["generator.self_us_per_op"] = gen
	m["ocssd.span_us_per_op"] = media
	m["ocssd.calls_per_op"] = float64(res.spanCount[layMedia]) / tops
	ftlSelf := exec - media
	switch res.w.name {
	case "tcp_read_mostly":
		// Client and server run on different goroutines, so what is not
		// inside Execute, a socket write or the generator is fabrics:
		// codec, replay table, wake-ups, and the server's hostif hop.
		netWrite := us(res.spanTotal[layNetWrite])
		m["oxblock.self_us_per_op"] = ftlSelf
		m["net.write_us_per_op"] = netWrite
		m["fabrics.self_us_per_op"] = cpuUs - gen - exec - netWrite
		m["fabrics.frames_per_op"] = float64(res.tr.frames.Load()) / tops
		m["net.writes_per_op"] = float64(res.tr.netWrites.Load()) / tops
		m["net.reads_per_op"] = float64(res.tr.netReads.Load()) / tops
		m["net.bytes_per_op"] = float64(res.tr.netBytes.Load()) / tops
	case "zns_engine_append":
		// Commands overlap on workers, so hostif is what the process
		// burns outside Execute and the generator: CPU, not wall.
		m["zns.self_us_per_op"] = ftlSelf
		m["hostif.self_us_per_op"] = cpuUs - gen - exec
	case "block_overwrite_gc":
		m["oxblock.self_us_per_op"] = ftlSelf
		m["hostif.self_us_per_op"] = us(res.spanTotal[layCall]) - exec
	case "lsm_mixed":
		env := us(res.spanTotal[layEnv])
		m["lsm.self_us_per_op"] = us(res.spanTotal[layCall]) - env
		m["lsm.env_calls_per_op"] = float64(res.spanCount[layEnv]) / tops
		m["hostif.self_us_per_op"] = env - exec
		m["lightlsm.self_us_per_op"] = ftlSelf
	}

	m["driver.read_p50_us"] = res.over(allRounds, func(r roundStat) float64 { return r.rp50 })
	m["driver.read_p99_us"] = res.over(allRounds, func(r roundStat) float64 { return r.rp99 })
	m["driver.write_p50_us"] = res.over(allRounds, func(r roundStat) float64 { return r.wp50 })
	m["driver.write_p99_us"] = res.over(allRounds, func(r roundStat) float64 { return r.wp99 })
	m["driver.p99_us"] = res.over(allRounds, func(r roundStat) float64 { return r.p99 })
	m["driver.p999_us"] = res.over(allRounds, func(r roundStat) float64 { return r.p999 })
	m["runtime.gc_cycles"] = float64(res.mEnd.NumGC - res.m0.NumGC)
	m["runtime.gc_pause_ms"] = float64(res.mEnd.PauseTotalNs-res.m0.PauseTotalNs) / 1e6
	m["runtime.peak_rss_mb"] = res.peakRSSMB
	m["host.slowdown"] = res.slowdown()
	m["trace.overhead_pct"] = (1 - div(res.over(tracedRounds, roundStat.kops), res.over(controlRounds, roundStat.kops))) * 100
	for k, v := range ladder {
		m[k] = v
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}

// printMetrics writes one line per metric of specs, in their order.
func printMetrics(w *strings.Builder, workload string, specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		fmt.Fprintf(w, "%-20s %-42s %16.4f %s\n", workload, s.Name, values[s.Name], s.Unit)
	}
}
