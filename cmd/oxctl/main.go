// Command oxctl inspects a simulated Open-Channel SSD over the OX
// admin queue: geometry (AdminIdentify), the chunk report
// (AdminGetLogPage) and the Figure 4 placement layouts
// (LogTableChunks). Every control-plane access is a typed admin
// command through queue 0 — oxctl is the admin-queue client of the
// host interface. With -addr it becomes a fabric client: the same
// commands run against a served controller (oxfabd) over TCP.
//
// Usage:
//
//	oxctl -cmd geometry [-paper]
//	oxctl -cmd report [-addr 127.0.0.1:7710]
//	oxctl -cmd placement -mode vertical
//	oxctl -cmd executor [-addr 127.0.0.1:7710]
//	oxctl -cmd faults [-addr 127.0.0.1:7710]   # remote rig needs oxfabd -faults
//	oxctl -cmd offload [-addr 127.0.0.1:7710]  # remote rig needs a LightLSM namespace
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/fault"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/oxblock"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// ioSession is the data-path slice the faults hammer drives; satisfied
// by hostif.QueuePair and fabrics.QueuePair alike.
type ioSession interface {
	AcquireCommand() *hostif.Command
	Push(vclock.Time, *hostif.Command) error
	MustReap() hostif.Completion
}

func main() {
	cmd := flag.String("cmd", "geometry", "geometry | report | placement | executor | faults | offload")
	paper := flag.Bool("paper", false, "use the paper's exact Figure 4 geometry (1.4 TB)")
	mode := flag.String("mode", "horizontal", "placement mode: horizontal | vertical")
	addr := flag.String("addr", "", "oxfabd address: run against a served controller instead of an in-process rig")
	flag.Parse()

	if *paper && *cmd != "geometry" {
		fmt.Fprintln(os.Stderr, "oxctl: -paper only supports -cmd geometry (the full device does not fit in memory)")
		os.Exit(1)
	}

	switch *cmd {
	case "geometry":
		g := geoFor(*paper, *addr)
		fmt.Println("Open-Channel 2.0 identify:")
		fmt.Printf("  %s\n", g)
		fmt.Printf("  ws_min = %d sectors, ws_opt = %d sectors (%d KB unit of write)\n",
			g.WSMin, g.WSOpt, g.UnitOfWriteBytes()/1024)
		fmt.Printf("  chunk = %d sectors (%d MB), %d stripes\n",
			g.SectorsPerChunk(), g.ChunkBytes()>>20, g.StripesPerChunk())
		fmt.Printf("  SSTable sizing rule (§4.3): %d PUs × %d MB chunk = %d MB\n",
			g.TotalPUs(), g.ChunkBytes()>>20, int64(g.TotalPUs())*g.ChunkBytes()>>20)
	case "report":
		admin := adminFor(*addr)
		report, err := admin.ChunkReport(0)
		fail(err)
		states := map[ocssd.ChunkState]int{}
		for _, ci := range report {
			states[ci.State]++
		}
		fmt.Println("chunk report summary:")
		for _, s := range []ocssd.ChunkState{ocssd.ChunkFree, ocssd.ChunkOpen, ocssd.ChunkClosed, ocssd.ChunkOffline} {
			fmt.Printf("  %-8s %d\n", s, states[s])
		}
	case "placement":
		if *addr != "" {
			fmt.Fprintln(os.Stderr, "oxctl: -cmd placement needs an in-process rig (it attaches a fresh LightLSM namespace)")
			os.Exit(1)
		}
		_, ctrl, err := exp.DefaultRig().Build()
		fail(err)
		p := lightlsm.Horizontal
		if *mode == "vertical" {
			p = lightlsm.Vertical
		}
		env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: p})
		fail(err)
		// Flush one SSTable through the host interface: create, append
		// one block, commit — all as queue-pair commands — then read
		// the placement back as admin log pages.
		host := hostif.NewHost(ctrl, hostif.HostConfig{})
		cli, err := hostif.AttachLSM(host, env)
		fail(err)
		w, err := cli.CreateTable(0)
		fail(err)
		block := make([]byte, cli.BlockSize())
		now, err := w.Append(0, block)
		fail(err)
		h, end, err := w.Commit(now)
		fail(err)
		admin := host.Admin()
		chunks, err := admin.TableChunks(end, 0, uint64(h.ID))
		fail(err)
		id, err := admin.Identify(end)
		fail(err)
		fmt.Printf("Figure 4: %s placement — one SSTable (%d chunks of %d KB blocks):\n",
			p, len(chunks), cli.BlockSize()/1024)
		perGroup := map[int][]string{}
		for _, c := range chunks {
			perGroup[c.Group] = append(perGroup[c.Group], fmt.Sprintf("pu%d/c%d", c.PU, c.Chunk))
		}
		for g := 0; g < id.Geometry.Groups; g++ {
			if len(perGroup[g]) == 0 {
				fmt.Printf("  group%-2d: -\n", g)
				continue
			}
			fmt.Printf("  group%-2d: %v\n", g, perGroup[g])
		}
	case "executor":
		if *addr != "" {
			// Remote mode reads the served controller's live execution
			// log; the local mode below drives its own workload first.
			log, err := adminFor(*addr).ExecutorStats(0)
			fail(err)
			printExecutor(log)
			return
		}
		printExecutor(engineDemo())
	case "faults":
		// Hammer the device with writes and reads until chunks grow
		// bad, then read the LogFaults admin page back over queue 0 —
		// the device's error accounting is control-plane observable
		// like any other log. Locally the rig gets an aggressive fault
		// injector; with -addr the same hammer runs over the fabric
		// against a server started with oxfabd -faults.
		var (
			qp    ioSession
			admin *hostif.AdminReader
			nsid  = 1
			now   vclock.Time
		)
		if *addr != "" {
			cli := fabrics.Dial(*addr)
			fqp, err := cli.QueuePair(0, 1, hostif.ClassMedium, 1)
			fail(err)
			defer fqp.Close()
			qp, admin = fqp, adminFor(*addr)
		} else {
			rig := exp.DefaultRig()
			rig.Faults = fault.New(fault.Config{
				Seed:          7,
				ReadErrorRate: 0.05,
				GrowBadAfter:  2,
				EraseFailRate: 0.01,
			})
			_, ctrl, err := rig.Build()
			fail(err)
			d, _, at, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 4096}, 0)
			fail(err)
			host := hostif.NewHost(ctrl, hostif.HostConfig{})
			nsid, err = host.Admin().AttachNamespace(at, hostif.NewBlockNamespace(d))
			fail(err)
			hqp, err := host.Admin().CreateIOQueuePair(at, 1, hostif.ClassMedium)
			fail(err)
			qp, admin, now = hqp, host.Admin().AdminReader, at
		}
		data := make([]byte, 8*4096)
		failures := map[hostif.Status]int{}
		for i := 0; i < 400; i++ {
			w := qp.AcquireCommand()
			w.Op, w.NSID, w.LPN, w.Data = hostif.OpWrite, nsid, int64(i%64)*8, data
			fail(qp.Push(now, w))
			if comp := qp.MustReap(); comp.Err == nil {
				now = comp.Done
			} else {
				failures[comp.Status]++
			}
			r := qp.AcquireCommand()
			r.Op, r.NSID, r.LPN, r.Pages = hostif.OpRead, nsid, int64(i%64)*8, 8
			fail(qp.Push(now, r))
			if comp := qp.MustReap(); comp.Err == nil {
				now = comp.Done
			} else {
				failures[comp.Status]++
			}
		}
		fl, err := admin.FaultLog(now)
		fail(err)
		fmt.Printf("fault log (LogFaults over queue 0):\n")
		fmt.Printf("  media ops        %d\n", fl.Injected.MediaOps)
		fmt.Printf("  read errors      %d\n", fl.Injected.ReadErrors)
		fmt.Printf("  program fails    %d\n", fl.Injected.ProgramFails)
		fmt.Printf("  erase fails      %d\n", fl.Injected.EraseFails)
		fmt.Printf("  grown bad        %d chunks\n", fl.GrownBadChunks)
		fmt.Printf("  host completions with error status:\n")
		for _, s := range []hostif.Status{hostif.StatusMediaRead, hostif.StatusMediaWrite, hostif.StatusOffline, hostif.StatusInternal} {
			if failures[s] > 0 {
				fmt.Printf("    %-12s %d\n", s, failures[s])
			}
		}
		if n := len(fl.Events); n > 0 {
			fmt.Printf("  last %d fault events:\n", min(n, 5))
			for _, e := range fl.Events[max(0, n-5):] {
				fmt.Printf("    %v: %s\n", e.Chunk, e.Err)
			}
		}
	case "offload":
		// Read the computational-storage log page (LogOffload) over
		// queue 0. With -addr the page comes from the served
		// controller's namespace 1; locally oxctl drives a short
		// offloaded KV workload first — point lookups and compactions
		// resolved inside the device — so the counters have something
		// to say.
		if *addr != "" {
			st, err := adminFor(*addr).OffloadStats(0, 1)
			fail(err)
			printOffload(st)
			return
		}
		_, ctrl, err := exp.DefaultRig().Build()
		fail(err)
		env, err := lightlsm.New(ctrl, lightlsm.Config{TableChunks: 1})
		fail(err)
		host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
		cli, err := hostif.AttachLSM(host, env)
		fail(err)
		db, err := lsm.Open(lsm.Options{
			Env:           cli,
			MemtableBytes: 64 << 10,
			Seed:          7,
			Lookup:        cli.OffloadGet,
			Compactor:     cli.OffloadCompact,
		})
		fail(err)
		rng := rand.New(rand.NewSource(11))
		value := make([]byte, 2048)
		var now vclock.Time
		for i := 0; i < 600; i++ {
			rng.Read(value)
			now, err = db.Put(now, []byte(fmt.Sprintf("key-%04d", rng.Intn(200))), value)
			fail(err)
		}
		now, err = db.Flush(now)
		fail(err)
		now = db.WaitIdle(now)
		for i := 0; i < 200; i++ {
			if _, end, err := db.Get(now, []byte(fmt.Sprintf("key-%04d", i))); err == nil {
				now = end
			}
		}
		st, err := host.Admin().OffloadStats(now, cli.NSID())
		fail(err)
		printOffload(st)
	default:
		fmt.Fprintf(os.Stderr, "oxctl: unknown command %q\n", *cmd)
		os.Exit(1)
	}
}

func printOffload(st offload.Stats) {
	fmt.Printf("computational storage (LogOffload over queue 0):\n")
	fmt.Printf("  gets            %d (%d hits)\n", st.Gets, st.GetHits)
	fmt.Printf("  scans           %d (%d of %d pages matched)\n", st.Scans, st.PagesMatched, st.PagesScanned)
	fmt.Printf("  compactions     %d (%d blocks merged)\n", st.Compactions, st.BlocksMerged)
	fmt.Printf("  bytes out       %d KB over the host link\n", st.BytesOut>>10)
	fmt.Printf("  bytes direct    %d KB host-side equivalent\n", st.BytesDirect>>10)
	fmt.Printf("  bytes saved     %d KB\n", st.BytesSaved()>>10)
	fmt.Printf("  compute busy    %v in-device\n", st.ComputeBusy)
}

// engineDemo drives a short disjoint-group zone workload through the
// execution engine, then reads the LogExecutor admin page back over
// queue 0 — the pipeline's grants, realized overlap and stalls are
// control-plane observable like any other log. The rig runs cache-less:
// with a write-back cache, zone writes fall back to exclusive
// footprints (cache admission is device-global) and the log would show
// conflict stalls instead of overlap.
func engineDemo() hostif.ExecutorLog {
	rig := exp.DefaultRig()
	rig.CacheMB = 0
	_, ctrl, err := rig.Build()
	fail(err)
	tgt, err := zns.New(ctrl, zns.Config{})
	fail(err)
	host := hostif.NewHost(ctrl, hostif.HostConfig{Executor: hostif.ExecutorBatched})
	defer host.Close()
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(0, hostif.NewZoneNamespace(tgt))
	fail(err)
	report, err := admin.ZoneReport(0, nsid)
	fail(err)
	id, err := admin.IdentifyNamespace(0, nsid)
	fail(err)
	zoneOf := map[int]int{} // group -> one zone
	for _, zi := range report {
		if _, ok := zoneOf[zi.Group]; !ok {
			zoneOf[zi.Group] = zi.Index
		}
	}
	ident, err := admin.Identify(0)
	fail(err)
	block := make([]byte, id.BlockSize)
	var qps []*hostif.QueuePair
	for g := 0; g < ident.Geometry.Groups; g++ {
		// One queue pair per group: each only ever touches its own
		// group's zones, so their footprints are disjoint.
		qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
		fail(err)
		qps = append(qps, qp)
	}
	var last vclock.Time
	for round := 0; round < 4; round++ {
		for g, qp := range qps {
			c := qp.AcquireCommand()
			c.Op, c.NSID, c.Zone, c.Data = hostif.OpZoneAppend, nsid, zoneOf[g], block
			fail(qp.Push(last, c))
		}
		for _, qp := range qps {
			comp := qp.MustReap()
			fail(comp.Err)
			if comp.Done > last {
				last = comp.Done
			}
		}
	}
	log, err := admin.ExecutorStats(last)
	fail(err)
	return log
}

func printExecutor(log hostif.ExecutorLog) {
	fmt.Printf("execution engine (LogExecutor over queue 0):\n")
	fmt.Printf("  executor        %s\n", log.Executor)
	fmt.Printf("  workers         %d\n", log.Workers)
	fmt.Printf("  grants          %d\n", log.Grants)
	fmt.Printf("  acquisitions    %d", log.Acquisitions)
	if log.Grants > 0 {
		fmt.Printf(" (%.3f per grant)", float64(log.Acquisitions)/float64(log.Grants))
	}
	fmt.Println()
	fmt.Printf("  dispatched      %d\n", log.Dispatched)
	fmt.Printf("  self-run        %d\n", log.SelfRun)
	fmt.Printf("  inline          %d\n", log.Inline)
	fmt.Printf("  overlapped      %d\n", log.Overlapped)
	fmt.Printf("  barrier stalls  %d\n", log.BarrierStalls)
	fmt.Printf("  conflict stalls %d\n", log.ConflictStalls)
	fmt.Printf("  max inflight    %d\n", log.MaxInflight)
}

// adminFor returns the admin reads: over a fabric admin connection
// when addr is set, otherwise over the default in-process rig's admin
// queue.
func adminFor(addr string) *hostif.AdminReader {
	if addr != "" {
		a, err := fabrics.Dial(addr).Admin()
		fail(err)
		return a.AdminReader
	}
	_, ctrl, err := exp.DefaultRig().Build()
	fail(err)
	return hostif.NewHost(ctrl, hostif.HostConfig{}).Admin().AdminReader
}

// geoFor reads the geometry over the admin queue (or returns the
// paper's published geometry, which has no simulated device behind it).
func geoFor(paper bool, addr string) ocssd.Geometry {
	if paper {
		return ocssd.PaperGeometry()
	}
	id, err := adminFor(addr).Identify(0)
	fail(err)
	return id.Geometry
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "oxctl:", err)
		os.Exit(1)
	}
}
