// Command oxbench regenerates the paper's tables and figures on the
// simulated testbed and prints them as text tables (optionally CSV).
//
// Usage:
//
//	oxbench -run all
//	oxbench -run fig3,fig7 -csv out/
//	oxbench -run scale
//	oxbench -run gc -cpuprofile /tmp/gc.cpu -memprofile /tmp/gc.mem
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/landscape"
	"repro/internal/lightlsm"
)

func main() {
	runs := flag.String("run", "all", "comma-separated experiments: fig1,fig3,fig5,fig6,fig7,gc,unit,qd,qdwrr,qdfabric,tenants,scale,crashstorm,fabric,netstorm,offload,offloadfabric,all")
	csvDir := flag.String("csv", "", "directory for CSV output (optional)")
	addr := flag.String("addr", "", "oxfabd address for -run fabric (default: in-process loopback server; remote runs are not deterministic)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (must lie outside -csv)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run ends (must lie outside -csv)")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *csvDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oxbench:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	// Every failure leaves through fatal, so the profiles are complete
	// files whether the run ends here or at the bottom of main.
	fatal := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "oxbench:", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*runs, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]

	emit := func(name string, t *exp.Table) {
		fmt.Println(t.Render())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	if all || want["fig1"] {
		fmt.Println(landscape.Render())
	}
	if all || want["unit"] {
		emit("unit_of_write", exp.UnitOfWriteTable(exp.UnitOfWrite()))
	}
	if all || want["fig3"] {
		points, err := exp.Figure3(exp.DefaultFig3())
		if err != nil {
			fatal(err)
		}
		emit("figure3", exp.Figure3Table(points))
	}
	if all || want["fig5"] || want["fig6"] {
		cells, err := exp.Figure5(exp.DefaultFig5())
		if err != nil {
			fatal(err)
		}
		if all || want["fig5"] {
			emit("figure5", exp.Figure5Table(cells))
		}
		if all || want["fig6"] {
			emit("figure6_horizontal", exp.Figure6Table(cells, lightlsm.Horizontal))
			emit("figure6_vertical", exp.Figure6Table(cells, lightlsm.Vertical))
		}
	}
	if all || want["fig7"] {
		points, err := exp.Figure7(exp.DefaultFig7())
		if err != nil {
			fatal(err)
		}
		emit("figure7", exp.Figure7Table(points))
	}
	if all || want["gc"] {
		points, err := exp.GCLocality(exp.DefaultGCLocality())
		if err != nil {
			fatal(err)
		}
		emit("gc_locality", exp.GCLocalityTable(points))
	}
	if all || want["qd"] {
		points, err := exp.QDSweep(exp.DefaultQDSweep())
		if err != nil {
			fatal(err)
		}
		emit("qd_sweep", exp.QDSweepTable(points))
	}
	if want["qdfabric"] {
		// The qd sweep with every command crossing the fabrics wire
		// layer over loopback. Not part of "all": its table is required
		// to be byte-identical to qd_sweep, which is exactly what the CI
		// cross-transport cmp checks.
		points, err := exp.QDSweepLoopback(exp.DefaultQDSweep())
		if err != nil {
			fatal(err)
		}
		emit("qd_fabric", exp.QDSweepTable(points))
	}
	if all || want["qdwrr"] {
		points, err := exp.WRRSweep(exp.DefaultWRRSweep())
		if err != nil {
			fatal(err)
		}
		emit("wrr_sweep", exp.WRRSweepTable(points))
	}
	if all || want["tenants"] {
		points, err := exp.Tenants(exp.DefaultTenants())
		if err != nil {
			fatal(err)
		}
		emit("tenants", exp.TenantsTable(points))
		// The asymmetric QoS companion: WRR classes, unequal load, and
		// the shared-vs-solo p99 isolation metric.
		qos, err := exp.TenantsQoS(exp.DefaultTenantsQoS())
		if err != nil {
			fatal(err)
		}
		emit("tenants_qos", exp.TenantsQoSTable(qos))
	}
	if all || want["crashstorm"] {
		// 50 power-cut kill/recover cycles per FTL on a file-backed
		// device; errors out on the first lost acknowledged write.
		// All metrics are virtual or op counts, so the table joins the
		// figure tables in the CI byte-diff determinism set.
		points, err := exp.Crashstorm(exp.DefaultCrashstorm())
		if err != nil {
			fatal(err)
		}
		emit("crashstorm", exp.CrashstormTable(points))
	}
	if all || want["fabric"] {
		// The fabric overload scenario: hundreds of open-loop Poisson
		// clients over the TCP transport, with connection churn and
		// backlog shedding. All columns are virtual-time-derived, so the
		// default (loopback) run joins the CI determinism byte-diff.
		cfg := exp.DefaultFabric()
		cfg.Addr = *addr
		points, err := exp.Fabric(cfg)
		if err != nil {
			fatal(err)
		}
		emit("fabric", exp.FabricTable(points))
	}
	if all || want["netstorm"] {
		// The network-fault storm: scripted connection kills, drops and
		// partitions against every fabric-served FTL, with a fault-free
		// shadow pass pinning zero lost acked writes and zero duplicate
		// applications. Fault triggers are frame-count-based and the
		// orchestrator is single-threaded over virtual time, so the
		// table joins the CI determinism byte-diff.
		points, err := exp.Netstorm(exp.DefaultNetstorm())
		if err != nil {
			fatal(err)
		}
		emit("netstorm", exp.NetstormTable(points))
	}
	if all || want["offload"] {
		// The computational-storage crossover: KV lookups, filtered
		// scans and compaction, host-side vs in-device, swept over value
		// size and predicate selectivity. Every column is virtual-time-
		// or counter-derived, so the table joins the CI determinism
		// byte-diff.
		points, err := exp.Offload(exp.DefaultOffload())
		if err != nil {
			fatal(err)
		}
		emit("offload", exp.OffloadTable(points))
	}
	if want["offloadfabric"] {
		// The offload crossover with every command crossing the fabrics
		// wire layer over loopback. Not part of "all": its table is
		// required to be byte-identical to offload, which is exactly
		// what the CI cross-transport cmp checks.
		points, err := exp.OffloadLoopback(exp.DefaultOffload())
		if err != nil {
			fatal(err)
		}
		emit("offload_fabric", exp.OffloadTable(points))
	}
	if all || want["scale"] {
		// The scale sweep runs both executors itself (a serial reference
		// row plus one engine row per worker count) and fails if any
		// engine run's completions diverge from serial. Its wall-clock
		// and speedup columns measure this machine and vary run to run,
		// so the scenario stays out of the byte-diff determinism set.
		points, err := exp.Scale(exp.DefaultScale())
		if err != nil {
			fatal(err)
		}
		emit("scale", exp.ScaleTable(points))
	}
}

// startProfiles begins the CPU profile and arranges the heap profile;
// the returned stop writes both out and is safe to call more than once.
// Profile files may not lie inside the CSV directory: CI byte-diffs that
// directory between runs, and a profile never repeats.
func startProfiles(cpuPath, memPath, csvDir string) (stop func(), err error) {
	for _, p := range []string{cpuPath, memPath} {
		if p != "" && csvDir != "" && within(csvDir, p) {
			return nil, fmt.Errorf("profile %s lies inside the CSV directory %s", p, csvDir)
		}
	}
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "oxbench: cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "oxbench: memprofile:", err)
			}
		}
	}, nil
}

// within reports whether file lies in dir (or is dir itself).
func within(dir, file string) bool {
	d, err1 := filepath.Abs(dir)
	f, err2 := filepath.Abs(file)
	rel, err3 := filepath.Rel(d, f)
	return err1 == nil && err2 == nil && err3 == nil && filepath.IsLocal(rel)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // so the profile shows what is live, not what is garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
