// Command benchmark is the repo's stack benchmark: four closed-loop
// workloads (a real TCP connection, the execution engine, the OX-Block
// FTL under garbage collection, the mini-RocksDB), each measured end to
// end without tracing and layer by layer with spans recorded from
// outside the stack, plus the layer ladder. See README.md.
//
//	go run . [-workload all|<name>] [-seed 1] [-runs 1] [-smoke] [-json out.json] [-trace-out f.json]
//	go run . -workload <name> -trace 0|1 [-seed n] [-seconds s]    one pass, in this process
//	go run . -compare a.json b.json
//
// Run it from this directory, or from the repo root with
// `bash benchmark/run.sh`, which builds it first. It is a module of its
// own so that the root module's build and tests do not change.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runSeconds is how long one pass measures by default; BENCHMARK.json's
// run_seconds.
const runSeconds = 20

// passResult is the last line a single pass prints: the contract the
// driver of BENCHMARK.json reads.
type passResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "generator seed (addresses, keys, mix, payload stamps); the simulated NAND keeps its own")
		seconds      = flag.Float64("seconds", 0, "seconds one pass measures (default 20, or 0.2 with -smoke)")
		trace        = flag.Int("trace", -1, "0: untraced pass in this process; 1: traced pass in this process; -1: both, one child process each")
		smoke        = flag.Bool("smoke", false, "tiny sizes: every workload, both passes and the ladder in a few seconds")
		runs         = flag.Int("runs", 1, "run sets: repeat every pass this often with seeds seed, seed+1, ...")
		jsonOut      = flag.String("json", "", "write all results to this file, for -compare")
		traceOut     = flag.String("trace-out", "", "write the first spans of the traced pass as Chrome trace-event JSON")
		compare      = flag.String("compare", "", "compare this result file with the one named as argument and exit")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *seconds == 0 {
		*seconds = runSeconds
		if *smoke {
			*seconds = 0.2
		}
	}
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *trace >= 0:
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("-trace %d needs one workload of %s", *trace, strings.Join(workloadNames(), ", ")))
		}
		res, err := singlePass(os.Stdout, w, *smoke, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := orchestrate(*workloadName, *smoke, *seed, *seconds, *runs, *jsonOut, *traceOut)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// ladderOpsPerRung sizes the ladder: operations of each kind per rung.
func ladderOpsPerRung(smoke bool) int {
	if smoke {
		return 100
	}
	return 4000
}

// singlePass runs one pass of one workload in this process, prints its
// metrics and, as the last line, the pass result.
func singlePass(out *os.File, w *workload, smoke bool, seed int64, seconds float64, traced bool, traceOut string) (*passResult, error) {
	res, err := runPass(w, smoke, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	specs, values := endToEnd, map[string]float64(nil)
	if traced {
		if err := res.tr.checkNesting(); err != nil {
			return nil, fmt.Errorf("%s: span invariant: %w", w.name, err)
		}
		if traceOut != "" {
			if err := res.tr.writeChrome(traceOut); err != nil {
				return nil, err
			}
		}
		ladder, err := runLadder(seed, ladderOpsPerRung(smoke))
		if err != nil {
			return nil, err
		}
		specs, values = perLayer, perLayerValues(res, ladder)
	} else {
		values = endToEndValues(res)
	}
	pr := &passResult{
		Correct:   res.rec.failed == 0,
		Attempted: res.rec.attempted,
		Failed:    res.rec.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s pass=%s seed=%d seconds=%g smoke=%v %s\n", w.name, passName(traced), seed, seconds, smoke, envLine())
	fmt.Fprintf(&b, "# host: slowdown %.4f against the reference box at rest (reference kernel %.1f us)", res.slowdown(), midmean(res.kernelNs)/1e3)
	if !traced {
		fmt.Fprintf(&b, "; raw wall_kops %.4f, cpu_us_per_op %.4f", res.over(allRounds, roundStat.kops), res.over(allRounds, roundStat.cpuUsPerOp))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "# samples: wall percentiles are mid-means of %d rounds of %d ops; virt metrics and counts cover the first %d ops\n",
		len(res.rounds), res.sz.roundOps, len(res.rec.virt))
	printMetrics(&b, w.name, specs, values)
	for _, s := range specs {
		pr.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	fmt.Fprintf(&b, "# %s: %d attempted, %d failed\n", w.name, pr.Attempted, pr.Failed)
	last, err := json.Marshal(pr)
	if err != nil {
		return nil, err
	}
	b.Write(last)
	b.WriteByte('\n')
	_, err = out.WriteString(b.String())
	return pr, err
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

func envLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Go         string  `json:"go"`
		Commit     string  `json:"commit"`
		Seed       int64   `json:"seed"`
		Runs       int     `json:"runs"`
		Seconds    float64 `json:"seconds"`
		Smoke      bool    `json:"smoke"`
	} `json:"env"`
	Results []resultRow `json:"results"`
}

// resultRow holds one metric of one workload: one value per run. The
// ladder is measured beside every traced pass, so it has one value per
// run and workload, and is filed under the workload "ladder".
type resultRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	Values   []float64 `json:"values"`
}

// orchestrate runs both passes of every selected workload, each in a
// child process of this binary, so that every pass has a fresh heap and
// its own getrusage, and only one load-generating process is alive at a
// time.
func orchestrate(selected string, smoke bool, seed int64, seconds float64, runs int, jsonOut, traceOut string) (bool, error) {
	var ws []*workload
	for _, w := range workloads {
		if selected == "all" || selected == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return false, fmt.Errorf("unknown workload %q: want all or one of %s", selected, strings.Join(workloadNames(), ", "))
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var file resultFile
	file.Env.NProc, file.Env.GOMAXPROCS, file.Env.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	file.Env.Commit, file.Env.Seed, file.Env.Runs, file.Env.Seconds, file.Env.Smoke = commit(), seed, runs, seconds, smoke
	fmt.Printf("# %s commit=%s seed=%d runs=%d\n", envLine(), file.Env.Commit, seed, runs)

	ok := true
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	for run := 0; run < runs; run++ {
		for _, w := range ws {
			for pass := 0; pass <= 1; pass++ {
				args := []string{"-workload", w.name, "-trace", fmt.Sprint(pass), "-seed", fmt.Sprint(seed + int64(run)),
					"-seconds", fmt.Sprint(seconds)}
				if smoke {
					args = append(args, "-smoke")
				}
				if pass == 1 && run == 0 && traceOut != "" {
					args = append(args, "-trace-out", perWorkloadPath(traceOut, w.name, len(ws) > 1))
				}
				pr, err := runChild(self, args)
				if err != nil {
					return false, fmt.Errorf("%s %s pass: %w", w.name, passName(pass == 1), err)
				}
				ok = ok && pr.Correct
				for name, mv := range pr.Metrics {
					wl := w.name
					if strings.HasPrefix(name, "ladder.") {
						wl = "ladder"
					}
					values[key{wl, name}] = append(values[key{wl, name}], mv.Value)
				}
			}
		}
	}

	// Print and file every metric by name, with its unit and workload.
	var b strings.Builder
	med := func(wl, name string) float64 { return median(values[key{wl, name}]) }
	emit := func(wl string, specs []metricSpec, kind string) {
		vals := make(map[string]float64)
		var kept []metricSpec
		for _, s := range specs {
			if (wl == "ladder") != strings.HasPrefix(s.Name, "ladder.") {
				continue
			}
			kept = append(kept, s)
			vals[s.Name] = med(wl, s.Name)
			file.Results = append(file.Results, resultRow{Workload: wl, Metric: s.Name, Unit: s.Unit, Kind: kind, Values: values[key{wl, s.Name}]})
		}
		printMetrics(&b, wl, kept, vals)
	}
	for _, w := range ws {
		emit(w.name, endToEnd, "end_to_end")
		emit(w.name, perLayer, "per_layer")
	}
	emit("ladder", perLayer, "per_layer")
	ladder := make(map[string]float64)
	for _, s := range perLayer {
		if strings.HasPrefix(s.Name, "ladder.") {
			ladder[s.Name] = med("ladder", s.Name)
		}
	}
	printLadder(&b, ladder)
	if ok {
		b.WriteString("# outputs verified: no operation failed on any workload\n")
	} else {
		b.WriteString("# VERIFICATION FAILED: see the oracle lines above\n")
	}
	os.Stdout.WriteString(b.String())
	if jsonOut != "" {
		data, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// perWorkloadPath puts the workload's name before path's extension when
// several workloads would otherwise write the same file.
func perWorkloadPath(path, workload string, several bool) string {
	if !several {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// runChild runs one pass in a child process, forwards its comment lines
// and returns the result on its last line.
func runChild(self string, args []string) (*passResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Bytes(); bytes.HasPrefix(line, []byte("#")) {
			fmt.Printf("%s\n", line)
		} else {
			last = bytes.Clone(line)
		}
	}
	var pr passResult
	if jerr := json.Unmarshal(last, &pr); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("child printed no result: %w", jerr)
	}
	return &pr, nil // a child that exits 1 verified and found failures: Correct is false
}

// commit names the checkout, if it is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printLadder prints the ladder as a table, each rung with the delta to
// the rung below it.
func printLadder(b *strings.Builder, ladder map[string]float64) {
	fmt.Fprintf(b, "\n%-10s %-18s %12s %12s %10s\n", "ladder", "rung", "ns/op", "delta ns", "allocs/op")
	for _, op := range ladderOps {
		prev := 0.0
		for _, rung := range ladderRungs {
			ns := ladder["ladder."+op+"."+rung+".ns_per_op"]
			fmt.Fprintf(b, "%-10s %-18s %12.0f %+12.0f %10.2f\n", op, rung, ns, ns-prev, ladder["ladder."+op+"."+rung+".allocs_per_op"])
			prev = ns
		}
	}
}
