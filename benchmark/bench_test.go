package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The orchestrator re-executes its own binary once per pass. Under
// `go test` that binary is the test binary, so a child started with
// this variable set runs main instead of the tests.
const asMain = "STACKBENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON pins the file at the repo root to the lists in this
// package (regenerate it with `go run . -spec > ../BENCHMARK.json`) and
// checks the limits its schema sets.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run . -spec`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := make(map[string]bool)
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, s := range endToEnd {
		name(s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	for _, s := range perLayer {
		name(s.Name)
	}
	if n := len(ladderOps) * len(ladderRungs) * 2; n != 48 {
		t.Errorf("%d ladder metrics, want 48", n)
	}
}

// TestSmoke runs the whole benchmark at smoke size, children and all,
// and checks that every metric BENCHMARK.json names is emitted exactly
// once per workload (the ladder once) and that none is unnamed.
func TestSmoke(t *testing.T) {
	t.Setenv(asMain, "1")
	out := filepath.Join(t.TempDir(), "smoke.json")
	trace := filepath.Join(t.TempDir(), "trace.json")
	ok, err := orchestrate("all", true, 1, 0.2, 1, out, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("an oracle rejected an operation")
	}
	file, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if file.Env.NProc < 1 || file.Env.GOMAXPROCS < 1 || file.Env.Go == "" || file.Env.Commit == "" || file.Env.Seed != 1 {
		t.Errorf("incomplete environment record: %+v", file.Env)
	}
	want := make(map[[2]string]int)
	for _, w := range workloads {
		for _, s := range endToEnd {
			want[[2]string{w.name, s.Name}] = 1
		}
		for _, s := range perLayer {
			if strings.HasPrefix(s.Name, "ladder.") {
				want[[2]string{"ladder", s.Name}] = 1
			} else {
				want[[2]string{w.name, s.Name}] = 1
			}
		}
	}
	for _, r := range file.Results {
		key := [2]string{r.Workload, r.Metric}
		if _, named := want[key]; !named {
			t.Errorf("%s %s is emitted but not named in BENCHMARK.json", r.Workload, r.Metric)
		}
		want[key]--
		n := 1
		if r.Workload == "ladder" {
			n = len(workloads) // measured beside every traced pass
		}
		if len(r.Values) != n || math.IsNaN(r.Values[0]) {
			t.Errorf("%s %s: values %v, want %d numbers", r.Workload, r.Metric, r.Values, n)
		}
		if r.Kind == "end_to_end" && r.Values[0] <= 0 {
			t.Errorf("%s %s = %v: an end-to-end metric is never 0", r.Workload, r.Metric, r.Values[0])
		}
	}
	for key, n := range want {
		if n != 0 {
			t.Errorf("%s %s: emitted %d times, want once", key[0], key[1], 1-n)
		}
	}
	// The fabrics and lsm families read 0 where the layer is absent, and
	// the overlap counters stay 0 on the serial workloads.
	for _, r := range file.Results {
		absent := (strings.HasPrefix(r.Metric, "fabrics.") || strings.HasPrefix(r.Metric, "net.")) && r.Workload != "tcp_read_mostly" ||
			strings.HasPrefix(r.Metric, "lsm.") && r.Workload != "lsm_mixed" ||
			(r.Metric == "hostif.overlap_ratio" || r.Metric == "hostif.max_inflight") && r.Workload != "zns_engine_append"
		if absent && r.Kind == "per_layer" && r.Workload != "ladder" && r.Values[0] != 0 {
			t.Errorf("%s %s = %v, want 0: the layer is not loaded", r.Workload, r.Metric, r.Values[0])
		}
	}
	// -trace-out wrote one Chrome trace per workload.
	for _, w := range workloads {
		data, err := os.ReadFile(perWorkloadPath(trace, w.name, true))
		if err != nil {
			t.Error(err)
			continue
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: trace is not a list of events: %v", w.name, err)
		}
	}
}

// exact reports whether a metric is simulated time or a count of a
// deterministic layer, and so must repeat bit for bit for one seed. The
// rest is host time, host memory, or engine counters that depend on how
// the host scheduled the workers.
func exact(name string) bool {
	switch {
	case strings.HasPrefix(name, "virt_"), strings.HasPrefix(name, "driver.virt_"),
		strings.HasPrefix(name, "ftlcore."), strings.HasPrefix(name, "ox."),
		name == "oxblock.checkpoints", name == "driver.fail_ratio",
		name == "fabrics.redials", name == "fabrics.replayed":
		return true
	case strings.HasSuffix(name, "_us_per_op"):
		return false
	case strings.HasPrefix(name, "ocssd."):
		return name != "ocssd.calls_per_op" // counted over the traced rounds
	case strings.HasPrefix(name, "lsm."):
		return name != "lsm.env_calls_per_op"
	case strings.HasPrefix(name, "lightlsm."):
		return true
	}
	return name == "hostif.grants_per_op" || name == "hostif.acq_per_grant" || name == "hostif.inline_ratio"
}

// TestPassInvariants runs every workload's traced pass in process, twice
// with one seed and once with another, and checks the span invariants
// and that virt and count metrics repeat exactly and follow the seed.
func TestPassInvariants(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			values := func(seed int64) (map[string]float64, *runResult) {
				res, err := runPass(w, true, seed, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.rec.failed != 0 {
					t.Fatalf("seed %d: %d of %d operations failed", seed, res.rec.failed, res.rec.attempted)
				}
				m := perLayerValues(res, nil)
				for k, v := range endToEndValues(res) {
					m[k] = v
				}
				return m, res
			}
			a, res := values(1)
			b, _ := values(1)
			c, _ := values(2)
			moved := false
			for name, v := range a {
				if !exact(name) {
					continue
				}
				if b[name] != v {
					t.Errorf("%s: %v then %v with the same seed", name, v, b[name])
				}
				moved = moved || c[name] != v
			}
			if !moved {
				t.Error("no virt or count metric changed with the seed")
			}

			// Children nest inside their parents.
			if err := res.tr.checkNesting(); err != nil {
				t.Error(err)
			}
			if n := len(res.tr.spans()); n == 0 {
				t.Error("no spans recorded")
			}
			var tracedWall int64
			for _, r := range res.rounds {
				if r.traced {
					tracedWall += r.wallNs
				}
			}
			perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(res.tracedOps) }
			within := func(what string, got, want float64) {
				if math.Abs(got-want) > 0.02*math.Abs(want) {
					t.Errorf("%s: %.4f, want %.4f within 2%%", what, got, want)
				}
			}
			switch w.name {
			case "block_overwrite_gc", "lsm_mixed":
				// One goroutine: the layers' self times and the
				// generator's add up to the wall time of an operation,
				// and the self times the report derives from span totals
				// agree with the ones the tracer accumulated span by span.
				sum := a["generator.self_us_per_op"] + a["lsm.self_us_per_op"] + a["hostif.self_us_per_op"] +
					a["oxblock.self_us_per_op"] + a["lightlsm.self_us_per_op"] + a["ocssd.span_us_per_op"]
				within("sum of self times", sum, perOp(tracedWall))
				within("FTL self time", a["oxblock.self_us_per_op"]+a["lightlsm.self_us_per_op"], perOp(res.spanSelf[layExec]))
				within("device span", a["ocssd.span_us_per_op"], perOp(res.spanSelf[layMedia]))
				if w.name == "lsm_mixed" {
					within("lsm self time", a["lsm.self_us_per_op"], perOp(res.spanSelf[layCall]))
					within("hostif self time", a["hostif.self_us_per_op"], perOp(res.spanSelf[layEnv]))
				} else {
					within("hostif self time", a["hostif.self_us_per_op"], perOp(res.spanSelf[layCall]))
				}
			case "zns_engine_append":
				// Commands overlap on workers: self times are CPU shares
				// and add up to CPU time, not wall time.
				within("zns self time", a["zns.self_us_per_op"], perOp(res.spanSelf[layExec]))
				if a["hostif.overlap_ratio"] <= 0 || a["hostif.max_inflight"] < 2 {
					t.Errorf("overlap %v, max in flight %v: the engine overlapped nothing", a["hostif.overlap_ratio"], a["hostif.max_inflight"])
				}
			case "tcp_read_mostly":
				// The k-th Execute belongs to the k-th submission.
				for i, s := range res.tr.spans() {
					if s.Name == spExecute && s.Parent >= 0 {
						if p := res.tr.spans()[s.Parent]; p.Name != spOp || p.Req != s.Req {
							t.Fatalf("span %d: Execute of request %d hangs under %s of request %d", i, s.Req, spanNames[p.Name], p.Req)
						}
					}
				}
				if a["fabrics.frames_per_op"] != 2 {
					t.Errorf("fabrics.frames_per_op = %v, want one ring and one completion frame", a["fabrics.frames_per_op"])
				}
			}
		})
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, rows ...resultRow) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(&resultFile{Results: rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	row := func(metric string, values ...float64) resultRow {
		return resultRow{Workload: "w", Metric: metric, Kind: "end_to_end", Values: values}
	}
	a := write("a.json", row("wall_kops", 100, 101, 99, 100), row("cpu_us_per_op", 10, 10, 10, 10), row("wall_p50_us", 5, 9, 2, 7), row("ocssd.calls_per_op", 2))
	b := write("b.json", row("wall_kops", 60, 61, 59, 60), row("cpu_us_per_op", 10.5, 10.5, 10.5, 10.5), row("wall_p50_us", 5, 9, 2, 7), row("ocssd.calls_per_op", 3))
	var out bytes.Buffer
	ok, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a 40% drop of wall_kops was not a violation")
	}
	for _, want := range []string{"wall_kops", "VIOLATION", "unresolved", "differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if ok, err := compareFiles(&out, a, a); err != nil || !ok {
		t.Errorf("a file compared with itself: ok=%v err=%v", ok, err)
	}
	// The quartiles are those of Python's statistics.quantiles(n=4).
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
