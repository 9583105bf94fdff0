package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkJSON renders BENCHMARK.json from the lists in this package.
func benchmarkJSON() []byte {
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	file := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []why        `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"` // no bounds: the zero Bound is omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, why{w.name, w.why})
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(data, '\n')
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) does, which is what the acceptance
// protocol of BENCHMARK.json uses. It needs two values at least.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median: the run-to-run noise of a metric.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return div(q3-q1, median(xs))
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, metric) of two result
// files: both medians, how much worse b is than a, the bound, and a
// verdict. An end-to-end metric that got worse by more than its bound is
// a violation; when the run-to-run spread of either side exceeds the
// bound the row is unresolved instead, because the runs cannot tell.
// Per-layer metrics have no bound. It reports whether no row violates.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	bounds := make(map[string]metricSpec)
	for _, s := range endToEnd {
		bounds[s.Name] = s
	}
	better := make(map[string]string)
	for _, s := range append(slices.Clone(endToEnd), perLayer...) {
		better[s.Name] = s.Better
	}
	other := make(map[[2]string]resultRow)
	for _, r := range b.Results {
		other[[2]string{r.Workload, r.Metric}] = r
	}
	fmt.Fprintf(w, "# a: %s commit=%s nproc=%d runs=%d   b: %s commit=%s nproc=%d runs=%d\n",
		pathA, a.Env.Commit, a.Env.NProc, a.Env.Runs, pathB, b.Env.Commit, b.Env.NProc, b.Env.Runs)
	fmt.Fprintf(w, "%-20s %-42s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse%", "bound%", "spread%", "verdict")
	ok := true
	for _, ra := range a.Results {
		rb, found := other[[2]string{ra.Workload, ra.Metric}]
		if !found || len(ra.Values) == 0 || len(rb.Values) == 0 {
			fmt.Fprintf(w, "%-20s %-42s only in one file\n", ra.Workload, ra.Metric)
			continue
		}
		ma, mb := median(ra.Values), median(rb.Values)
		worse := div(mb-ma, ma)
		if better[ra.Metric] == "higher" {
			worse = -worse
		}
		noise := max(spread(ra.Values), spread(rb.Values))
		verdict, bound := "", ""
		if s, bounded := bounds[ra.Metric]; bounded {
			bound = fmt.Sprintf("%.1f", s.Bound*100)
			switch {
			case noise > s.Bound:
				verdict = "unresolved"
			case worse > s.Bound:
				verdict = "VIOLATION"
				ok = false
			default:
				verdict = "ok"
			}
		} else if ma != mb {
			verdict = "differs"
		} else {
			verdict = "same"
		}
		fmt.Fprintf(w, "%-20s %-42s %14.4f %14.4f %+9.2f %7s %7.2f  %s\n",
			ra.Workload, ra.Metric, ma, mb, worse*100, bound, noise*100, verdict)
	}
	return ok, nil
}
