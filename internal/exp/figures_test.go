//go:build !race

// The figure set is pure host-time work on a deterministic simulator;
// under the race detector it would only run several times slower.

package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/lightlsm"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.sha256 from the tables this tree generates")

const figureHashFile = "testdata/figures.sha256"

// figureCSV is one table of the figure set and the file `oxbench -csv`
// writes it to.
type figureCSV struct {
	file  string
	table *Table
}

// figureRuns is CI's determinism set: every scenario oxbench runs there,
// regenerated through the same exp.X(exp.DefaultX()) and table calls.
// fig5 and fig6 share one run, as they do in oxbench.
var figureRuns = []struct {
	scenario string
	run      func() ([]figureCSV, error)
}{
	{"fig3", one("figure3.csv", Figure3, DefaultFig3(), Figure3Table)},
	{"fig5,fig6", func() ([]figureCSV, error) {
		cells, err := Figure5(DefaultFig5())
		if err != nil {
			return nil, err
		}
		return []figureCSV{
			{"figure5.csv", Figure5Table(cells)},
			{"figure6_horizontal.csv", Figure6Table(cells, lightlsm.Horizontal)},
			{"figure6_vertical.csv", Figure6Table(cells, lightlsm.Vertical)},
		}, nil
	}},
	{"fig7", one("figure7.csv", Figure7, DefaultFig7(), Figure7Table)},
	{"gc", one("gc_locality.csv", GCLocality, DefaultGCLocality(), GCLocalityTable)},
	{"qd", one("qd_sweep.csv", QDSweep, DefaultQDSweep(), QDSweepTable)},
	{"qdfabric", one("qd_fabric.csv", QDSweepLoopback, DefaultQDSweep(), QDSweepTable)},
	{"qdwrr", one("wrr_sweep.csv", WRRSweep, DefaultWRRSweep(), WRRSweepTable)},
	{"tenants", func() ([]figureCSV, error) {
		t, err := one("tenants.csv", Tenants, DefaultTenants(), TenantsTable)()
		if err != nil {
			return nil, err
		}
		q, err := one("tenants_qos.csv", TenantsQoS, DefaultTenantsQoS(), TenantsQoSTable)()
		return append(t, q...), err
	}},
	{"crashstorm", one("crashstorm.csv", Crashstorm, DefaultCrashstorm(), CrashstormTable)},
	{"fabric", one("fabric.csv", Fabric, DefaultFabric(), FabricTable)},
	{"netstorm", one("netstorm.csv", Netstorm, DefaultNetstorm(), NetstormTable)},
	{"offload", one("offload.csv", Offload, DefaultOffload(), OffloadTable)},
	{"offloadfabric", one("offload_fabric.csv", OffloadLoopback, DefaultOffload(), OffloadTable)},
}

// one is a scenario with a single table: run it on cfg and tabulate.
func one[C, P any](file string, run func(C) (P, error), cfg C, table func(P) *Table) func() ([]figureCSV, error) {
	return func() ([]figureCSV, error) {
		p, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return []figureCSV{{file, table(p)}}, nil
	}
}

// figureHash is one line of the hash file: the CSV's SHA-256 and the
// first four bytes of each row's, so a mismatch can name its first
// differing row.
type figureHash struct {
	scenario, file, sum string
	rows                []string
}

func hashCSV(scenario, file, csv string) figureHash {
	h := figureHash{scenario: scenario, file: file}
	sum := sha256.Sum256([]byte(csv))
	h.sum = hex.EncodeToString(sum[:])
	for _, row := range csvRows(csv) {
		r := sha256.Sum256([]byte(row))
		h.rows = append(h.rows, hex.EncodeToString(r[:4]))
	}
	return h
}

func csvRows(csv string) []string { return strings.Split(strings.TrimSuffix(csv, "\n"), "\n") }

func (h figureHash) String() string {
	return fmt.Sprintf("%s %s %s %s", h.scenario, h.file, h.sum, strings.Join(h.rows, ","))
}

// TestFiguresMatchPinnedHashes regenerates every CSV of the figure set
// and compares it with the hash pinned in testdata/figures.sha256, so a
// change that moves one virtual instant, counter or row of any figure
// fails here rather than in a hand-run diff. A change that means to move
// a figure re-pins with
//
//	go test ./internal/exp -run TestFiguresMatchPinnedHashes -update -v
//
// which rewrites the file and logs each CSV's hash and changed rows
// before and after.
func TestFiguresMatchPinnedHashes(t *testing.T) {
	pinned, err := readFigureHashes(figureHashFile)
	if err != nil && !*updateFigures {
		t.Fatal(err)
	}
	// Each run writes only its own slot, so the parallel subtests share
	// nothing.
	got := make([][]figureHash, len(figureRuns))
	t.Run("set", func(t *testing.T) {
		for i, r := range figureRuns {
			t.Run(r.scenario, func(t *testing.T) {
				t.Parallel()
				csvs, err := r.run()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range csvs {
					csv := c.table.CSV()
					h := hashCSV(r.scenario, c.file, csv)
					got[i] = append(got[i], h)
					if !*updateFigures {
						checkFigure(t, pinned[c.file], h, csv)
					}
				}
			})
		}
	})
	if *updateFigures {
		writeFigureHashes(t, pinned, got)
		return
	}
	generated := map[string]bool{}
	for _, hs := range got {
		for _, h := range hs {
			generated[h.file] = true
		}
	}
	for file := range pinned {
		if !generated[file] && !t.Failed() {
			t.Errorf("%s is pinned but no scenario of the set generated it", file)
		}
	}
}

// checkFigure compares one regenerated CSV with its pinned hash and, on
// a mismatch, reports the first row whose digest differs.
func checkFigure(t *testing.T, want, got figureHash, csv string) {
	t.Helper()
	switch {
	case want.file == "":
		t.Errorf("%s: no pinned hash (run with -update to pin it)", got.file)
	case want.sum == got.sum:
	default:
		rows := csvRows(csv)
		for i := range min(len(want.rows), len(got.rows)) {
			if want.rows[i] != got.rows[i] {
				t.Errorf("%s moved: first differing row is row %d of %d, now %q", got.file, i+1, len(rows), rows[i])
				return
			}
		}
		t.Errorf("%s moved: %d rows pinned, %d now; the common rows match", got.file, len(want.rows), len(got.rows))
	}
}

func readFigureHashes(path string) (map[string]figureHash, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]figureHash{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[1]] = figureHash{scenario: fields[0], file: fields[1], sum: fields[2], rows: strings.Split(fields[3], ",")}
	}
	return out, sc.Err()
}

// writeFigureHashes rewrites the hash file in figure-set order and logs,
// per CSV, its hash before and after and how many rows changed.
func writeFigureHashes(t *testing.T, old map[string]figureHash, got [][]figureHash) {
	var b strings.Builder
	b.WriteString("# CI's determinism set, one line per CSV: scenario (the oxbench -run\n" +
		"# argument that writes it), file, SHA-256 of the file, and the first\n" +
		"# four bytes of each row's SHA-256.\n" +
		"# Regenerate with: go test ./internal/exp -run TestFiguresMatchPinnedHashes -update -v\n")
	t.Logf("%-24s %-12s %-12s %s", "file", "pinned", "now", "rows changed")
	for _, hs := range got {
		for _, h := range hs {
			b.WriteString(h.String() + "\n")
			o := old[h.file]
			changed := max(len(o.rows), len(h.rows))
			for i := range min(len(o.rows), len(h.rows)) {
				if o.rows[i] == h.rows[i] {
					changed--
				}
			}
			t.Logf("%-24s %-12.12s %-12.12s %d", h.file, o.sum, h.sum, changed)
		}
	}
	if err := os.WriteFile(figureHashFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
