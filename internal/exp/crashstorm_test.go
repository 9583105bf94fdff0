package exp

import "testing"

// TestCrashstormShape runs a reduced storm (the full 50-cycle run is
// cmd/oxbench -run crashstorm and the CI determinism diff) and checks
// the invariants the scenario exists to enforce: every cycle fired a
// cut, nothing acknowledged was lost (Crashstorm errors out on any
// integrity violation), and the log-structured FTLs actually replayed
// records — a storm that never exercises recovery proves nothing.
func TestCrashstormShape(t *testing.T) {
	cfg := DefaultCrashstorm()
	cfg.Cycles = 10
	pts, err := Crashstorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d storm rows, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Cuts != cfg.Cycles {
			t.Errorf("%s: %d cuts over %d cycles, want one per cycle", p.FTL, p.Cuts, cfg.Cycles)
		}
		if p.Acked == 0 || p.Verified == 0 {
			t.Errorf("%s: acked=%d verified=%d, storm did no work", p.FTL, p.Acked, p.Verified)
		}
		switch p.FTL {
		case "oxblock", "oxeleos", "lightlsm":
			if p.ReplayRecs == 0 {
				t.Errorf("%s: no WAL records replayed across %d recoveries", p.FTL, cfg.Cycles)
			}
		case "oxzns":
			// Zone state rebuilds from chunk metadata alone.
			if p.ReplayRecs != 0 {
				t.Errorf("oxzns: replayed %d records, want 0 (no log)", p.ReplayRecs)
			}
		}
	}
}

// TestCrashstormDeterministic pins the storm table bit-for-bit across
// two runs: recovery time is virtual, cut points are op-count-based,
// and the oracle iterates in sorted order, so nothing in the table may
// wobble.
func TestCrashstormDeterministic(t *testing.T) {
	run := func() string {
		cfg := DefaultCrashstorm()
		cfg.Cycles = 6
		pts, err := Crashstorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return CrashstormTable(pts).CSV()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("storm table differs between runs:\n%s\nvs\n%s", a, b)
	}
}
