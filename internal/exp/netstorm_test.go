package exp

import (
	"testing"
	"time"
)

// netstormTestConfig is the reduced storm the tests run (the full
// 24-event run is cmd/oxbench -run netstorm and the CI determinism
// diff): small enough to iterate, large enough that every scripted
// fault fires and every FTL resumes through kills, drops and
// partitions.
func netstormTestConfig() NetstormConfig {
	cfg := DefaultNetstorm()
	cfg.Clients = 6
	cfg.OpsPerClient = 30
	cfg.Events = 8
	cfg.KeepAlive = 100 * time.Millisecond
	return cfg
}

// TestNetstormShape checks the invariants the scenario exists to
// enforce: every scripted fault fired, every fault cost exactly one
// session resumption, every acknowledged write read back (Netstorm
// errors out on any integrity violation), and the storm pass's virtual
// timeline matched the fault-free pass — the zero-duplicate oracle.
func TestNetstormShape(t *testing.T) {
	cfg := netstormTestConfig()
	pts, err := Netstorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d storm rows, want 3", len(pts))
	}
	for _, p := range pts {
		if p.Events != cfg.Events {
			t.Errorf("%s: %d faults fired, want %d", p.FTL, p.Events, cfg.Events)
		}
		if p.Resumes != cfg.Events {
			t.Errorf("%s: %d resumes for %d severing faults, want one each", p.FTL, p.Resumes, cfg.Events)
		}
		if p.Acked != int64(cfg.Clients*cfg.OpsPerClient) {
			t.Errorf("%s: acked %d of %d ops", p.FTL, p.Acked, cfg.Clients*cfg.OpsPerClient)
		}
		if p.Verified == 0 {
			t.Errorf("%s: verification sweep checked nothing", p.FTL)
		}
		if !p.Match {
			t.Errorf("%s: storm pass diverged from fault-free pass", p.FTL)
		}
	}
}

// TestNetstormDeterministic pins the storm table bit-for-bit across
// two runs: fault triggers are frame-count-based, the orchestrator
// keeps one command in flight globally, and replay re-executes at
// original doorbell instants, so nothing in the table may wobble.
func TestNetstormDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("storm determinism run is slow")
	}
	run := func() string {
		pts, err := Netstorm(netstormTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return NetstormTable(pts).CSV()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("netstorm table differs across runs:\n%s\n---\n%s", a, b)
	}
}
