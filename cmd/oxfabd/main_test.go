package main

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/hostif"
)

// TestServedBlockNamespaceOutlivesItsLog pushes 100 k 4 KB writes
// through the block namespace exactly as the daemon builds it. Each
// write forces a WAL stripe, so without periodic checkpoints truncating
// the log the namespace runs out of chunks ("WAL out of chunks") long
// before that — after ~3 k writes on this 288 MB rig, ~70 k on the
// daemon's 2.3 GB one. A served FTL must have no time-to-death.
func TestServedBlockNamespaceOutlivesItsLog(t *testing.T) {
	rig := exp.DefaultRig()
	rig.Groups, rig.PUsPerGroup, rig.ChunksPerPU = 4, 2, 24
	_, ctrl, err := rig.Build()
	if err != nil {
		t.Fatal(err)
	}
	const pages = 8192
	ns, now, err := buildNamespace(ctrl, "block", pages, "")
	if err != nil {
		t.Fatal(err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	defer host.Close()
	nsid, err := host.Admin().AttachNamespace(now, ns)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := host.Admin().CreateIOQueuePair(now, 1, hostif.ClassMedium)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := 0; i < 100_000; i++ {
		data[0], data[1], data[2] = byte(i), byte(i>>8), byte(i>>16)
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, nsid, int64(i*7919)%pages, data
		if err := qp.Push(now, cmd); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			t.Fatalf("write %d: %v", i, comp.Err)
		}
		now = comp.Done
	}
}
