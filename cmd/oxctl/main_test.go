package main

import (
	"testing"

	"repro/internal/hostif"
)

// TestEngineDemoOverlaps pins the point of oxctl -cmd executor: its
// disjoint-group zone appends must actually run side by side in the
// engine, not one at a time behind it.
func TestEngineDemoOverlaps(t *testing.T) {
	log := engineDemo()
	if log.Executor != hostif.ExecutorBatched {
		t.Fatalf("demo ran the %s executor, want the engine: %+v", log.Executor, log)
	}
	if log.Overlapped == 0 || log.MaxInflight < 2 {
		t.Fatalf("demo realized no overlap (overlapped %d, max inflight %d): %+v",
			log.Overlapped, log.MaxInflight, log)
	}
}
