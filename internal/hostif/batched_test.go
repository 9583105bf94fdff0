package hostif

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// matchesSerialRandomized is the executor-equivalence oracle at the
// host level: a randomized multi-queue workload with mixed footprints
// (disjoint lanes, same-lane conflicts, exclusive barriers, admin
// interleavings, bad NSIDs) must produce completion streams that are
// bit-identical — same order, same virtual times — under the serial
// executor and the engine with the given worker count. Every round
// stages several queues before reaping, so the engine gathers
// multi-grant batches and meets conflicts inside them.
func matchesSerialRandomized(t *testing.T, workers int) {
	const queues, rounds, lanes = 6, 40, 4
	run := func(cfg HostConfig) ([]Completion, ExecutorLog) {
		h := NewHost(testController(t), cfg)
		t.Cleanup(h.Close)
		ns := newSlowNS(lanes, 9*vclock.Microsecond)
		attachNS(t, h, ns)
		qps := make([]*QueuePair, queues)
		for i := range qps {
			qps[i] = openQP(t, h, 4)
		}
		rng := rand.New(rand.NewSource(42))
		var out []Completion
		now := vclock.Time(0)
		for r := 0; r < rounds; r++ {
			for qi, qp := range qps {
				batch := rng.Intn(4)
				for b := 0; b < batch; b++ {
					op := OpWrite
					if rng.Intn(8) == 0 {
						op = OpFlush // exclusive: acts as a barrier
					}
					cmd := qp.AcquireCommand()
					cmd.Op = op
					cmd.Zone = rng.Intn(lanes)
					cmd.LPN = int64(r*1000 + qi*100 + b)
					if _, err := qp.Submit(cmd); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(16) == 0 {
						cmd.NSID = 9 // past Submit's check: the sequencer's bad-NSID inline class
					}
				}
				qp.Ring(now.Add(vclock.Duration(rng.Intn(50)) * vclock.Microsecond))
			}
			// Interleave control plane: an admin identify mid-stream.
			if r%7 == 3 {
				if _, err := h.Admin().Identify(now); err != nil {
					t.Fatal(err)
				}
			}
			for {
				c, ok := h.ReapAny()
				if !ok {
					break
				}
				out = append(out, c)
			}
			now = now.Add(200 * vclock.Microsecond)
		}
		log, err := h.Admin().ExecutorStats(now)
		if err != nil {
			t.Fatal(err)
		}
		return out, log
	}
	serial, _ := run(HostConfig{})
	got, log := run(HostConfig{Executor: ExecutorBatched, Workers: workers})
	if len(got) != len(serial) {
		t.Fatalf("workers=%d: %d completions vs serial %d", workers, len(got), len(serial))
	}
	badNSID := 0
	for i := range serial {
		if keyOf(serial[i]) != keyOf(got[i]) {
			t.Fatalf("workers=%d: completion %d diverged:\nserial  %+v\nbatched %+v",
				workers, i, serial[i], got[i])
		}
		if errors.Is(got[i].Err, ErrBadNSID) {
			badNSID++
		}
	}
	if log.Acquisitions >= log.Grants || log.ConflictStalls == 0 || badNSID == 0 {
		t.Fatalf("workers=%d: no multi-grant batch, conflict stall or bad NSID (%d): %+v", workers, badNSID, log)
	}
}

// TestPipelinedMatchesSerialRandomized runs the randomized oracle with
// four workers: gathered grants overlap in the pool and pass the
// reorder stage.
func TestPipelinedMatchesSerialRandomized(t *testing.T) { matchesSerialRandomized(t, 4) }

// TestBatchedMatchesSerialRandomized runs the randomized oracle with
// one worker, so the sequencer runs most of each gathered batch itself.
func TestBatchedMatchesSerialRandomized(t *testing.T) { matchesSerialRandomized(t, 1) }

// TestBatchedAmortizesAcquisitions proves the batch gather actually
// amortizes: with a deep multi-queue backlog visible at one doorbell
// instant, the batched executor takes far fewer arbitration
// acquisitions than it issues grants, while the executor log still
// identifies the engine and its pool size.
func TestBatchedAmortizesAcquisitions(t *testing.T) {
	h := NewHost(testController(t), HostConfig{Executor: ExecutorBatched, Workers: 4})
	t.Cleanup(h.Close)
	ns := newSlowNS(4, 10*vclock.Microsecond)
	attachNS(t, h, ns)
	qps := make([]*QueuePair, 4)
	for i := range qps {
		qps[i] = openQP(t, h, 8)
	}
	for round := 0; round < 4; round++ {
		for i, qp := range qps {
			for b := 0; b < 8; b++ {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.Zone, cmd.LPN = OpWrite, i, int64(round*100+b)
				if _, err := qp.Submit(cmd); err != nil {
					t.Fatal(err)
				}
			}
			qp.Ring(vclock.Time(round) * vclock.Time(vclock.Millisecond))
		}
		h.Drain()
		for _, qp := range qps {
			for {
				if _, ok := qp.Reap(); !ok {
					break
				}
			}
		}
	}
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.Executor != ExecutorBatched || log.Workers != 4 {
		t.Fatalf("log identity: %+v", log)
	}
	if log.Grants == 0 || log.Acquisitions == 0 {
		t.Fatalf("no activity recorded: %+v", log)
	}
	// 128 I/O grants at 32 visible per drain: well under one acquisition
	// per four grants even counting the admin (inline) traffic.
	if ratio := float64(log.Acquisitions) / float64(log.Grants); ratio > 0.25 {
		t.Fatalf("acquisitions/grant = %.3f, want ≤ 0.25: %+v", ratio, log)
	}
}

// stressRace is the 8-queue mixed-footprint stress for the engine,
// meant for -race: concurrent submitters drive group-scoped appends,
// reads and exclusive resets while reapers consume completions. Two
// queue pairs per group make eight submitters with overlapping
// (same-group) and disjoint (cross-group) footprints.
func stressRace(t *testing.T, workers int) {
	const groups, rounds = 4, 30
	h, nsid, report := znsHost(t, HostConfig{Executor: ExecutorBatched, Workers: workers}, groups)
	zoneOf := make([][]int, groups)
	for _, zi := range report {
		zoneOf[zi.Group] = append(zoneOf[zi.Group], zi.Index)
	}
	id, err := h.Admin().IdentifyNamespace(0, nsid)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*groups; w++ {
		qp := openQP(t, h, 2)
		wg.Add(1)
		go func(w int, qp *QueuePair) {
			defer wg.Done()
			g := w % groups
			zone := zoneOf[g][w/groups%len(zoneOf[g])]
			block := make([]byte, id.BlockSize)
			now := vclock.Time(0)
			for r := 0; r < rounds; r++ {
				cmd := qp.AcquireCommand()
				switch r % 6 {
				case 5:
					cmd.Op, cmd.NSID, cmd.Zone = OpZoneReset, nsid, zone
				case 2:
					cmd.Op, cmd.NSID, cmd.Zone = OpRead, nsid, zone
					cmd.LPN, cmd.Length = 0, int64(id.BlockSize)
				default:
					cmd.Op, cmd.NSID, cmd.Zone, cmd.Data = OpZoneAppend, nsid, zone, block
				}
				if err := qp.Push(now, cmd); err != nil {
					t.Error(err)
					return
				}
				// Reap's drain executes every visible command (waiting out
				// the pipeline), so the completion is always present even
				// when another goroutine's drain ran ours.
				c := qp.MustReap()
				if c.Err != nil {
					t.Errorf("workers %d submitter %d round %d: %v", workers, w, r, c.Err)
					return
				}
				now = c.Done
			}
		}(w, qp)
	}
	wg.Wait()
	log, err := h.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * groups * rounds); log.Grants < want {
		t.Fatalf("workers %d: grants %d, want ≥ %d (%+v)", workers, log.Grants, want, log)
	}
}

// TestPipelinedStressRace runs the stress with four workers, exercising
// the worker pool and the reorder stage.
func TestPipelinedStressRace(t *testing.T) { stressRace(t, 4) }

// TestBatchedStressRace runs the stress with one worker, so the
// sequencer runs jobs itself whenever the pool is busy.
func TestBatchedStressRace(t *testing.T) { stressRace(t, 1) }
