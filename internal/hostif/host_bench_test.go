package hostif

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// nullNS is a namespace with a fixed per-command latency and no shared
// state, so the benchmark measures host-interface overhead — lock
// contention and per-command bookkeeping — rather than FTL work.
type nullNS struct{ dur vclock.Duration }

func (n nullNS) Name() string { return "null" }

func (n nullNS) Execute(now vclock.Time, cmd *Command) Result {
	return Result{End: now.Add(n.dur)}
}

// Footprint implements Namespace: stateless, so any command may overlap
// with any other (one shared pseudo-domain, disjoint group masks).
func (n nullNS) Footprint(cmd *Command) Footprint {
	return Footprint{Domain: nullDomain, Groups: 1 << uint(cmd.LPN&63)}
}

// nullDomain is the shared footprint domain of all nullNS instances.
var nullDomain = new(int)

// BenchmarkHostMultiSubmitter measures wall-clock scaling of N
// goroutines driving N queue pairs: each worker builds a payload per
// command (the host-side work a real submitter does), stages a
// doorbell batch, rings, and reaps the batch. Queue pairs are sharded,
// so all per-queue work overlaps; only the arbitration/execution step
// remains serial (it must be, for determinism).
func BenchmarkHostMultiSubmitter(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-%d", workers), func(b *testing.B) {
			benchMultiSubmitter(b, workers)
		})
	}
}

func benchMultiSubmitter(b *testing.B, workers int) {
	const depth = 8
	const payload = 4096
	ctrl := testController(b)
	h := NewHost(ctrl, HostConfig{})
	if _, err := h.Admin().AttachNamespace(0, nullNS{dur: vclock.Microsecond}); err != nil {
		b.Fatal(err)
	}
	qps := make([]*QueuePair, workers)
	for i := range qps {
		qps[i] = openQP(b, h, depth)
	}
	opsPerWorker := b.N/workers + 1
	b.SetBytes(payload)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, qp *QueuePair) {
			defer wg.Done()
			buf := make([]byte, payload)
			now := vclock.Time(0)
			for done := 0; done < opsPerWorker; {
				batch := depth
				if left := opsPerWorker - done; left < batch {
					batch = left
				}
				for i := 0; i < batch; i++ {
					for j := range buf {
						buf[j] = byte(w + done + i + j)
					}
					cmd := qp.AcquireCommand()
					cmd.Op, cmd.LPN, cmd.Data = OpWrite, int64(done+i), buf
					if _, err := qp.Submit(cmd); err != nil {
						b.Error(err)
						return
					}
				}
				qp.Ring(now)
				for i := 0; i < batch; i++ {
					c := qp.MustReap()
					if c.Done > now {
						now = c.Done
					}
				}
				done += batch
			}
		}(w, qps[w])
	}
	wg.Wait()
}
