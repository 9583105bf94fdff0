package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/metrics"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// QDSweepConfig parameterizes the queue-depth sweep — a scenario the
// host-interface layer opens up beyond the paper's figures: one host
// actor keeps QD commands in flight on a single queue pair against
// OX-Block (doorbell-batched initial burst, then one resubmission per
// completion), mixing transactional writes with reads. Throughput and
// per-command-type latency percentiles show the classic trade: deeper
// queues buy throughput until the device saturates, then only buy
// latency.
type QDSweepConfig struct {
	// Depths are the queue depths to sweep.
	Depths []int
	// Ops is the number of measured commands per depth point.
	Ops int
	// TxnPages is the size of each write transaction in 4 KB pages.
	TxnPages int
	// ReadPages is the size of each read in 4 KB pages.
	ReadPages int
	// LogicalPages sizes the OX-Block namespace (prefilled before
	// measuring so reads hit mapped pages).
	LogicalPages int64
	Seed         int64
}

// DefaultQDSweep returns the default sweep.
func DefaultQDSweep() QDSweepConfig {
	return QDSweepConfig{
		Depths:       []int{1, 2, 4, 8, 16, 32},
		Ops:          2000,
		TxnPages:     32,
		ReadPages:    32,
		LogicalPages: 16384,
		Seed:         17,
	}
}

// QDPoint is one row of the sweep.
type QDPoint struct {
	Depth    int
	Ops      int
	WriteKB  int // bytes per write command, in KB
	ReadKB   int // bytes per read command, in KB
	KIOPS    float64
	MBps     float64
	Elapsed  vclock.Duration
	WriteLat *metrics.Histogram
	ReadLat  *metrics.Histogram
}

// pushSession is the synchronous (depth-1) queue-pair surface:
// satisfied by hostif.QueuePair and by the fabric client queue pair,
// so prefill runs identically in-process and over the wire.
type pushSession interface {
	AcquireCommand() *hostif.Command
	Push(vclock.Time, *hostif.Command) error
	MustReap() hostif.Completion
}

// qdSession is the full closed-loop surface the measured sweep drives:
// batched submission plus earliest-completion reaping. The in-process
// implementation pairs a queue pair with host.ReapAny (localSession);
// the fabric client queue pair implements it directly, which is what
// lets the loopback-equivalence test byte-diff the two.
type qdSession interface {
	pushSession
	Submit(*hostif.Command) (uint64, error)
	Ring(vclock.Time) int
	ReapEarliest() (hostif.Completion, bool)
}

// localSession adapts an in-process queue pair to qdSession: with a
// single I/O queue pair, host.ReapAny's globally-earliest pick is the
// queue's earliest completion by (Done, slot).
type localSession struct {
	*hostif.QueuePair
	host *hostif.Host
}

func (s localSession) ReapEarliest() (hostif.Completion, bool) { return s.host.ReapAny() }

// prefillBlock writes the namespace's pages sequentially through the
// session (depth-1 submissions) so later reads hit mapped media.
func prefillBlock(qp pushSession, nsid int, pages int64, txnPages int, data []byte, now vclock.Time) (vclock.Time, error) {
	for lpn := int64(0); lpn+int64(txnPages) <= pages; lpn += int64(txnPages) {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.Data, cmd.LPN = hostif.OpWrite, nsid, data, lpn
		if err := qp.Push(now, cmd); err != nil {
			return now, err
		}
		comp := qp.MustReap()
		if comp.Err != nil {
			return now, comp.Err
		}
		now = comp.Done
	}
	return now, nil
}

// mixedDraw returns a generator for a 50/50 read/write command mix at
// random aligned extents within the namespace.
func mixedDraw(rng *rand.Rand, nsid int, span int64, txnPages, readPages int, data []byte) func(*hostif.Command) {
	writeSpan := span - int64(txnPages)
	readSpan := span - int64(readPages)
	return func(cmd *hostif.Command) {
		if rng.Intn(2) == 0 {
			*cmd = hostif.Command{Op: hostif.OpWrite, NSID: nsid,
				LPN: rng.Int63n(writeSpan) / int64(txnPages) * int64(txnPages), Data: data}
		} else {
			*cmd = hostif.Command{Op: hostif.OpRead, NSID: nsid,
				LPN: rng.Int63n(readSpan) / int64(readPages) * int64(readPages), Pages: readPages}
		}
	}
}

// QDSweep runs the sweep, one fresh rig per depth point.
func QDSweep(cfg QDSweepConfig) ([]QDPoint, error) {
	var out []QDPoint
	for _, depth := range cfg.Depths {
		p, err := qdRun(cfg, depth)
		if err != nil {
			return out, fmt.Errorf("qd sweep depth %d: %w", depth, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// QDSweepLoopback runs the identical sweep with every command crossing
// the fabrics wire layer over the loopback transport. Virtual timing
// is a pure function of the submission history, which the wire
// preserves exactly, so the result must be byte-identical to QDSweep —
// the loopback-equivalence guarantee the fabrics tests and the CI
// determinism diff pin.
func QDSweepLoopback(cfg QDSweepConfig) ([]QDPoint, error) {
	var out []QDPoint
	for _, depth := range cfg.Depths {
		p, err := qdRunFabric(cfg, depth)
		if err != nil {
			return out, fmt.Errorf("qd fabric sweep depth %d: %w", depth, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// qdRig builds one depth point's testbed: rig, OX-Block namespace and
// host, returning the host and attach instant.
func qdRig(cfg QDSweepConfig) (*hostif.Host, int, vclock.Time, error) {
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return nil, 0, 0, err
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: cfg.LogicalPages}, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		return nil, 0, 0, err
	}
	return host, nsid, now, nil
}

func qdRun(cfg QDSweepConfig, depth int) (QDPoint, error) {
	host, nsid, now, err := qdRig(cfg)
	if err != nil {
		return QDPoint{}, err
	}
	defer host.Close()
	qp, err := host.Admin().CreateIOQueuePair(now, depth, hostif.ClassMedium)
	if err != nil {
		return QDPoint{}, err
	}
	return qdMeasure(cfg, depth, nsid, now, localSession{QueuePair: qp, host: host})
}

// qdRunFabric is qdRun with the queue pair served over the loopback
// fabric: same rig, same seed, same command sequence — only the
// transport differs.
func qdRunFabric(cfg QDSweepConfig, depth int) (QDPoint, error) {
	host, nsid, now, err := qdRig(cfg)
	if err != nil {
		return QDPoint{}, err
	}
	defer host.Close()
	srv := fabrics.NewServer(host)
	defer srv.Close()
	qp, err := fabrics.Loopback(srv).QueuePair(now, depth, hostif.ClassMedium, 1)
	if err != nil {
		return QDPoint{}, err
	}
	defer qp.Close()
	return qdMeasure(cfg, depth, nsid, now, qp)
}

// qdMeasure is the sweep's measured loop, generic over the transport.
func qdMeasure(cfg QDSweepConfig, depth, nsid int, now vclock.Time, qp qdSession) (QDPoint, error) {
	// Prefill the namespace sequentially (depth 1) so reads hit media.
	data := make([]byte, cfg.TxnPages*4096)
	now, err := prefillBlock(qp, nsid, cfg.LogicalPages, cfg.TxnPages, data, now)
	if err != nil {
		return QDPoint{}, err
	}

	// Measured phase: a 50/50 read/write mix at random aligned extents.
	// The initial QD commands are staged and made visible with a single
	// doorbell ring — batched submission — then the loop keeps the
	// queue full by resubmitting at each completion. The seed does not
	// vary with depth: every depth point replays the identical command
	// sequence, so queue depth is the sweep's only variable.
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := mixedDraw(rng, nsid, cfg.LogicalPages, cfg.TxnPages, cfg.ReadPages, data)
	issued := 0
	for i := 0; i < depth && issued < cfg.Ops; i++ {
		cmd := qp.AcquireCommand()
		draw(cmd)
		if _, err := qp.Submit(cmd); err != nil {
			return QDPoint{}, err
		}
		issued++
	}
	start := now
	qp.Ring(start)

	p := QDPoint{
		Depth:    depth,
		Ops:      cfg.Ops,
		WriteKB:  cfg.TxnPages * 4,
		ReadKB:   cfg.ReadPages * 4,
		WriteLat: metrics.NewHistogram(),
		ReadLat:  metrics.NewHistogram(),
	}
	var bytes int64
	end := start
	for remaining := cfg.Ops; remaining > 0; remaining-- {
		comp, ok := qp.ReapEarliest()
		if !ok {
			return QDPoint{}, fmt.Errorf("qd sweep: completion queue ran dry with %d outstanding", remaining)
		}
		if comp.Err != nil {
			return QDPoint{}, comp.Err
		}
		switch comp.Op {
		case hostif.OpWrite:
			p.WriteLat.Observe(comp.Latency())
			bytes += int64(cfg.TxnPages) * 4096
		case hostif.OpRead:
			p.ReadLat.Observe(comp.Latency())
			bytes += int64(cfg.ReadPages) * 4096
		}
		if comp.Done > end {
			end = comp.Done
		}
		if issued < cfg.Ops {
			// The reaped completion just recycled its command slot; the
			// arena hands the same storage straight back.
			cmd := qp.AcquireCommand()
			draw(cmd)
			if err := qp.Push(comp.Done, cmd); err != nil {
				return QDPoint{}, err
			}
			issued++
		}
	}
	p.Elapsed = end.Sub(start)
	if p.Elapsed > 0 {
		p.KIOPS = float64(cfg.Ops) / p.Elapsed.Seconds() / 1000
		p.MBps = float64(bytes) / 1e6 / p.Elapsed.Seconds()
	}
	return p, nil
}

// QDSweepTable renders the sweep: throughput plus p50/p95/p99 latency
// per command type at each queue depth.
func QDSweepTable(points []QDPoint) *Table {
	title := "Queue-depth sweep: OX-Block 50/50 read/write through one queue pair"
	if len(points) > 0 {
		title += fmt.Sprintf(" (%d KB writes, %d KB reads)", points[0].WriteKB, points[0].ReadKB)
	}
	t := &Table{
		Title: title,
		Headers: []string{"QD", "kIOPS", "MB/s",
			"wr p50", "wr p95", "wr p99",
			"rd p50", "rd p95", "rd p99"},
	}
	for _, p := range points {
		cells := []any{p.Depth, fmt.Sprintf("%.1f", p.KIOPS), fmt.Sprintf("%.0f", p.MBps)}
		for _, s := range metrics.LatencyRow(p.WriteLat) {
			cells = append(cells, s)
		}
		for _, s := range metrics.LatencyRow(p.ReadLat) {
			cells = append(cells, s)
		}
		t.Add(cells...)
	}
	return t
}
