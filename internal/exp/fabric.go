package exp

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// FabricConfig parameterizes the fabric overload scenario: hundreds of
// simulated hosts, each with its own fabric connection (one queue pair
// per connection), driving the served controller open-loop. Arrivals
// are Poisson per client; a client with a full command window queues
// the op in a bounded backlog and sheds it when the backlog is full —
// the backpressure path. A subset of clients churns: they abruptly
// drop their connection every ChurnEvery completions and redial,
// exercising the server's reap-and-release cleanup mid-run.
//
// A single-threaded orchestrator sequences everything through a global
// virtual-time event heap (ties broken by client then sequence
// number), so although hundreds of real connections and server
// goroutines exist, at most one doorbell is in flight at any moment
// and the output is a pure function of the seed: every column is
// virtual-time-derived and lands in the CI determinism diff.
type FabricConfig struct {
	// Clients is the number of simulated hosts (one connection each),
	// assigned round-robin to the high, medium and low WRR classes.
	Clients int
	// OpsPerClient is the number of open-loop arrivals each client
	// generates per load point.
	OpsPerClient int
	// Window is each client's command window (and the queue depth its
	// handshake requests): ops beyond it wait in the backlog.
	Window int
	// BacklogCap bounds the per-client backlog; arrivals past it are
	// shed — the scenario's explicit backpressure signal.
	BacklogCap int
	// TxnPages / ReadPages size writes and reads in 4 KB pages.
	TxnPages  int
	ReadPages int
	// LogicalPages sizes the OX-Block namespace.
	LogicalPages int64
	// Loads are offered-load multipliers of the calibrated closed-loop
	// capacity; values past 1.0 drive the device into overload.
	Loads []float64
	// CalOps / CalDepth parameterize the calibration run that measures
	// capacity on a fresh rig before the load points.
	CalOps   int
	CalDepth int
	// ChurnClients is how many clients drop and redial their
	// connection every ChurnEvery completed ops.
	ChurnClients int
	ChurnEvery   int
	Seed         int64
	// Addr, when non-empty, targets an already-running oxfabd server
	// instead of a fresh loopback rig per load point. Remote targets
	// accumulate state across points, so output is not deterministic
	// run-to-run; the CI determinism diff only pins the default.
	Addr string
	// NSID is the namespace to drive in Addr mode (default 1).
	NSID int
}

// DefaultFabric returns the default scenario shape: 240 clients, a
// load sweep from comfortable to past saturation, and a quarter of the
// fleet churning.
func DefaultFabric() FabricConfig {
	return FabricConfig{
		Clients:      240,
		OpsPerClient: 40,
		Window:       4,
		BacklogCap:   8,
		TxnPages:     8,
		ReadPages:    8,
		LogicalPages: 8192,
		Loads:        []float64{0.6, 1.0, 1.5},
		CalOps:       1200,
		CalDepth:     32,
		ChurnClients: 60,
		ChurnEvery:   15,
		Seed:         23,
		NSID:         1,
	}
}

// qd maps the scenario's rig knobs onto the qd-sweep config it reuses
// for rig construction and capacity calibration.
func (cfg FabricConfig) qd() QDSweepConfig {
	return QDSweepConfig{
		TxnPages:     cfg.TxnPages,
		ReadPages:    cfg.ReadPages,
		LogicalPages: cfg.LogicalPages,
		Seed:         cfg.Seed,
	}
}

// fabricClasses maps the table's class columns to WRR classes.
var fabricClasses = [3]hostif.Class{hostif.ClassHigh, hostif.ClassMedium, hostif.ClassLow}

// FabricPoint is one load point of the scenario.
type FabricPoint struct {
	Load          float64
	OfferedKIOPS  float64
	AchievedKIOPS float64
	Done          int
	Shed          int
	Redials       int
	Elapsed       vclock.Duration
	// Lat holds per-class open-loop latency (arrival to completion,
	// including backlog wait), indexed as fabricClasses.
	Lat [3]*metrics.Histogram
}

// Event kinds for the orchestrator heap.
const (
	evArrival = iota
	evSlotFree
)

// fabricEvent is one entry in the global virtual-time event heap.
// Backlogged arrivals keep their generation instant in the client's
// backlog slice, not here.
type fabricEvent struct {
	t      vclock.Time
	client int
	seq    uint64
	kind   int
}

type eventHeap []fabricEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].client != h[j].client {
		return h[i].client < h[j].client
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(fabricEvent)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) next() fabricEvent { return heap.Pop(h).(fabricEvent) }

// fabricClient is one simulated host's live state.
type fabricClient struct {
	qp        *fabrics.QueuePair
	class     hostif.Class
	classIdx  int
	rng       *rand.Rand
	draw      func(*hostif.Command)
	interval  float64 // mean inter-arrival time in virtual seconds
	free      int     // open window slots
	backlog   []vclock.Time
	generated int
	completed int
	churn     bool
}

// Fabric runs the scenario: calibrate closed-loop capacity, then one
// open-loop run per offered-load multiplier.
func Fabric(cfg FabricConfig) ([]FabricPoint, error) {
	capacity, err := fabricCapacity(cfg)
	if err != nil {
		return nil, fmt.Errorf("fabric calibration: %w", err)
	}
	var out []FabricPoint
	for _, load := range cfg.Loads {
		p, err := fabricPoint(cfg, load, capacity)
		if err != nil {
			return out, fmt.Errorf("fabric load %.2f: %w", load, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// fabricCapacity measures the device's closed-loop capacity in IOPS at
// CalDepth: the denominator that turns Loads into arrival rates. The
// default mode calibrates on a fresh rig (qdRunFabric builds its own);
// Addr mode calibrates against the remote server.
func fabricCapacity(cfg FabricConfig) (float64, error) {
	q := cfg.qd()
	q.Ops = cfg.CalOps
	var p QDPoint
	var err error
	if cfg.Addr == "" {
		p, err = qdRunFabric(q, cfg.CalDepth)
	} else {
		cli := fabrics.Dial(cfg.Addr)
		var qp *fabrics.QueuePair
		qp, err = cli.QueuePair(0, cfg.CalDepth, hostif.ClassMedium, 1)
		if err != nil {
			return 0, err
		}
		p, err = qdMeasure(q, cfg.CalDepth, cfg.NSID, 0, qp)
		qp.Close()
	}
	if err != nil {
		return 0, err
	}
	if p.KIOPS <= 0 {
		return 0, fmt.Errorf("calibration measured no throughput")
	}
	return p.KIOPS * 1000, nil
}

// fabricPoint runs one load point: fresh rig and server (default mode),
// prefill, then the open-loop event heap until every arrival is
// generated and every issued command's window slot has freed.
func fabricPoint(cfg FabricConfig, load, capacity float64) (FabricPoint, error) {
	cli, nsid, now, cleanup, err := fabricConnect(cfg)
	if err != nil {
		return FabricPoint{}, err
	}
	defer cleanup()

	// Prefill through a synchronous queue pair so reads hit mapped
	// pages; the measured run starts at the prefill's end instant.
	data := make([]byte, cfg.TxnPages*4096)
	pre, err := cli.QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		return FabricPoint{}, err
	}
	now, err = prefillBlock(pre, nsid, cfg.LogicalPages, cfg.TxnPages, data, now)
	pre.Close()
	if err != nil {
		return FabricPoint{}, err
	}

	p := FabricPoint{
		Load:         load,
		OfferedKIOPS: load * capacity / 1000,
	}
	for i := range p.Lat {
		p.Lat[i] = metrics.NewHistogram()
	}

	// Build the fleet: one connection per client, classes round-robin,
	// the churn subset spread evenly across classes.
	clients := make([]*fabricClient, cfg.Clients)
	perClient := load * capacity / float64(cfg.Clients)
	for i := range clients {
		c := &fabricClient{
			class:    fabricClasses[i%3],
			classIdx: i % 3,
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			interval: 1 / perClient,
			free:     cfg.Window,
			churn:    i < cfg.ChurnClients,
		}
		c.draw = mixedDraw(c.rng, nsid, cfg.LogicalPages, cfg.TxnPages, cfg.ReadPages, data)
		if c.qp, err = cli.QueuePair(now, cfg.Window, c.class, 1); err != nil {
			return FabricPoint{}, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.qp.Close()
		}
	}()

	var (
		h      eventHeap
		seq    uint64
		end    = now
		start  = now
		redial = func(c *fabricClient, t vclock.Time) error {
			c.qp.Close()
			qp, err := cli.QueuePair(t, cfg.Window, c.class, 1)
			if err != nil {
				return err
			}
			c.qp = qp
			p.Redials++
			return nil
		}
	)
	push := func(t vclock.Time, client, kind int) {
		seq++
		heap.Push(&h, fabricEvent{t: t, client: client, seq: seq, kind: kind})
	}
	// issue submits one op at virtual time t (arrival genT may be
	// earlier if it waited in the backlog), rings the doorbell, and
	// reaps its completion immediately: the completion's Done instant
	// is when the window slot frees, so the heap — not the wire —
	// decides when the next queued op may go.
	issue := func(ci int, c *fabricClient, genT, t vclock.Time) error {
		c.free--
		cmd := c.qp.AcquireCommand()
		c.draw(cmd)
		if err := c.qp.Push(t, cmd); err != nil {
			return err
		}
		comp, ok := c.qp.Reap()
		if !ok {
			return c.qp.Err()
		}
		if comp.Err != nil {
			return comp.Err
		}
		p.Lat[c.classIdx].Observe(comp.Done.Sub(genT))
		p.Done++
		if comp.Done > end {
			end = comp.Done
		}
		push(comp.Done, ci, evSlotFree)
		c.completed++
		if c.churn && c.completed%cfg.ChurnEvery == 0 {
			return redial(c, t)
		}
		return nil
	}

	for i, c := range clients {
		push(now.Add(expDur(c)), i, evArrival)
	}
	for h.Len() > 0 {
		ev := h.next()
		c := clients[ev.client]
		switch ev.kind {
		case evArrival:
			c.generated++
			if c.generated < cfg.OpsPerClient {
				push(ev.t.Add(expDur(c)), ev.client, evArrival)
			}
			switch {
			case c.free > 0:
				if err := issue(ev.client, c, ev.t, ev.t); err != nil {
					return FabricPoint{}, err
				}
			case len(c.backlog) < cfg.BacklogCap:
				c.backlog = append(c.backlog, ev.t)
			default:
				p.Shed++
			}
		case evSlotFree:
			c.free++
			if len(c.backlog) > 0 {
				genT := c.backlog[0]
				c.backlog = c.backlog[1:]
				if err := issue(ev.client, c, genT, ev.t); err != nil {
					return FabricPoint{}, err
				}
			}
		}
	}

	p.Elapsed = end.Sub(start)
	if p.Elapsed > 0 {
		p.AchievedKIOPS = float64(p.Done) / p.Elapsed.Seconds() / 1000
	}
	return p, nil
}

// expDur draws one exponential inter-arrival gap from the client's
// stream.
func expDur(c *fabricClient) vclock.Duration {
	return vclock.Duration(c.rng.ExpFloat64() * c.interval * float64(vclock.Second))
}

// fabricConnect yields the scenario's client: a fresh loopback rig and
// server by default, or a dialer at the configured remote address.
func fabricConnect(cfg FabricConfig) (cli *fabrics.Client, nsid int, now vclock.Time, cleanup func(), err error) {
	if cfg.Addr != "" {
		nsid = cfg.NSID
		if nsid == 0 {
			nsid = 1
		}
		return fabrics.Dial(cfg.Addr), nsid, 0, func() {}, nil
	}
	host, nsid, now, err := qdRig(cfg.qd())
	if err != nil {
		return nil, 0, 0, nil, err
	}
	srv := fabrics.NewServer(host)
	return fabrics.Loopback(srv), nsid, now, func() { srv.Close() }, nil
}

// FabricTable renders the scenario: offered versus achieved load, shed
// and redial counts, and per-class open-loop latency percentiles.
func FabricTable(points []FabricPoint) *Table {
	t := &Table{
		Title: "Fabric overload: open-loop Poisson clients over the TCP transport (per-class arrival-to-completion latency)",
		Headers: []string{"load", "offer kIOPS", "ach kIOPS", "done", "shed", "redials",
			"hi p50", "hi p95", "hi p99",
			"md p50", "md p95", "md p99",
			"lo p50", "lo p95", "lo p99"},
	}
	for _, p := range points {
		cells := []any{fmt.Sprintf("%.2f", p.Load),
			fmt.Sprintf("%.1f", p.OfferedKIOPS), fmt.Sprintf("%.1f", p.AchievedKIOPS),
			p.Done, p.Shed, p.Redials}
		for _, h := range p.Lat {
			for _, s := range metrics.LatencyRow(h) {
				cells = append(cells, s)
			}
		}
		t.Add(cells...)
	}
	return t
}
