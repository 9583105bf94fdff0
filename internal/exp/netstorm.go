package exp

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/metrics"
	"repro/internal/netfault"
	"repro/internal/oxblock"
	"repro/internal/oxeleos"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// NetstormConfig parameterizes the network-fault storm: for each FTL
// served over the fabric (OX-Block, OX-ELEOS, OX-ZNS), a fleet of
// closed-loop clients drives a mixed workload through the
// internal/netfault proxy while a scripted schedule of connection
// kills, drops and partitions tears connections out from under them.
// The session layer's keep-alive, redial and idempotent-replay
// machinery must carry every client through: the run errors out on the
// first lost acknowledged write, and a fault-free shadow pass of the
// identical workload pins zero duplicate applications — a
// double-applied write would shift media timing and break the
// virtual-time equality the match column asserts.
//
// The fault script triggers on counts of upstream data frames, and the
// single-threaded virtual-time orchestrator keeps exactly one command
// in flight across the whole fleet, so faults land on a deterministic
// frame of a deterministic client: every column is a pure function of
// the seed and the table joins the CI determinism byte-diff.
type NetstormConfig struct {
	// Clients is the fleet size per FTL, assigned round-robin to the
	// high, medium and low WRR classes.
	Clients int
	// OpsPerClient is each client's closed-loop op count.
	OpsPerClient int
	// Events is the number of scripted faults per FTL.
	Events int
	// KeepAlive is the fleet's KATO (wall-clock liveness only; it
	// cannot touch virtual time).
	KeepAlive time.Duration
	Seed      int64
}

// DefaultNetstorm returns the default storm shape: 9 clients × 60 ops
// per FTL under 24 scripted faults, 20 of them kills or partitions —
// the acceptance floor.
func DefaultNetstorm() NetstormConfig {
	return NetstormConfig{
		Clients:      9,
		OpsPerClient: 60,
		Events:       24,
		KeepAlive:    250 * time.Millisecond,
		Seed:         41,
	}
}

// netstormScript builds the per-FTL fault schedule: a repeating
// kill/partition-heavy pattern (3 kills and 2 partitions per 6 events)
// with deterministically varying inter-fault spacing so faults land in
// every phase of the workload. Partitions refuse the next two dials,
// forcing the redial loop to back off through them.
func netstormScript(n int) []netfault.Event {
	pattern := []netfault.Action{
		netfault.Kill, netfault.Partition, netfault.Kill,
		netfault.Drop, netfault.Kill, netfault.Partition,
	}
	script := make([]netfault.Event, n)
	for i := range script {
		script[i] = netfault.Event{
			After:  11 + (i*7)%17,
			Action: pattern[i%len(pattern)],
		}
		if script[i].Action == netfault.Partition {
			script[i].RefuseDials = 2
		}
	}
	return script
}

// NetstormPoint is one FTL's row of the storm.
type NetstormPoint struct {
	FTL      string
	Clients  int
	Ops      int   // total ops driven through the proxy
	Acked    int64 // acknowledged operations
	Verified int64 // blocks/pages content-checked after the storm
	Events   int   // scripted faults fired
	Kills    int
	Drops    int
	Parts    int
	Resumes  int // successful session resumptions across the fleet
	// Lat holds per-class closed-loop latency, indexed as fabricClasses.
	Lat     [3]*metrics.Histogram
	Elapsed vclock.Duration
	Match   bool // storm pass virtually identical to the fault-free pass
}

// netstormOp is one generated operation: prep fills the command, ack
// checks the completion against the oracle and records it.
type netstormOp struct {
	prep func(cmd *hostif.Command)
	ack  func(comp hostif.Completion) error
}

// netstormBench is one FTL's fresh testbed: a host with the namespace
// attached, a workload generator closed over a fresh oracle, and a
// post-storm verification sweep. Each pass builds its own so the storm
// and shadow passes start bit-identical.
type netstormBench struct {
	host  *hostif.Host
	nsid  int
	now   vclock.Time
	gen   func(rng *rand.Rand) netstormOp
	sweep func(now vclock.Time, qp *fabrics.QueuePair) (int64, error)
}

// netstormResult is one pass's virtual-time outcome.
type netstormResult struct {
	acked    int64
	verified int64
	elapsed  vclock.Duration
	lat      [3]*metrics.Histogram
	resumes  int
}

// Netstorm runs the storm on all three fabric-served FTLs.
func Netstorm(cfg NetstormConfig) ([]NetstormPoint, error) {
	if cfg.Clients <= 0 {
		cfg = DefaultNetstorm()
	}
	var out []NetstormPoint
	for _, ftl := range []struct {
		name  string
		build func(NetstormConfig) (*netstormBench, error)
	}{
		{"oxblock", netstormBlockBench},
		{"oxeleos", netstormEleosBench},
		{"oxzns", netstormZNSBench},
	} {
		p, err := netstormFTL(cfg, ftl.name, ftl.build)
		if err != nil {
			return out, fmt.Errorf("netstorm %s: %w", ftl.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// netstormFTL storms one FTL: a fault-free shadow pass fixes the
// expected virtual timeline, then the storm pass runs the identical
// workload through the fault proxy and must reproduce it exactly.
func netstormFTL(cfg NetstormConfig, name string,
	build func(NetstormConfig) (*netstormBench, error)) (NetstormPoint, error) {
	p := NetstormPoint{FTL: name, Clients: cfg.Clients, Ops: cfg.Clients * cfg.OpsPerClient}

	clean, _, err := netstormPass(cfg, build, nil)
	if err != nil {
		return p, fmt.Errorf("shadow pass: %w", err)
	}
	script := netstormScript(cfg.Events)
	storm, faults, err := netstormPass(cfg, build, script)
	if err != nil {
		return p, fmt.Errorf("storm pass: %w", err)
	}

	fired := faults.Kills + faults.Drops + faults.Partitions
	if fired != len(script) {
		return p, fmt.Errorf("only %d of %d scripted faults fired (workload too short for the script)",
			fired, len(script))
	}
	p.Acked = storm.acked
	p.Verified = storm.verified
	p.Events = fired
	p.Kills = faults.Kills
	p.Drops = faults.Drops
	p.Parts = faults.Partitions
	p.Resumes = storm.resumes
	p.Lat = storm.lat
	p.Elapsed = storm.elapsed
	p.Match = netstormMatch(clean, storm)
	if !p.Match {
		return p, fmt.Errorf("storm pass diverged from the fault-free pass: duplicate or lost application (acked %d/%d, elapsed %v/%v)",
			storm.acked, clean.acked, storm.elapsed, clean.elapsed)
	}
	return p, nil
}

// netstormMatch compares the two passes' virtual outcomes: any
// double-applied or dropped command shifts media timing and shows up
// here.
func netstormMatch(a, b netstormResult) bool {
	if a.acked != b.acked || a.verified != b.verified || a.elapsed != b.elapsed {
		return false
	}
	for i := range a.lat {
		x, y := a.lat[i], b.lat[i]
		if x.Count() != y.Count() || x.Mean() != y.Mean() || x.Max() != y.Max() ||
			x.Percentile(50) != y.Percentile(50) || x.Percentile(99) != y.Percentile(99) {
			return false
		}
	}
	return true
}

// netstormPass drives the workload once. With a script it dials
// through the netfault proxy; without one it dials the loopback
// directly (the shadow pass). The orchestrator is a global virtual-
// time event heap with exactly one command in flight at any moment, so
// upstream data frames — the proxy's script clock — flow in a
// deterministic order.
func netstormPass(cfg NetstormConfig, build func(NetstormConfig) (*netstormBench, error),
	script []netfault.Event) (netstormResult, netfault.Stats, error) {
	res := netstormResult{}
	for i := range res.lat {
		res.lat[i] = metrics.NewHistogram()
	}
	b, err := build(cfg)
	if err != nil {
		return res, netfault.Stats{}, err
	}
	defer b.host.Close()
	srv := fabrics.NewServer(b.host)
	defer srv.Close()

	dial := fabrics.LoopbackDial(srv)
	var proxy *netfault.Proxy
	if script != nil {
		proxy = netfault.New(dial, netfault.Config{Script: script})
		dial = proxy.Dial
	}
	cli := fabrics.NewClient(dial).WithConfig(fabrics.Config{
		KeepAlive: cfg.KeepAlive,
		Redial: fabrics.RedialConfig{
			MaxAttempts: 60,
			Base:        100 * time.Microsecond,
			Cap:         2 * time.Millisecond,
			Seed:        cfg.Seed,
		},
	})

	type stormClient struct {
		qp       *fabrics.QueuePair
		rng      *rand.Rand
		classIdx int
		done     int
	}
	clients := make([]*stormClient, cfg.Clients)
	for i := range clients {
		qp, err := cli.QueuePair(b.now, 2, fabricClasses[i%3], 1)
		if err != nil {
			return res, netfault.Stats{}, err
		}
		clients[i] = &stormClient{
			qp:       qp,
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			classIdx: i % 3,
		}
	}
	defer func() {
		for _, c := range clients {
			c.qp.Close()
		}
	}()

	var (
		h    eventHeap
		seq  uint64
		end  = b.now
		gapD = float64(150 * vclock.Microsecond)
	)
	gap := func(rng *rand.Rand) vclock.Duration {
		return vclock.Duration(rng.ExpFloat64() * gapD)
	}
	for i, c := range clients {
		seq++
		heap.Push(&h, fabricEvent{t: b.now.Add(gap(c.rng)), client: i, seq: seq, kind: evArrival})
	}
	for h.Len() > 0 {
		ev := h.next()
		c := clients[ev.client]
		op := b.gen(c.rng)
		cmd := c.qp.AcquireCommand()
		op.prep(cmd)
		cmd.NSID = b.nsid
		if err := c.qp.Push(ev.t, cmd); err != nil {
			return res, netfault.Stats{}, fmt.Errorf("client %d push: %w", ev.client, err)
		}
		comp, ok := c.qp.Reap()
		if !ok {
			return res, netfault.Stats{}, fmt.Errorf("client %d: %w", ev.client, c.qp.Err())
		}
		if comp.Err != nil {
			return res, netfault.Stats{}, fmt.Errorf("client %d op failed: %w", ev.client, comp.Err)
		}
		if err := op.ack(comp); err != nil {
			return res, netfault.Stats{}, fmt.Errorf("client %d: %w", ev.client, err)
		}
		res.lat[c.classIdx].Observe(comp.Done.Sub(ev.t))
		res.acked++
		if comp.Done > end {
			end = comp.Done
		}
		c.done++
		if c.done < cfg.OpsPerClient {
			seq++
			heap.Push(&h, fabricEvent{t: comp.Done.Add(gap(c.rng)), client: ev.client, seq: seq, kind: evArrival})
		}
	}
	for _, c := range clients {
		res.resumes += c.qp.Stats().Redials
	}
	res.elapsed = end.Sub(b.now)

	// Verification sweep: a fresh, unproxied connection reads back
	// every acknowledged write — the zero-lost-acked-writes oracle.
	sqp, err := fabrics.Loopback(srv).QueuePair(end, 2, hostif.ClassMedium, 1)
	if err != nil {
		return res, netfault.Stats{}, err
	}
	defer sqp.Close()
	if res.verified, err = b.sweep(end, sqp); err != nil {
		return res, netfault.Stats{}, fmt.Errorf("verification sweep: %w", err)
	}
	if proxy != nil {
		return res, proxy.Stats(), nil
	}
	return res, netfault.Stats{}, nil
}

// netstormRig is the small in-memory testbed each bench starts from.
func netstormRig(seed int64) RigConfig {
	return RigConfig{
		Groups:        2,
		PUsPerGroup:   2,
		ChunksPerPU:   48,
		PagesPerBlock: 12,
		CacheMB:       8,
		Seed:          seed,
		PLP:           true,
	}
}

// netstormBlockBench storms OX-Block: 4 KB writes over a 2048-page
// namespace, reads verifying previously acknowledged content.
func netstormBlockBench(cfg NetstormConfig) (*netstormBench, error) {
	const logicalPages = 2048
	dev, ctrl, err := netstormRig(cfg.Seed).Build()
	if err != nil {
		return nil, err
	}
	_ = dev
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: logicalPages}, 0)
	if err != nil {
		return nil, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d))
	if err != nil {
		return nil, err
	}

	oracle := make(map[int64]byte)
	fills := byte(0)
	b := &netstormBench{host: host, nsid: nsid, now: now}
	b.gen = func(rng *rand.Rand) netstormOp {
		if len(oracle) == 0 || rng.Intn(100) < 60 {
			lpn := rng.Int63n(logicalPages)
			fills = fills*31 + 7 | 1
			fill := fills
			data := make([]byte, 4096)
			for j := range data {
				data[j] = fill
			}
			return netstormOp{
				prep: func(cmd *hostif.Command) {
					cmd.Op, cmd.LPN, cmd.Data = hostif.OpWrite, lpn, data
				},
				ack: func(hostif.Completion) error {
					oracle[lpn] = fill
					return nil
				},
			}
		}
		lpns := sortedLPNs(oracle)
		lpn := lpns[rng.Intn(len(lpns))]
		want := oracle[lpn]
		return netstormOp{
			prep: func(cmd *hostif.Command) {
				cmd.Op, cmd.LPN, cmd.Pages = hostif.OpRead, lpn, 1
			},
			ack: func(comp hostif.Completion) error {
				for j, got := range comp.Data {
					if got != want {
						return fmt.Errorf("read lpn %d byte %d = %#x, want %#x", lpn, j, got, want)
					}
				}
				return nil
			},
		}
	}
	b.sweep = func(now vclock.Time, qp *fabrics.QueuePair) (int64, error) {
		var verified int64
		for _, lpn := range sortedLPNs(oracle) {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, nsid, lpn, 1
			if err := qp.Push(now, cmd); err != nil {
				return verified, err
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				return verified, fmt.Errorf("lost acked write at lpn %d: %w", lpn, comp.Err)
			}
			for j, got := range comp.Data {
				if got != oracle[lpn] {
					return verified, fmt.Errorf("lpn %d byte %d = %#x, want %#x", lpn, j, got, oracle[lpn])
				}
			}
			now = comp.Done
			verified++
		}
		return verified, nil
	}
	return b, nil
}

// netstormEleosBench storms OX-ELEOS: two-page LSS flushes against a
// 48-id space, reads verifying the acknowledged generation.
func netstormEleosBench(cfg NetstormConfig) (*netstormBench, error) {
	const pageBytes = 4096
	const idSpace = 48
	_, ctrl, err := netstormRig(cfg.Seed + 100).Build()
	if err != nil {
		return nil, err
	}
	s, err := oxeleos.New(ctrl, oxeleos.Config{BufferBytes: 1 << 20, StripeWidth: 1})
	if err != nil {
		return nil, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(0, hostif.NewEleosNamespace(s))
	if err != nil {
		return nil, err
	}

	content := func(id int64, gen int) []byte {
		p := make([]byte, pageBytes)
		for j := range p {
			p[j] = byte(int(id)*11 + gen*101 + j)
		}
		return p
	}
	oracle := make(map[int64]int)
	gen := 0
	b := &netstormBench{host: host, nsid: nsid, now: 0}
	b.gen = func(rng *rand.Rand) netstormOp {
		if len(oracle) == 0 || rng.Intn(100) < 60 {
			gen++
			g := gen
			ids := []int64{rng.Int63n(idSpace), rng.Int63n(idSpace)}
			if ids[1] == ids[0] {
				ids[1] = (ids[0] + 1) % idSpace
			}
			buf := make([]byte, 0, 2*pageBytes)
			var descs []hostif.PageDesc
			for k, id := range ids {
				buf = append(buf, content(id, g)...)
				descs = append(descs, hostif.PageDesc{ID: id, Offset: k * pageBytes, Length: pageBytes})
			}
			return netstormOp{
				prep: func(cmd *hostif.Command) {
					cmd.Op, cmd.Data, cmd.Descs = hostif.OpFlush, buf, descs
				},
				ack: func(hostif.Completion) error {
					for _, id := range ids {
						oracle[id] = g
					}
					return nil
				},
			}
		}
		ids := sortedIDKeys(oracle)
		id := ids[rng.Intn(len(ids))]
		want := content(id, oracle[id])
		return netstormOp{
			prep: func(cmd *hostif.Command) {
				cmd.Op, cmd.LPN = hostif.OpRead, id
			},
			ack: func(comp hostif.Completion) error {
				if !bytes.Equal(comp.Data, want) {
					return fmt.Errorf("page %d content mismatch", id)
				}
				return nil
			},
		}
	}
	b.sweep = func(now vclock.Time, qp *fabrics.QueuePair) (int64, error) {
		var verified int64
		for _, id := range sortedIDKeys(oracle) {
			cmd := qp.AcquireCommand()
			cmd.Op, cmd.NSID, cmd.LPN = hostif.OpRead, nsid, id
			if err := qp.Push(now, cmd); err != nil {
				return verified, err
			}
			comp := qp.MustReap()
			if comp.Err != nil {
				return verified, fmt.Errorf("lost acked page %d: %w", id, comp.Err)
			}
			if !bytes.Equal(comp.Data, content(id, oracle[id])) {
				return verified, fmt.Errorf("page %d content mismatch after storm", id)
			}
			now = comp.Done
			verified++
		}
		return verified, nil
	}
	return b, nil
}

// netstormZNSBench storms OX-ZNS: zone appends round-robin across a
// bounded zone span (the completion's assigned offset is checked
// against the oracle — a double-applied append shifts it immediately),
// reads verifying acknowledged blocks.
func netstormZNSBench(cfg NetstormConfig) (*netstormBench, error) {
	_, ctrl, err := netstormRig(cfg.Seed + 200).Build()
	if err != nil {
		return nil, err
	}
	t, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		return nil, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(0, hostif.NewZoneNamespace(t))
	if err != nil {
		return nil, err
	}

	blockBytes := int64(t.BlockSize())
	blocksPerZone := int(t.ZoneCapacity() / blockBytes)
	span := 64
	if span > t.Zones() {
		span = t.Zones()
	}
	oracle := make([][]byte, span) // per zone: fill of each acked block
	fills := byte(0)
	zcur := 0
	b := &netstormBench{host: host, nsid: nsid, now: 0}
	b.gen = func(rng *rand.Rand) netstormOp {
		any := false
		for z := 0; z < span; z++ {
			if len(oracle[z]) > 0 {
				any = true
				break
			}
		}
		if !any || rng.Intn(100) < 60 {
			z := zcur
			for len(oracle[z]) >= blocksPerZone {
				z = (z + 1) % span
				if z == zcur {
					break // every zone full: overwrite path errors loudly
				}
			}
			zcur = (z + 1) % span
			fills = fills*31 + 7 | 1
			fill := fills
			data := make([]byte, blockBytes)
			for j := range data {
				data[j] = fill
			}
			wantOff := int64(len(oracle[z])) * blockBytes
			return netstormOp{
				prep: func(cmd *hostif.Command) {
					cmd.Op, cmd.Zone, cmd.Data = hostif.OpZoneAppend, z, data
				},
				ack: func(comp hostif.Completion) error {
					if comp.Offset != wantOff {
						return fmt.Errorf("zone %d append landed at %d, want %d (duplicate application)",
							z, comp.Offset, wantOff)
					}
					oracle[z] = append(oracle[z], fill)
					return nil
				},
			}
		}
		var nonEmpty []int
		for z := 0; z < span; z++ {
			if len(oracle[z]) > 0 {
				nonEmpty = append(nonEmpty, z)
			}
		}
		z := nonEmpty[rng.Intn(len(nonEmpty))]
		blk := rng.Intn(len(oracle[z]))
		want := oracle[z][blk]
		return netstormOp{
			prep: func(cmd *hostif.Command) {
				cmd.Op, cmd.Zone, cmd.LPN, cmd.Length = hostif.OpRead, z, int64(blk)*blockBytes, blockBytes
			},
			ack: func(comp hostif.Completion) error {
				for j, got := range comp.Data {
					if got != want {
						return fmt.Errorf("zone %d block %d byte %d = %#x, want %#x", z, blk, j, got, want)
					}
				}
				return nil
			},
		}
	}
	b.sweep = func(now vclock.Time, qp *fabrics.QueuePair) (int64, error) {
		var verified int64
		for z := 0; z < span; z++ {
			for blk, fill := range oracle[z] {
				cmd := qp.AcquireCommand()
				cmd.Op, cmd.NSID, cmd.Zone, cmd.LPN, cmd.Length = hostif.OpRead, nsid, z, int64(blk)*blockBytes, blockBytes
				if err := qp.Push(now, cmd); err != nil {
					return verified, err
				}
				comp := qp.MustReap()
				if comp.Err != nil {
					return verified, fmt.Errorf("lost acked append zone %d block %d: %w", z, blk, comp.Err)
				}
				for j, got := range comp.Data {
					if got != fill {
						return verified, fmt.Errorf("zone %d block %d byte %d = %#x, want %#x", z, blk, j, got, fill)
					}
				}
				now = comp.Done
				verified++
			}
		}
		return verified, nil
	}
	return b, nil
}

// sortedIDKeys orders an id→generation oracle for deterministic
// iteration (sortedLPNs' sibling for the OX-ELEOS generation map).
func sortedIDKeys(m map[int64]int) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NetstormTable renders the storm rows.
func NetstormTable(points []NetstormPoint) *Table {
	t := &Table{
		Title: "Netstorm: scripted connection kills/drops/partitions per fabric-served FTL (zero lost acked writes, zero duplicate applications)",
		Headers: []string{"ftl", "clients", "ops", "acked", "verified",
			"events", "kills", "drops", "parts", "resumes",
			"hi p99", "md p99", "lo p99", "elapsed_virt_ms", "match"},
	}
	for _, p := range points {
		match := "ok"
		if !p.Match {
			match = "DIVERGED"
		}
		t.Add(p.FTL, p.Clients, p.Ops, p.Acked, p.Verified,
			p.Events, p.Kills, p.Drops, p.Parts, p.Resumes,
			p.Lat[0].Percentile(99).String(),
			p.Lat[1].Percentile(99).String(),
			p.Lat[2].Percentile(99).String(),
			fmt.Sprintf("%.3f", float64(p.Elapsed)/float64(vclock.Millisecond)),
			match)
	}
	return t
}
