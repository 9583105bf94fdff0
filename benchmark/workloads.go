package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"

	"repro/internal/dbbench"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// workloads lists the four loads. Each stresses another part of the
// stack, so that an optimisation of one layer has a workload that
// exercises it and three that predict no change.
var workloads = []*workload{
	{
		name:  "tcp_read_mostly",
		why:   "90/10 4 KB random read/write at depth 8 over one real TCP connection: wire codec, replay table and sockets are most of the CPU per op",
		full:  sizing{roundOps: 4000, virtRounds: 40, setupOps: 6000},
		smoke: sizing{roundOps: 400, virtRounds: 2, setupOps: 500},
		setup: setupTCP,
	},
	{
		name:  "zns_engine_append",
		why:   "192 KB zone appends on 64 single-PU groups under the batched engine: the only load whose commands overlap, and the one that moves the most bytes per op",
		full:  sizing{roundOps: 64 * 96, virtRounds: 36, setupOps: 64 * 40},
		smoke: sizing{roundOps: 64 * 8, virtRounds: 2, setupOps: 64 * 20},
		setup: setupZNS,
	},
	{
		name:  "block_overwrite_gc",
		why:   "80/20 4 KB random overwrite/read at depth 16 in process on OX-Block at logical = physical/3: WAL padding, GC, checkpoints and the page map do the work",
		full:  sizing{roundOps: 8000, virtRounds: 24, setupOps: 16000},
		smoke: sizing{roundOps: 1000, virtRounds: 2, setupOps: 4000},
		setup: setupBlock,
	},
	{
		name:  "lsm_mixed",
		why:   "70/30 Get/Put on the mini-RocksDB over LightLSM, the paper's headline experiment: skiplist, flush, merge, bloom and block search do the CPU, the FTL sees 96 KB blocks",
		full:  sizing{roundOps: 16000, virtRounds: 24, setupOps: 200000},
		smoke: sizing{roundOps: 1000, virtRounds: 2, setupOps: 12000},
		setup: setupLSM,
	},
}

// closeHost stops the host's engine workers and clears the finalizer
// NewHost sets on an engine host. That finalizer sits on a cycle (the
// host's domains point back at the host), so the collector never frees
// such a host, nor the device under it, unless the finalizer is cleared.
func closeHost(h *hostif.Host) {
	h.Close()
	runtime.SetFinalizer(h, nil)
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- the two OX-Block workloads ----

// blockRig is OX-Block behind a serial host with one queue pair, driven
// in process. tcp_read_mostly builds on it.
type blockRig struct {
	dev  *ocssd.Device
	ctrl *ox.Controller
	blk  *oxblock.Device
	host *hostif.Host
	load *blockLoad
	n    int
}

// newBlockRig builds the device, OX-Block and the host, prefills the
// namespace through an in-process queue pair of the given depth and
// overwrites at random until sz.setupOps writes have brought garbage
// collection under way. It returns the queue pair with the rig.
func newBlockRig(geo ocssd.Geometry, cfg oxblock.Config, hostCfg hostif.HostConfig, depth int,
	seed int64, sz sizing, tr *tracer) (*blockRig, *hostif.QueuePair, error) {
	dev, ctrl, err := newController(geo, tr)
	if err != nil {
		return nil, nil, err
	}
	// An interval of 0 (what oxfabd uses) never truncates the WAL, which
	// then outgrows the device after some 100 k small writes.
	cfg.CheckpointInterval = vclock.Second
	blk, _, now, err := oxblock.New(ctrl, cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	host := hostif.NewHost(ctrl, hostCfg)
	admin := host.Admin()
	if _, err := admin.AttachNamespace(now, tr.namespace(hostif.NewBlockNamespace(blk), nil)); err != nil {
		return nil, nil, err
	}
	qp, err := admin.CreateIOQueuePair(now, depth, hostif.ClassMedium)
	if err != nil {
		return nil, nil, err
	}
	load := newBlockLoad(seed, cfg.LogicalPages, depth, 100, tr)
	load.q, load.reap = qp, host.ReapAny
	if load.now, err = load.prefill(qp, now); err != nil {
		return nil, nil, err
	}
	if err := load.precondition(sz.setupOps); err != nil {
		return nil, nil, err
	}
	return &blockRig{dev: dev, ctrl: ctrl, blk: blk, host: host, load: load, n: sz.roundOps}, qp, nil
}

// setupBlock builds OX-Block in process at logical = physical/3 with the
// collector thresholds of the §4.3 locality experiment.
func setupBlock(seed int64, sz sizing, tr *tracer) (rig, error) {
	geo := geometry(8, 2, 16, 48, 32)
	chunks := geo.TotalPUs() * geo.ChunksPerPU
	r, _, err := newBlockRig(geo, oxblock.Config{
		LogicalPages:    int64(chunks) * int64(geo.SectorsPerChunk()) / 3,
		GCFreeThreshold: chunks / 6,
		GCTargetFree:    chunks / 4,
	}, hostif.HostConfig{}, 16, seed, sz, tr)
	if err != nil {
		return nil, err
	}
	r.load.writePct = 80
	return r, nil
}

func (r *blockRig) round(rec *recorder) error { return r.load.run(r.n, rec) }

func (r *blockRig) snapshot() counters {
	c := deviceCounters(r.dev, r.ctrl, r.load.now)
	c.block = r.blk.Stats()
	c.gc = r.blk.GCStats()
	c.wal = r.blk.WALRecords()
	return c
}

func (r *blockRig) close() { closeHost(r.host) }

type tcpRig struct {
	*blockRig
	srv    *fabrics.Server
	served chan error
	qp     *fabrics.QueuePair
}

// setupTCP builds the stack `oxfabd -ftl block` serves — host link
// charged, serial executor, fabrics.NewServer — on a real 127.0.0.1
// listener in this process, with two differences that keep a run of any
// length stationary: the device is small enough that garbage collection
// is already running when set-up ends, and checkpoints truncate the WAL.
// One connection only: two would race in arrival order and virtual time
// would stop being exact.
func setupTCP(seed int64, sz sizing, tr *tracer) (rig, error) {
	const depth = 8
	if tr != nil {
		tr.execLane = laneServer
	}
	// Prefill and precondition in process, before the server exists.
	br, local, err := newBlockRig(geometry(8, 4, 8, 48, 32), oxblock.Config{LogicalPages: 32768},
		hostif.HostConfig{ChargeHostLink: true}, depth, seed, sz, tr)
	if err != nil {
		return nil, err
	}
	load := br.load
	if err := br.host.Admin().DeleteIOQueuePair(load.now, local); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &tcpRig{blockRig: br, srv: fabrics.NewServer(br.host), served: make(chan error, 1)}
	go func() { r.served <- r.srv.Serve(tr.listener(l)) }()
	r.qp, err = fabrics.NewClient(tr.dial(l.Addr().String())).QueuePair(load.now, depth, hostif.ClassMedium, 1)
	if err != nil {
		r.close()
		return nil, err
	}
	load.writePct = 10
	// ReapEarliest waits until nothing is in flight, then pops the
	// earliest completion: the fabric's equivalent of Host.ReapAny, and
	// the only reap whose returned data no later completion can reuse
	// while the oracle still reads it.
	load.q, load.reap = r.qp, r.qp.ReapEarliest
	return r, nil
}

func (r *tcpRig) round(rec *recorder) error {
	if err := r.blockRig.round(rec); err != nil {
		return err
	}
	// Any redial or replay on this fault-free run is a failure.
	if st := r.qp.Stats(); st.Redials+st.Replayed > 0 {
		rec.fail("fault-free connection redialled %d times, replayed %d commands", st.Redials, st.Replayed)
	}
	return r.qp.Err()
}

func (r *tcpRig) snapshot() counters {
	c := r.blockRig.snapshot()
	st := r.qp.Stats()
	c.redials, c.replays = st.Redials, st.Replayed
	return c
}

func (r *tcpRig) close() {
	if r.qp != nil {
		r.qp.Close()
	}
	r.srv.Close()
	if err := <-r.served; err != nil && !errors.Is(err, fabrics.ErrClosed) {
		fmt.Println("# fabrics server:", err)
	}
	r.blockRig.close()
}

// ---- zns_engine_append ----

const (
	znsGroups      = 64
	znsAppendUnits = 2  // 192 KB per append
	znsReadEvery   = 32 // one command in so many reads the last append back
)

type znsActor struct {
	qp     *hostif.QueuePair
	zones  []int
	zi     int   // index into zones of the zone being filled
	wp     int64 // where the next append must land
	buf    []byte
	serial uint64 // stamp of the next append

	// The last append, for the read-back sample.
	lastZone   int
	lastOff    int64
	lastSerial uint64
	haveLast   bool
	checking   bool // the command in flight is the read-back
	resetting  bool // the command in flight is a zone reset
	lastDone   vclock.Time
	t0         int64
	ord        int32
}

type znsRig struct {
	dev     *ocssd.Device
	ctrl    *ox.Controller
	host    *hostif.Host
	admin   *hostif.AdminClient
	tr      *tracer
	rng     *rand.Rand
	actors  []*znsActor
	qid0    int
	zoneCap int64
	filler  []byte
	now     vclock.Time
	n       int
}

// setupZNS builds OX-ZNS in process on 64 single-PU groups without a
// write-back cache (cache admission is the one device-global timeline),
// under the batched engine with its default workers, one depth-1 queue
// pair per group. Each group has two zones, filled in turn.
func setupZNS(seed int64, sz sizing, tr *tracer) (rig, error) {
	if tr != nil {
		tr.perGroup = true
	}
	dev, ctrl, err := newController(geometry(znsGroups, 1, 2, 48, 0), tr)
	if err != nil {
		return nil, err
	}
	tgt, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		return nil, err
	}
	// Zone geometry is read from the target: the wrapped namespace no
	// longer serves identify or the zone report.
	zoneGroup := make(map[int]int)
	zonesOf := make([][]int, znsGroups)
	for _, zi := range tgt.Report() {
		zoneGroup[zi.Index] = zi.Group
		zonesOf[zi.Group] = append(zonesOf[zi.Group], zi.Index)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{Executor: hostif.ExecutorBatched})
	admin := host.Admin()
	ns := tr.namespace(hostif.NewZoneNamespace(tgt), func(cmd *hostif.Command) int { return zoneGroup[cmd.Zone] })
	if _, err := admin.AttachNamespace(0, ns); err != nil {
		return nil, err
	}
	r := &znsRig{dev: dev, ctrl: ctrl, host: host, admin: admin, tr: tr, n: sz.roundOps,
		rng: rand.New(rand.NewSource(seed)), zoneCap: tgt.ZoneCapacity(),
		filler: make([]byte, znsAppendUnits*tgt.BlockSize())}
	r.rng.Read(r.filler)
	for g := 0; g < znsGroups; g++ {
		qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
		if err != nil {
			return nil, err
		}
		if len(zonesOf[g]) < 2 {
			return nil, fmt.Errorf("group %d has %d zones", g, len(zonesOf[g]))
		}
		r.actors = append(r.actors, &znsActor{qp: qp, zones: zonesOf[g], buf: bytes.Clone(r.filler)})
	}
	r.qid0 = r.actors[0].qp.ID()
	// Fill and reset every zone once, so that the measured appends reuse
	// flash pages the simulator has already allocated.
	var warm recorder
	r.n = sz.setupOps
	if err := r.round(&warm); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("preconditioning: %d of %d operations failed", warm.failed, warm.attempted)
	}
	r.n = sz.roundOps
	return r, nil
}

// round runs lockstep rounds as exp/scale.go does: every group's next
// command is visible before the drain, so the engine always sees the
// full disjoint-group batch; each actor still submits at its own last
// completion instant.
func (r *znsRig) round(rec *recorder) error {
	for done := 0; done < r.n; done += len(r.actors) {
		for g, a := range r.actors {
			if err := r.submit(g, a, rec); err != nil {
				return err
			}
		}
		for range r.actors {
			inReap := r.tr.begin(laneDriver, spReap, -1)
			comp, ok := r.host.ReapAny()
			t1 := clock()
			r.tr.endAt(laneDriver, inReap, t1)
			if !ok {
				return errors.New("completion queue ran dry")
			}
			r.complete(r.actors[comp.QueueID-r.qid0], comp, t1, rec)
		}
	}
	return nil
}

func (r *znsRig) submit(g int, a *znsActor, rec *recorder) error {
	cmd := a.qp.AcquireCommand()
	zone := a.zones[a.zi]
	a.checking, a.resetting = false, false
	switch {
	case a.wp == r.zoneCap:
		// The zone is full: move on to the next and empty it first.
		a.zi = (a.zi + 1) % len(a.zones)
		a.wp = 0
		a.resetting = true
		cmd.Op, cmd.Zone = hostif.OpZoneReset, a.zones[a.zi]
		if a.haveLast && a.lastZone == cmd.Zone {
			a.haveLast = false
		}
	case a.haveLast && r.rng.Intn(znsReadEvery) == 0:
		a.checking = true
		cmd.Op, cmd.Zone, cmd.LPN, cmd.Length = hostif.OpRead, a.lastZone, a.lastOff, int64(len(a.buf))
	default:
		a.serial++
		for off := 0; off < len(a.buf); off += len(a.buf) / znsAppendUnits {
			znsStamp(a.buf[off:], g, a.serial)
		}
		cmd.Op, cmd.Zone, cmd.Data = hostif.OpZoneAppend, zone, a.buf
	}
	a.ord = rec.ord
	rec.ord++
	r.tr.setReq(g, a.ord)
	a.t0 = clock()
	r.tr.openOp(a.ord, a.t0)
	traced := r.tr.beginAt(laneDriver, spPush, a.ord, a.t0)
	err := a.qp.Push(a.lastDone, cmd)
	r.tr.end(laneDriver, traced)
	return err
}

func (r *znsRig) complete(a *znsActor, comp hostif.Completion, t1 int64, rec *recorder) {
	r.tr.closeOp(a.ord, t1)
	a.lastDone = comp.Done
	if comp.Done > r.now {
		r.now = comp.Done
	}
	bytesOut := 0
	switch {
	case comp.Err != nil:
		rec.fail("%v zone %d: %v", comp.Op, a.zones[a.zi], comp.Err)
	case a.resetting:
	case a.checking:
		if !r.holds(comp.Data, comp.QueueID-r.qid0, a.lastSerial) {
			rec.fail("read-back of zone %d offset %d does not hold append %d", a.lastZone, a.lastOff, a.lastSerial)
		}
	default:
		// Appends to one zone must land back to back.
		if comp.Offset != a.wp {
			rec.fail("append to zone %d landed at %d, want %d", a.zones[a.zi], comp.Offset, a.wp)
		}
		a.lastZone, a.lastOff, a.lastSerial, a.haveLast = a.zones[a.zi], comp.Offset, a.serial, true
		a.wp += int64(len(a.buf))
		bytesOut = len(a.buf)
	}
	rec.op(!a.checking, t1-a.t0, comp.Latency(), bytesOut)
}

// znsStamp marks the head of one 96 KB unit of an append.
func znsStamp(unit []byte, group int, serial uint64) {
	binary.LittleEndian.PutUint64(unit, uint64(group))
	binary.LittleEndian.PutUint64(unit[8:], serial)
}

// holds reports whether data is group's append number serial.
func (r *znsRig) holds(data []byte, group int, serial uint64) bool {
	if len(data) != len(r.filler) {
		return false
	}
	var want [stampBytes]byte
	znsStamp(want[:], group, serial)
	unit := len(data) / znsAppendUnits
	for off := 0; off < len(data); off += unit {
		if !bytes.Equal(data[off:off+stampBytes], want[:]) ||
			!bytes.Equal(data[off+stampBytes:off+unit], r.filler[off+stampBytes:off+unit]) {
			return false
		}
	}
	return true
}

func (r *znsRig) snapshot() counters {
	c := deviceCounters(r.dev, r.ctrl, r.now)
	// The executor log is a page of the host, not of the namespace, so
	// the admin queue still serves it; on a live host it cannot fail.
	c.exec, _ = r.admin.ExecutorStats(r.now)
	return c
}

func (r *znsRig) close() { closeHost(r.host) }

// ---- lsm_mixed ----

const (
	lsmKeyBytes   = 16
	lsmValueBytes = 1024
	lsmPutPct     = 30
)

type lsmRig struct {
	dev  *ocssd.Device
	ctrl *ox.Controller
	env  *lightlsm.Env
	host *hostif.Host
	db   *lsm.DB
	tr   *tracer
	rng  *rand.Rand
	keys int64
	ver  []uint32 // version last put, per key
	// lastPut is the ordinal of each key's last Put, puts the number of
	// Puts so far (the preload included) and window the most entries a
	// memtable holds: see round.
	lastPut []int64
	puts    int64
	window  int64
	now     vclock.Time
	key     []byte
	value   []byte
	got     []byte
	want    []byte
	n       int
}

// setupLSM builds the mini-RocksDB with the Figure 5 options (16 B keys,
// 1 KB values, 8 MB memtable, rate limit 400, horizontal placement) on
// LightLSM behind a depth-1 queue pair, as hostif.AttachLSM wires it,
// and preloads the key space.
func setupLSM(seed int64, sz sizing, tr *tracer) (rig, error) {
	dev, ctrl, err := newController(geometry(8, 4, 96, 12, 4), tr)
	if err != nil {
		return nil, err
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: lightlsm.Horizontal})
	if err != nil {
		return nil, err
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{})
	admin := host.Admin()
	nsid, err := admin.AttachNamespace(0, tr.namespace(hostif.NewLSMNamespace(env), nil))
	if err != nil {
		return nil, err
	}
	qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
	if err != nil {
		return nil, err
	}
	// AttachLSM would identify the namespace over the admin queue; the
	// wrapped namespace cannot answer, so the block geometry comes from
	// the FTL object.
	cli := hostif.NewEnvClient(qp, nsid, hostif.NamespaceIdentity{
		BlockSize: env.BlockSize(), MaxTableBlocks: env.MaxTableBlocks()})
	keys := int64(sz.setupOps)
	memtable := (8 << 20) * keys / 200000 // 8 MB at full size; -smoke scales it with the key space
	db, err := lsm.Open(lsm.Options{
		Env:           tr.env(cli),
		MemtableBytes: memtable,
		MaxImmutables: 6,
		FlushWorkers:  4,
		Seed:          rigSeed,
		RateLimitMBps: 400,
	})
	if err != nil {
		return nil, err
	}
	r := &lsmRig{dev: dev, ctrl: ctrl, env: env, host: host, db: db, tr: tr, n: sz.roundOps,
		rng: rand.New(rand.NewSource(seed)), keys: keys, ver: make([]uint32, keys),
		lastPut: make([]int64, keys), puts: keys, window: memtable / lsmValueBytes}
	for k := int64(0); k < keys; k++ {
		r.lastPut[k] = k
		if r.now, err = db.Put(r.now, r.keyOf(k), r.valueOf(k, 0, &r.value)); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	r.now = db.WaitIdle(r.now)
	return r, nil
}

func (r *lsmRig) keyOf(k int64) []byte {
	r.key = dbbench.KeyInto(r.key, k, lsmKeyBytes)
	return r.key
}

// valueOf renders version ver of key k's value into *buf.
func (r *lsmRig) valueOf(k int64, ver uint32, buf *[]byte) []byte {
	*buf = dbbench.ValueInto(*buf, k+int64(ver)*r.keys, lsmValueBytes)
	return *buf
}

func (r *lsmRig) round(rec *recorder) error {
	for i := 0; i < r.n; i++ {
		k := r.rng.Int63n(r.keys)
		// A key is not put twice within one memtable's worth of Puts; the
		// Put becomes a Get. lsm flushes both versions into one SSTable,
		// and when they straddle a block boundary TableMeta.blockFor
		// picks the block that starts with the key, which holds the older
		// one: about one Get in 60 000 then returns a stale value.
		put := r.rng.Intn(100) < lsmPutPct && r.puts-r.lastPut[k] >= r.window
		key := r.keyOf(k)
		ord := rec.ord
		rec.ord++
		var end vclock.Time
		var err error
		var t0, t1 int64
		if put {
			r.ver[k]++
			r.lastPut[k] = r.puts
			r.puts++
			val := r.valueOf(k, r.ver[k], &r.value)
			t0 = clock()
			traced := r.tr.beginAt(laneDriver, spPut, ord, t0)
			end, err = r.db.Put(r.now, key, val)
			t1 = clock()
			r.tr.endAt(laneDriver, traced, t1)
			if err != nil {
				rec.fail("put key %d: %v", k, err)
			}
			rec.op(true, t1-t0, end.Sub(r.now), lsmKeyBytes+lsmValueBytes)
		} else {
			t0 = clock()
			traced := r.tr.beginAt(laneDriver, spGet, ord, t0)
			r.got, end, err = r.db.GetInto(r.now, key, r.got)
			t1 = clock()
			r.tr.endAt(laneDriver, traced, t1)
			// Every Get must return the last Put, or the preloaded value.
			if err != nil {
				rec.fail("get key %d: %v", k, err)
			} else if !bytes.Equal(r.got, r.valueOf(k, r.ver[k], &r.want)) {
				rec.fail("get key %d did not return version %d", k, r.ver[k])
			}
			rec.op(false, t1-t0, end.Sub(r.now), 0)
		}
		r.now = end
	}
	return nil
}

func (r *lsmRig) snapshot() counters {
	c := deviceCounters(r.dev, r.ctrl, r.now)
	c.lsm, c.light = r.db.Stats(), r.env.Stats()
	return c
}

func (r *lsmRig) close() { closeHost(r.host) }
