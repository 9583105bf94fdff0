package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// The traced pass measures the stack from outside only: it wraps the
// interfaces that separate the layers (lsm.Env, hostif.Namespace,
// ox.Media, net.Conn) and records one span per call. No file under
// internal/ knows it is being traced; the untraced pass builds the same
// rig with a nil *tracer, whose wrap methods return their argument
// unchanged.

// spanName identifies the call a span covers.
type spanName uint8

const (
	spOp spanName = iota // one request on the driver: submit → reap
	spPush
	spReap
	spGet
	spPut
	spEnvCreate
	spEnvRead
	spEnvDelete
	spEnvAppend
	spEnvCommit
	spEnvAbort
	spExecute
	spMediaVectorWrite
	spMediaVectorRead
	spMediaAppend
	spMediaPad
	spMediaReset
	spMediaCopy
	spNetWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.op", "call.push", "call.reap", "call.get", "call.put",
	"env.CreateTable", "env.ReadBlock", "env.DeleteTable",
	"env.Append", "env.Commit", "env.Abort",
	"ns.Execute",
	"media.VectorWrite", "media.VectorRead", "media.Append",
	"media.Pad", "media.Reset", "media.Copy",
	"net.Write",
}

// spanLayer groups span names into the layers the report sums over.
type spanLayer uint8

const (
	layOp spanLayer = iota
	layCall
	layEnv
	layExec
	layMedia
	layNetWrite
	numLayers
)

func (n spanName) layer() spanLayer {
	switch {
	case n == spOp:
		return layOp
	case n <= spPut:
		return layCall
	case n <= spEnvAbort:
		return layEnv
	case n == spExecute:
		return layExec
	case n <= spMediaCopy:
		return layMedia
	default:
		return layNetWrite
	}
}

// span is one fixed-size record of the slab.
type span struct {
	Start, End int64 // ns since epoch
	Parent     int32 // slab index of the enclosing span, -1 for none
	Req        int32 // ordinal of the request the call served, -1 if unknown
	Name       spanName
	Lane       uint8
}

// Lanes are the goroutines that record spans; each has its own call
// stack and its own aggregates, so lanes never share a cache line they
// write. Lane 0 is the driver. A serial in-process host executes on the
// driver's goroutine (lane 0); the fabrics server executes on its
// connection goroutine (laneServer); the engine executes group g's
// commands on some worker, and since a group has at most one command in
// flight, lane laneGroup0+g is never used by two goroutines at once.
const (
	laneDriver = 0
	laneServer = 1
	laneGroup0 = 2
	numLanes   = laneGroup0 + 64
	maxDepth   = 8
	slabSpans  = 1 << 18 // the first 256 Ki spans are kept for -trace-out and the nesting test
	opRing     = 1 << 12 // request ordinals in flight at once stay far below this
)

type frame struct {
	start int64
	child int64 // ns covered by spans begun under this frame
	idx   int32 // slab index, -1 when the slab is full
	req   int32
	name  spanName
}

type laneState struct {
	depth  int
	stack  [maxDepth]frame
	total  [numLayers]int64 // ns inside spans, per layer
	self   [numLayers]int64 // total minus children
	count  [numLayers]int64
	nextRq atomic.Int32 // request ordinal of the lane's next Execute that has no enclosing request
	_      [64]byte
}

// epoch anchors the monotonic clock every wall timestamp is read from.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// tracer records spans. A nil tracer records nothing and wraps nothing.
type tracer struct {
	on atomic.Bool // toggled by the harness between rounds, when every lane is idle

	// execLane is where a namespace's Execute runs; perGroup spreads it
	// over one lane per device group (the engine workload).
	execLane int
	perGroup bool

	lanes [numLanes]laneState
	slab  []span
	used  atomic.Int32
	opIdx [opRing]atomic.Int32 // request ordinal → slab index of its driver.op span

	frames, netWrites, netReads, netBytes atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{slab: make([]span, slabSpans)}
	for i := range t.opIdx {
		t.opIdx[i].Store(-1)
	}
	return t
}

func (t *tracer) laneOf(group int) int {
	if t.perGroup {
		return laneGroup0 + group
	}
	return t.execLane
}

// alloc reserves one slab record, or -1 once the slab is full.
func (t *tracer) alloc() int32 {
	if t.used.Load() >= slabSpans {
		return -1
	}
	i := t.used.Add(1) - 1
	if i >= slabSpans {
		return -1
	}
	return i
}

// beginAt opens a span on lane at instant start. req names the request
// it serves; -1 inherits the enclosing span's. It reports whether a span
// was opened; the caller hands that to end.
func (t *tracer) beginAt(lane int, name spanName, req int32, start int64) bool {
	if t == nil || !t.on.Load() {
		return false
	}
	ls := &t.lanes[lane]
	parent := int32(-1)
	if ls.depth > 0 {
		up := &ls.stack[ls.depth-1]
		parent = up.idx
		if req < 0 {
			req = up.req
		}
	} else if req >= 0 {
		if p := t.opIdx[req%opRing].Load(); p >= 0 && t.slab[p].Req == req {
			parent = p
		}
	}
	idx := t.alloc()
	if idx >= 0 {
		t.slab[idx] = span{Start: start, Parent: parent, Req: req, Name: name, Lane: uint8(lane)}
	}
	ls.stack[ls.depth] = frame{start: start, idx: idx, req: req, name: name}
	ls.depth++
	return true
}

func (t *tracer) begin(lane int, name spanName, req int32) bool {
	if t == nil || !t.on.Load() {
		return false
	}
	return t.beginAt(lane, name, req, clock())
}

// endAt closes the lane's innermost span if begin opened one.
func (t *tracer) endAt(lane int, open bool, end int64) {
	if !open {
		return
	}
	ls := &t.lanes[lane]
	ls.depth--
	f := &ls.stack[ls.depth]
	dur, layer := end-f.start, f.name.layer()
	ls.total[layer] += dur
	ls.self[layer] += dur - f.child
	ls.count[layer]++
	if ls.depth > 0 {
		ls.stack[ls.depth-1].child += dur
	}
	if f.idx >= 0 {
		t.slab[f.idx].End = end
	}
}

func (t *tracer) end(lane int, open bool) {
	if open {
		t.endAt(lane, open, clock())
	}
}

// openOp records the start of request req's driver.op span, so spans on
// other lanes can name it as their parent; closeOp completes it.
func (t *tracer) openOp(req int32, start int64) {
	if t == nil || !t.on.Load() {
		return
	}
	idx := t.alloc()
	if idx >= 0 {
		t.slab[idx] = span{Start: start, Parent: -1, Req: req, Name: spOp, Lane: laneDriver}
	}
	t.opIdx[req%opRing].Store(idx)
}

func (t *tracer) closeOp(req int32, end int64) {
	if t == nil {
		return
	}
	if idx := t.opIdx[req%opRing].Load(); idx >= 0 && t.slab[idx].Req == req && t.slab[idx].End == 0 {
		t.slab[idx].End = end
	}
}

// setReq tells the lane that executes group's commands which request
// its next Execute serves. A driver on one FIFO queue pair calls it at
// the start of a round (the k-th Execute then belongs to the k-th
// submission); the engine driver calls it at every submission.
func (t *tracer) setReq(group int, req int32) {
	if t != nil {
		t.lanes[t.laneOf(group)].nextRq.Store(req)
	}
}

// layerTotals sums span time and self time per layer across lanes.
func (t *tracer) layerTotals() (total, self, count [numLayers]int64) {
	for l := range t.lanes {
		ls := &t.lanes[l]
		for layer := range total {
			total[layer] += ls.total[layer]
			self[layer] += ls.self[layer]
			count[layer] += ls.count[layer]
		}
	}
	return
}

// spans returns the completed records of the slab.
func (t *tracer) spans() []span {
	n := t.used.Load()
	if n > slabSpans {
		n = slabSpans
	}
	return t.slab[:n]
}

// writeChrome writes the slab as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Overlapping driver.op spans are spread
// over their own rows so each row nests.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	first := true
	for _, s := range t.spans() {
		if s.End == 0 {
			continue
		}
		tid := int(s.Lane)
		if s.Name == spOp {
			tid = 1000 + int(s.Req)%64
		}
		ev, _ := json.Marshal(map[string]any{
			"name": spanNames[s.Name], "ph": "X", "pid": 1, "tid": tid,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]any{"req": s.Req, "parent": s.Parent},
		})
		if !first {
			w.WriteString(",\n")
		}
		first = false
		w.Write(ev)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkNesting verifies the slab: every span ends after it starts and
// lies inside its parent.
func (t *tracer) checkNesting() error {
	spans := t.spans()
	for i, s := range spans {
		if s.End == 0 {
			continue // still open when the run stopped
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, spanNames[s.Name])
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.End == 0 {
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s %d..%d) escapes its parent %d (%s %d..%d)",
				i, spanNames[s.Name], s.Start, s.End, s.Parent, spanNames[p.Name], p.Start, p.End)
		}
	}
	return nil
}

// ---- ox.Media ----

// tracedMedia embeds the device, not the ox.Media interface, so that the
// optional methods the stack probes for stay visible: zns.Target asks
// for WriteCacheEnabled (without it OX-ZNS stops declaring per-group
// footprints), the admin log pages for Stats and FaultLog.
type tracedMedia struct {
	*ocssd.Device
	t *tracer
}

// media wraps dev for the controller.
func (t *tracer) media(dev *ocssd.Device) ox.Media {
	if t == nil {
		return dev
	}
	return &tracedMedia{Device: dev, t: t}
}

func (m *tracedMedia) VectorWrite(now vclock.Time, ppas []ocssd.PPA, data []byte) (vclock.Time, error) {
	lane := m.t.laneOf(ppas[0].Group)
	ok := m.t.begin(lane, spMediaVectorWrite, -1)
	end, err := m.Device.VectorWrite(now, ppas, data)
	m.t.end(lane, ok)
	return end, err
}

func (m *tracedMedia) VectorRead(now vclock.Time, ppas []ocssd.PPA, dst []byte) (vclock.Time, error) {
	lane := m.t.laneOf(ppas[0].Group)
	ok := m.t.begin(lane, spMediaVectorRead, -1)
	end, err := m.Device.VectorRead(now, ppas, dst)
	m.t.end(lane, ok)
	return end, err
}

func (m *tracedMedia) Append(now vclock.Time, id ocssd.ChunkID, data []byte) (int, vclock.Time, error) {
	lane := m.t.laneOf(id.Group)
	ok := m.t.begin(lane, spMediaAppend, -1)
	s, end, err := m.Device.Append(now, id, data)
	m.t.end(lane, ok)
	return s, end, err
}

func (m *tracedMedia) Pad(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error) {
	lane := m.t.laneOf(id.Group)
	ok := m.t.begin(lane, spMediaPad, -1)
	end, err := m.Device.Pad(now, id)
	m.t.end(lane, ok)
	return end, err
}

func (m *tracedMedia) Reset(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error) {
	lane := m.t.laneOf(id.Group)
	ok := m.t.begin(lane, spMediaReset, -1)
	end, err := m.Device.Reset(now, id)
	m.t.end(lane, ok)
	return end, err
}

func (m *tracedMedia) Copy(now vclock.Time, src []ocssd.PPA, dst ocssd.ChunkID) (int, vclock.Time, error) {
	lane := m.t.laneOf(dst.Group)
	ok := m.t.begin(lane, spMediaCopy, -1)
	s, end, err := m.Device.Copy(now, src, dst)
	m.t.end(lane, ok)
	return s, end, err
}

// ---- hostif.Namespace ----

type tracedNS struct {
	hostif.Namespace
	t       *tracer
	groupOf func(*hostif.Command) int
}

// namespace wraps ns. groupOf tells which device group a command runs
// on; it matters only when the tracer keeps one lane per group. The
// adapter's unexported identity() and logPage() are lost behind the
// wrapper, so rigs read identity and FTL counters from the FTL object.
func (t *tracer) namespace(ns hostif.Namespace, groupOf func(*hostif.Command) int) hostif.Namespace {
	if t == nil {
		return ns
	}
	return &tracedNS{Namespace: ns, t: t, groupOf: groupOf}
}

func (n *tracedNS) Execute(now vclock.Time, cmd *hostif.Command) hostif.Result {
	lane := n.t.execLane
	if n.t.perGroup {
		lane = laneGroup0 + n.groupOf(cmd)
	}
	ls := &n.t.lanes[lane]
	req := int32(-1)
	if n.t.on.Load() && (ls.depth == 0 || ls.stack[ls.depth-1].req < 0) {
		// No enclosing span names a request (the mini-RocksDB's calls
		// do), so this Execute serves the lane's next one: see setReq.
		req = ls.nextRq.Load()
		if !n.t.perGroup {
			ls.nextRq.Store(req + 1)
		}
	}
	ok := n.t.begin(lane, spExecute, req)
	res := n.Namespace.Execute(now, cmd)
	n.t.end(lane, ok)
	return res
}

// ---- lsm.Env ----

type tracedEnv struct {
	lsm.Env
	t *tracer
}

func (t *tracer) env(e lsm.Env) lsm.Env {
	if t == nil {
		return e
	}
	return &tracedEnv{Env: e, t: t}
}

func (e *tracedEnv) CreateTable(now vclock.Time) (lsm.TableWriter, error) {
	ok := e.t.begin(laneDriver, spEnvCreate, -1)
	w, err := e.Env.CreateTable(now)
	e.t.end(laneDriver, ok)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{TableWriter: w, t: e.t}, nil
}

func (e *tracedEnv) ReadBlock(now vclock.Time, h lsm.TableHandle, block int, dst []byte) (vclock.Time, error) {
	ok := e.t.begin(laneDriver, spEnvRead, -1)
	end, err := e.Env.ReadBlock(now, h, block, dst)
	e.t.end(laneDriver, ok)
	return end, err
}

func (e *tracedEnv) DeleteTable(now vclock.Time, h lsm.TableHandle) (vclock.Time, error) {
	ok := e.t.begin(laneDriver, spEnvDelete, -1)
	end, err := e.Env.DeleteTable(now, h)
	e.t.end(laneDriver, ok)
	return end, err
}

type tracedWriter struct {
	lsm.TableWriter
	t *tracer
}

func (w *tracedWriter) Append(now vclock.Time, block []byte) (vclock.Time, error) {
	ok := w.t.begin(laneDriver, spEnvAppend, -1)
	end, err := w.TableWriter.Append(now, block)
	w.t.end(laneDriver, ok)
	return end, err
}

func (w *tracedWriter) Commit(now vclock.Time) (lsm.TableHandle, vclock.Time, error) {
	ok := w.t.begin(laneDriver, spEnvCommit, -1)
	h, end, err := w.TableWriter.Commit(now)
	w.t.end(laneDriver, ok)
	return h, end, err
}

func (w *tracedWriter) Abort(now vclock.Time) (vclock.Time, error) {
	ok := w.t.begin(laneDriver, spEnvAbort, -1)
	end, err := w.TableWriter.Abort(now)
	w.t.end(laneDriver, ok)
	return end, err
}

// ---- net.Conn / net.Listener ----

// tracedConn times socket writes and counts reads. Writes go out on
// lane: the driver on the client, the connection goroutine on the
// server. Reads are only counted; they block, so their time says nothing
// about cost. Frames are counted from the write side with
// fabrics.FrameInfo, so each frame is counted once.
type tracedConn struct {
	net.Conn
	t    *tracer
	lane int

	hdr  [fabrics.FrameHeaderSize]byte
	have int // header bytes collected
	skip int // payload bytes of the current frame still to pass
}

func (c *tracedConn) Write(b []byte) (int, error) {
	ok := c.t.begin(c.lane, spNetWrite, -1)
	n, err := c.Conn.Write(b)
	c.t.end(c.lane, ok)
	if ok {
		c.t.netWrites.Add(1)
		c.t.netBytes.Add(int64(n))
		c.countFrames(b[:n])
	}
	return n, err
}

func (c *tracedConn) countFrames(b []byte) {
	for len(b) > 0 {
		if c.skip > 0 {
			n := min(c.skip, len(b))
			c.skip -= n
			b = b[n:]
			continue
		}
		n := copy(c.hdr[c.have:], b)
		c.have += n
		b = b[n:]
		if c.have == len(c.hdr) {
			c.have = 0
			if payload, _, err := fabrics.FrameInfo(c.hdr[:]); err == nil {
				c.skip = payload
				c.t.frames.Add(1)
			}
		}
	}
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.t.on.Load() {
		c.t.netReads.Add(1)
	}
	return n, err
}

// dial returns the client's dial function for addr.
func (t *tracer) dial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil || t == nil {
			return conn, err
		}
		return &tracedConn{Conn: conn, t: t, lane: laneDriver}, nil
	}
}

type tracedListener struct {
	net.Listener
	t *tracer
}

// listener wraps l so the server's connections are traced. One
// connection is served at a time, so the server lane has one writer.
func (t *tracer) listener(l net.Listener) net.Listener {
	if t == nil {
		return l
	}
	return &tracedListener{Listener: l, t: t}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, t: l.t, lane: laneServer}, nil
}
