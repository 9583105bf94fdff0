// Package lightlsm implements LightLSM (§4.2–4.3): an application-
// specific FTL that "exposes Open-Channel SSDs as a RocksDB environment
// supporting SSTable flush and block reads".
//
// Key design decisions reproduced from the paper:
//
//   - The RocksDB block is the unit of transfer and must be a multiple
//     of the device's unit of write — exactly one 96 KB wordline stripe
//     here (§4.2).
//   - An SSTable occupies whole chunks; its size is the number of chunks
//     times the chunk size (§4.3: 32 PUs × 24 MB = 768 MB on the paper's
//     drive). SSTable deletion therefore causes chunk resets only —
//     garbage collection never copies valid pages.
//   - Horizontal placement stripes a table's chunks across all parallel
//     units; vertical placement confines them to a single group
//     (Figure 4), trading single-stream bandwidth for isolation between
//     compaction and flush.
//   - A single dispatch goroutine submits all media I/O "so that there
//     are no concurrent accesses to the write pointers" (§4.3); it is
//     modeled as a serially-reusable resource with a per-I/O cost.
//   - SSTable flush commits atomically through the FTL's metadata log,
//     so "RocksDB does not need MANIFEST" (§5).
package lightlsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ftl/ftlcore"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// Placement selects the SSTable-to-PU mapping of Figure 4.
type Placement int

// Placement policies.
const (
	Horizontal Placement = iota // stripe across all PUs
	Vertical                    // confine each table to one group
)

func (p Placement) String() string {
	if p == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Errors returned by the environment.
var (
	ErrTableFull    = errors.New("lightlsm: table is full")
	ErrBlockRange   = errors.New("lightlsm: block index out of range")
	ErrUnknownTable = errors.New("lightlsm: unknown table")
)

// Config tunes the environment.
type Config struct {
	Placement Placement
	// TableChunks is the number of chunks per SSTable (0 = total PUs,
	// the paper's sizing rule).
	TableChunks int
	// DispatchCPU is the single dispatch thread's per-submission cost.
	DispatchCPU vclock.Duration
}

// Stats aggregates environment activity.
type Stats struct {
	TablesCreated int64
	TablesDeleted int64
	BlocksWritten int64
	BlocksRead    int64
	ChunkResets   int64
}

// Env is the LightLSM environment; it satisfies lsm.Env.
type Env struct {
	ctrl  *ox.Controller
	media ox.Media
	geo   ocssd.Geometry
	cfg   Config

	mu        sync.Mutex
	alloc     *ftlcore.Allocator
	wal       *ftlcore.WAL
	dispatch  *vclock.Resource
	tables    map[lsm.TableID]*tableInfo
	nextID    lsm.TableID
	nextGroup int
	stats     Stats

	reads sync.Pool // recycled *blockRead states
	offl  *offload.Engine
}

// blockRead is the reusable state of one block read: the PPA stripe
// naming the block's sectors and, for the searching reads, the search
// fed from the device's view. It is pooled rather than a field of Env
// because OffloadGet carries a group footprint: lookups on disjoint
// groups run concurrently. The visitor is bound once per state — a
// closure built per call would escape through the ox.Media interface
// and cost an allocation per Get.
type blockRead struct {
	ppas   []ocssd.PPA
	search lsm.BlockSearch
	visit  func(i int, sector []byte)
	val    []byte // OffloadGet's value scratch
}

type tableInfo struct {
	chunks []ocssd.ChunkID
	blocks int
}

// Statically assert Env implements lsm.Env and can search in place.
var (
	_ lsm.Env           = (*Env)(nil)
	_ lsm.BlockSearcher = (*Env)(nil)
)

// baseEnv builds the environment skeleton shared by New and Recover.
func baseEnv(ctrl *ox.Controller, cfg Config) (*Env, error) {
	geo := ctrl.Media().Geometry()
	if cfg.TableChunks <= 0 {
		cfg.TableChunks = geo.TotalPUs()
	}
	if cfg.Placement == Vertical {
		perGroup := geo.PUsPerGroup * geo.ChunksPerPU
		if cfg.TableChunks > perGroup {
			return nil, fmt.Errorf("lightlsm: vertical table of %d chunks exceeds group capacity %d",
				cfg.TableChunks, perGroup)
		}
	}
	if cfg.DispatchCPU <= 0 {
		cfg.DispatchCPU = 3 * vclock.Microsecond
	}
	e := &Env{
		ctrl:     ctrl,
		media:    ctrl.Media(),
		geo:      geo,
		cfg:      cfg,
		dispatch: vclock.NewResource("lightlsm-dispatch"),
		tables:   make(map[lsm.TableID]*tableInfo),
		offl:     offload.NewEngine(geo.Groups, offload.DefaultConfig()),
	}
	e.alloc = ftlcore.NewAllocator(e.media, nil)
	return e, nil
}

// New opens a LightLSM environment on the controller's media.
func New(ctrl *ox.Controller, cfg Config) (*Env, error) {
	e, err := baseEnv(ctrl, cfg)
	if err != nil {
		return nil, err
	}
	e.wal, err = ftlcore.NewWAL(e.media, ctrl, e.alloc, ftlcore.WALConfig{Target: ftlcore.AnyTarget(), Epoch: 1})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// RecoveryReport summarizes one crash recovery.
type RecoveryReport struct {
	ReplayedSegments int
	ReplayedRecords  int
	Tables           int
	Dropped          int // tables pruned because their chunks were reset
	End              vclock.Time
}

// Recover reopens a LightLSM environment after a crash. Every commit is
// one durable metadata-log record (§5: RocksDB drops its MANIFEST), so
// the table set is rebuilt by replaying RecAppExtent records minus the
// RecTrim deletions. A deletion is logged lazily (sync=false), so a
// crash can lose the trim record after the chunks were already reset;
// such half-deleted tables are detected by checking that every chunk
// still holds the blocks the commit record claims, and pruned.
func Recover(now vclock.Time, ctrl *ox.Controller, cfg Config) (*Env, *RecoveryReport, error) {
	e, err := baseEnv(ctrl, cfg)
	if err != nil {
		return nil, nil, err
	}
	segs, maxEpoch, end, err := ftlcore.ScanLog(now, e.media, ctrl)
	if err != nil {
		return nil, nil, err
	}
	walCfg := ftlcore.WALConfig{Target: ftlcore.AnyTarget()}
	st := &replayState{
		claim: make(map[ocssd.ChunkID]int),
		tseq:  make(map[lsm.TableID]int),
	}
	n, end, err := ftlcore.ReplayLog(end, e.media, ctrl, walCfg, segs, 0, 0, func(r ftlcore.Record) error {
		return e.applyRecord(st, r)
	})
	if err != nil {
		return nil, nil, err
	}
	dropped := e.pruneRecovered(st)
	e.wal, err = ftlcore.NewWAL(e.media, ctrl, e.alloc, ftlcore.WALConfig{Target: ftlcore.AnyTarget(), Epoch: maxEpoch + 1})
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{
		ReplayedSegments: len(segs),
		ReplayedRecords:  n,
		Tables:           len(e.tables),
		Dropped:          dropped,
		End:              end,
	}
	return e, rep, nil
}

// replayState tracks chunk ownership in replay order so pruning can
// resolve double claims: a deletion is logged lazily, so after a crash
// two commit records may name the same chunk — the later one (by
// replay order) owns it, because allocation only reuses chunks the
// earlier table already released.
type replayState struct {
	seq   int
	claim map[ocssd.ChunkID]int // chunk -> seq of its latest claimant
	tseq  map[lsm.TableID]int   // table -> seq of its commit record
}

// applyRecord rebuilds the table set from one WAL record. Only called
// during Recover, before the environment is shared.
func (e *Env) applyRecord(st *replayState, r ftlcore.Record) error {
	switch r.Type {
	case ftlcore.RecAppExtent:
		if len(r.Payload) < 12 {
			return fmt.Errorf("lightlsm: short commit record (%d bytes)", len(r.Payload))
		}
		id := lsm.TableID(binary.LittleEndian.Uint64(r.Payload[0:]))
		blocks := int(binary.LittleEndian.Uint32(r.Payload[8:]))
		nchunks := (len(r.Payload) - 12) / 8
		chunks := make([]ocssd.ChunkID, nchunks)
		st.seq++
		for i := 0; i < nchunks; i++ {
			chunks[i] = ocssd.Unpack(binary.LittleEndian.Uint64(r.Payload[12+i*8:])).ChunkOf()
			st.claim[chunks[i]] = st.seq
		}
		st.tseq[id] = st.seq
		e.tables[id] = &tableInfo{chunks: chunks, blocks: blocks}
		if id > e.nextID {
			e.nextID = id
		}
	case ftlcore.RecTrim:
		for off := 0; off+8 <= len(r.Payload); off += 8 {
			delete(e.tables, lsm.TableID(binary.LittleEndian.Uint64(r.Payload[off:])))
		}
	}
	return nil
}

// pruneRecovered drops recovered tables whose chunks are gone: either
// the crash landed between the chunk resets of a DeleteTable and its
// lazily-synced trim record (write pointers too low), or a later
// commit reused the chunks (ownership conflict).
func (e *Env) pruneRecovered(st *replayState) int {
	dropped := 0
	for id, t := range e.tables {
		ok := len(t.chunks) > 0
		for i, c := range t.chunks {
			if st.claim[c] != st.tseq[id] {
				ok = false
				break
			}
			// Block b lands on chunk b%n, so chunk i holds
			// ceil((blocks-i)/n) full stripes.
			need := (t.blocks - i + len(t.chunks) - 1) / len(t.chunks)
			if need <= 0 {
				continue
			}
			info, err := e.media.Chunk(c)
			if err != nil || int(info.WP) < need*e.geo.WSOpt {
				ok = false
				break
			}
		}
		if !ok {
			delete(e.tables, id)
			dropped++
		}
	}
	return dropped
}

// Stats returns a snapshot of environment statistics.
func (e *Env) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Placement reports the configured placement policy.
func (e *Env) Placement() Placement { return e.cfg.Placement }

// BlockSize implements lsm.Env: exactly the device's unit of write
// (96 KB on the paper's dual-plane TLC drive).
func (e *Env) BlockSize() int { return e.geo.UnitOfWriteBytes() }

// BlocksPerChunk reports how many SSTable blocks fit one chunk.
func (e *Env) BlocksPerChunk() int { return e.geo.StripesPerChunk() }

// Controller reports the OX controller the environment accounts
// against — the execution domain of every LightLSM table command. Table
// operations share the environment lock, the allocator and the WAL, so
// commands of one environment never overlap in wall-clock time.
func (e *Env) Controller() *ox.Controller { return e.ctrl }

// MaxTableBlocks implements lsm.Env: chunks × blocks-per-chunk.
func (e *Env) MaxTableBlocks() int { return e.cfg.TableChunks * e.BlocksPerChunk() }

// TableBytes reports the SSTable capacity in bytes (§4.3's sizing:
// number of chunks × chunk size).
func (e *Env) TableBytes() int64 { return int64(e.cfg.TableChunks) * e.geo.ChunkBytes() }

// TableChunks returns the chunks backing a committed table (for
// placement inspection).
func (e *Env) TableChunks(id lsm.TableID) ([]ocssd.ChunkID, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[id]
	if !ok {
		return nil, false
	}
	return append([]ocssd.ChunkID(nil), t.chunks...), true
}

// dispatchIO serializes an I/O submission through the single dispatch
// thread (§4.3) and returns when the submission is done.
func (e *Env) dispatchIO(now vclock.Time) vclock.Time {
	_, end := e.dispatch.Acquire(now, e.cfg.DispatchCPU)
	return end
}

// allocateTable provisions the chunks of a new table per the placement.
func (e *Env) allocateTable() ([]ocssd.ChunkID, error) {
	chunks := make([]ocssd.ChunkID, 0, e.cfg.TableChunks)
	free := func(ids []ocssd.ChunkID) {
		for _, id := range ids {
			e.alloc.ReturnFree(id)
		}
	}
	switch e.cfg.Placement {
	case Vertical:
		// Try each group starting from the rotation cursor so one busy
		// group does not block allocation.
		for attempt := 0; attempt < e.geo.Groups; attempt++ {
			g := e.nextGroup % e.geo.Groups
			e.nextGroup++
			if e.alloc.FreeInGroup(g) < e.cfg.TableChunks {
				continue
			}
			ok := true
			for i := 0; i < e.cfg.TableChunks; i++ {
				id, err := e.alloc.Alloc(ftlcore.InGroup(g))
				if err != nil {
					free(chunks)
					chunks = chunks[:0]
					ok = false
					break
				}
				chunks = append(chunks, id)
			}
			if ok {
				return chunks, nil
			}
		}
		return nil, ftlcore.ErrNoFreeChunks
	default: // Horizontal: round-robin across all PUs
		for i := 0; i < e.cfg.TableChunks; i++ {
			id, err := e.alloc.Alloc(ftlcore.AnyTarget())
			if err != nil {
				free(chunks)
				return nil, err
			}
			chunks = append(chunks, id)
		}
		return chunks, nil
	}
}

// CreateTable implements lsm.Env: it provisions the table's chunks.
func (e *Env) CreateTable(now vclock.Time) (lsm.TableWriter, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	chunks, err := e.allocateTable()
	if err != nil {
		return nil, err
	}
	e.stats.TablesCreated++
	return &tableWriter{env: e, chunks: chunks}, nil
}

type tableWriter struct {
	env    *Env
	chunks []ocssd.ChunkID
	blocks int
	done   bool
}

// Append implements lsm.TableWriter: block i lands on chunk i%n at its
// write pointer, one full wordline stripe per block. Consecutive blocks
// hit different parallel units, so a flush streams at the placement's
// aggregate bandwidth.
func (w *tableWriter) Append(now vclock.Time, block []byte) (vclock.Time, error) {
	e := w.env
	if w.done {
		return now, errors.New("lightlsm: append to finished table")
	}
	if len(block) != e.BlockSize() {
		return now, fmt.Errorf("lightlsm: block is %d bytes, want %d", len(block), e.BlockSize())
	}
	if w.blocks >= e.MaxTableBlocks() {
		return now, ErrTableFull
	}
	target := w.chunks[w.blocks%len(w.chunks)]
	end := e.dispatchIO(now)
	_, end, err := e.media.Append(end, target, block)
	if err != nil {
		return end, err
	}
	w.blocks++
	e.mu.Lock()
	e.stats.BlocksWritten++
	e.mu.Unlock()
	e.ctrl.NoteUserIO()
	return end, nil
}

// Commit implements lsm.TableWriter: the table becomes visible via one
// durable metadata-log record — the atomic SSTable flush that lets
// RocksDB drop its MANIFEST (§5).
func (w *tableWriter) Commit(now vclock.Time) (lsm.TableHandle, vclock.Time, error) {
	e := w.env
	if w.done {
		return lsm.TableHandle{}, now, errors.New("lightlsm: double commit")
	}
	w.done = true
	e.mu.Lock()
	e.nextID++
	id := e.nextID
	e.tables[id] = &tableInfo{chunks: w.chunks, blocks: w.blocks}
	e.mu.Unlock()

	payload := make([]byte, 8+4+len(w.chunks)*8)
	binary.LittleEndian.PutUint64(payload[0:], uint64(id))
	binary.LittleEndian.PutUint32(payload[8:], uint32(w.blocks))
	for i, c := range w.chunks {
		binary.LittleEndian.PutUint64(payload[12+i*8:], c.PPAOf(0).Pack())
	}
	_, end, err := e.wal.Append(now, ftlcore.Record{Type: ftlcore.RecAppExtent, TxID: uint64(id), Payload: payload}, true)
	if err != nil {
		return lsm.TableHandle{}, end, err
	}
	e.ctrl.NoteControllerIO()
	return lsm.TableHandle{ID: id, Blocks: w.blocks}, end, nil
}

// Abort implements lsm.TableWriter: written chunks are reset and
// returned to the pool.
func (w *tableWriter) Abort(now vclock.Time) (vclock.Time, error) {
	e := w.env
	if w.done {
		return now, nil
	}
	w.done = true
	end := now
	for _, id := range w.chunks {
		info, err := e.media.Chunk(id)
		if err != nil {
			continue
		}
		if info.State == ocssd.ChunkFree {
			e.alloc.ReturnFree(id)
			continue
		}
		if e2, err := e.alloc.Release(end, id); err == nil {
			end = e2
		}
	}
	return end, nil
}

// openBlock is the prologue every block read shares: it resolves block
// of table h to its chunk and returns a pooled read state whose PPA
// stripe names the block's sectors. The caller hands the state to
// closeBlock when the read is over.
func (e *Env) openBlock(h lsm.TableHandle, block int) (*blockRead, error) {
	e.mu.Lock()
	t, ok := e.tables[h.ID]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTable, h.ID)
	}
	if block < 0 || block >= t.blocks {
		return nil, fmt.Errorf("%w: %d of %d", ErrBlockRange, block, t.blocks)
	}
	chunk := t.chunks[block%len(t.chunks)]
	stripe := block / len(t.chunks)
	r, _ := e.reads.Get().(*blockRead)
	if r == nil {
		r = &blockRead{ppas: make([]ocssd.PPA, e.geo.WSOpt)}
		r.visit = func(_ int, sector []byte) { r.search.Feed(sector) }
	}
	base := stripe * e.geo.WSOpt
	for i := range r.ppas {
		r.ppas[i] = chunk.PPAOf(base + i)
	}
	return r, nil
}

// closeBlock recycles r and, when the read succeeded (err is nil),
// counts it.
func (e *Env) closeBlock(r *blockRead, err error) {
	r.search.Reset(nil, nil) // drop the caller's key and buffer
	e.reads.Put(r)
	if err != nil {
		return
	}
	e.mu.Lock()
	e.stats.BlocksRead++
	e.mu.Unlock()
	e.ctrl.NoteUserIO()
}

// ReadBlock implements lsm.Env: one block is one VectorRead of a whole
// wordline stripe (the unit of read forced up to the unit of write that
// §4.2 and §5's interface fallacy discuss).
func (e *Env) ReadBlock(now vclock.Time, h lsm.TableHandle, block int, dst []byte) (vclock.Time, error) {
	r, err := e.openBlock(h, block)
	if err != nil {
		return now, err
	}
	if len(dst) < e.BlockSize() {
		err = fmt.Errorf("lightlsm: dst %d bytes, want %d", len(dst), e.BlockSize())
		e.closeBlock(r, err)
		return now, err
	}
	end := e.dispatchIO(now)
	end, err = e.media.VectorRead(end, r.ppas, dst[:e.BlockSize()])
	e.closeBlock(r, err)
	return end, err
}

// SearchBlock implements lsm.BlockSearcher: a ReadBlock that searches
// the block where it lies. It costs exactly what ReadBlock costs — the
// dispatch thread, the media and channel time of the whole stripe, one
// block read, one user I/O — but the sectors are fed to the search from
// the device's own memory and only key's value is copied, appended to
// dst[:0].
func (e *Env) SearchBlock(now vclock.Time, h lsm.TableHandle, block int, key, dst []byte) (value []byte, del, found bool, end vclock.Time, err error) {
	r, err := e.openBlock(h, block)
	if err != nil {
		return nil, false, false, now, err
	}
	r.search.Reset(key, dst)
	end = e.dispatchIO(now)
	end, err = e.media.VectorView(end, r.ppas, r.visit)
	if err == nil {
		value, del, found = r.search.Result()
	}
	e.closeBlock(r, err)
	return value, del, found, end, err
}

// DeleteTable implements lsm.Env: §4.3 — "Each SSTable deletion only
// causes chunk erases", never page copies.
func (e *Env) DeleteTable(now vclock.Time, h lsm.TableHandle) (vclock.Time, error) {
	e.mu.Lock()
	t, ok := e.tables[h.ID]
	if ok {
		delete(e.tables, h.ID)
	}
	e.mu.Unlock()
	if !ok {
		return now, fmt.Errorf("%w: %d", ErrUnknownTable, h.ID)
	}
	// Log the deletion durably BEFORE erasing anything: once a chunk is
	// reset the allocator may hand it to a new table, and a crash that
	// lost the trim record would resurrect this table pointing at the
	// new table's data. Forcing the record first makes the erase safe —
	// recovery either sees the trim (table gone) or the chunks were
	// never touched (table resurrects intact).
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, uint64(h.ID))
	_, end, err := e.wal.Append(now, ftlcore.Record{Type: ftlcore.RecTrim, TxID: uint64(h.ID), Payload: payload}, true)
	if err != nil {
		return end, err
	}
	for _, id := range t.chunks {
		info, err := e.media.Chunk(id)
		if err != nil {
			continue
		}
		if info.State == ocssd.ChunkFree {
			e.alloc.ReturnFree(id)
			continue
		}
		end = e.dispatchIO(end)
		if e2, err := e.alloc.Release(end, id); err == nil {
			end = e2
		}
		e.mu.Lock()
		e.stats.ChunkResets++
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.stats.TablesDeleted++
	e.mu.Unlock()
	return end, nil
}

// FreeChunks reports the allocator pool size (capacity planning in
// benchmarks).
func (e *Env) FreeChunks() int { return e.alloc.FreeCount() }

// --- Computational storage (internal/offload) ----------------------------

// Offload returns the environment's in-device compute engine (stats
// and cost model of the offloaded commands).
func (e *Env) Offload() *offload.Engine { return e.offl }

// BlockGroup reports the device group holding the given block of a
// committed table — the pipelined executor's footprint oracle for
// offloaded lookups: two OffloadGets on disjoint groups touch disjoint
// chip timelines and lookup lanes, so their commands may overlap. ok
// is false for unknown tables or out-of-range blocks.
func (e *Env) BlockGroup(id lsm.TableID, block int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[id]
	if !ok || block < 0 || block >= t.blocks {
		return 0, false
	}
	return t.chunks[block%len(t.chunks)].Group, true
}

// OffloadGet resolves a point lookup inside the device (OpOffloadGet):
// the block is read from NAND, searched where it lies by the offload
// engine's per-group lane, and only the EncodeGetResult frame — flags
// plus the value — is returned for the host link. The path deliberately
// bypasses the host-facing dispatch thread and every other device-wide
// resource: it touches only the block's own group/PU media timelines
// and that group's lookup lane, which is what makes the adapter's
// GroupFootprint sound under the pipelined executor. Media faults
// surface as the injector's typed errors (wrapped with %w), so
// hostif.StatusOf classifies them exactly as host-side block reads.
func (e *Env) OffloadGet(now vclock.Time, h lsm.TableHandle, block int, key []byte) (res []byte, end vclock.Time, err error) {
	r, err := e.openBlock(h, block)
	if err != nil {
		return nil, now, err
	}
	r.search.Reset(key, r.val)
	end, err = e.media.VectorView(now, r.ppas, r.visit)
	if err != nil {
		e.closeBlock(r, err)
		return nil, end, fmt.Errorf("lightlsm: offload get: %w", err)
	}
	end = e.offl.GetCost(end, r.ppas[0].Group, e.BlockSize())
	value, del, found := r.search.Result()
	res = offload.EncodeGetResult(value, del, found)
	if found && !del {
		r.val = value[:0] // keep the grown scratch
	}
	e.closeBlock(r, nil)
	e.offl.NoteGet(found, len(res), e.BlockSize())
	return res, end, nil
}

// OffloadCompact merges committed tables inside the device
// (OpOffloadCompact): the exact host-side merge machinery
// (lsm.MergeTables) runs against the environment directly, so the
// output tables are bit-identical to a host compaction — but the block
// traffic stays device-side, only the marshaled output metadata
// crosses the host link, and the merge is charged to the offload
// engine's compute unit on top of the media cost.
func (e *Env) OffloadCompact(now vclock.Time, req offload.CompactRequest) (res []byte, end vclock.Time, err error) {
	inputs := make([]lsm.TableHandle, len(req.Inputs))
	inBlocks := 0
	for i, r := range req.Inputs {
		inputs[i] = lsm.TableHandle{ID: lsm.TableID(r.ID), Blocks: int(r.Blocks)}
		inBlocks += int(r.Blocks)
	}
	metas, end, err := lsm.MergeTables(e, now, inputs, int(req.BitsPerKey), req.DropDeletes)
	if err != nil {
		return nil, end, fmt.Errorf("lightlsm: offload compact: %w", err)
	}
	end = e.offl.MergeCost(end, int64(inBlocks)*int64(e.BlockSize()))
	blobs := make([][]byte, len(metas))
	outBlocks := 0
	for i, m := range metas {
		blobs[i] = m.Marshal()
		outBlocks += m.Handle.Blocks
	}
	res = offload.EncodeCompactResult(blobs)
	// The host-side alternative streams every input block up and every
	// output block back down the host link.
	direct := int64(inBlocks+outBlocks) * int64(e.BlockSize())
	e.offl.NoteCompact(inBlocks+outBlocks, int64(len(res)), direct)
	return res, end, nil
}
