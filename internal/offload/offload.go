// Package offload is the computational-storage subsystem: the
// in-device compute engine and the wire framing for the host
// interface's offload commands (OpOffloadGet, OpOffloadScan,
// OpOffloadCompact).
//
// The OX lineage is explicitly a computational-storage controller —
// the application-specific FTLs already move LSM mechanics into the
// device, and the natural next step is moving *queries* there: resolve
// a point lookup inside the controller and return only the value,
// filter a range scan so only matching sectors cross the host link,
// merge SSTables device-side so compaction traffic never leaves the
// device at all.
//
// # Cost model
//
// Every offload splits into three virtual-time charges:
//
//   - media cost — the NAND reads/writes the device performs either
//     way; charged by the FTL's existing media model (per-group channel
//     buses, per-PU chip timelines).
//   - in-device compute cost — the offload engine's scan/merge units:
//     a fixed SetupCPU per command plus bytes / ScanMBps (search,
//     filter) or bytes / MergeMBps (compaction merge). This charge does
//     not exist on the host-side path.
//   - host-link transfer cost — charged by the host interface per
//     command on what actually crosses the link. The offload result is
//     a value, the matching pages, or a handful of table metas; the
//     host-side alternative moves every raw block.
//
// The crossover follows: in-storage execution wins while the compute
// surcharge is smaller than the host-link transfer it avoids (small
// values, low scan selectivity), and loses once most of the data would
// cross the link anyway.
//
// # Determinism and overlap
//
// Point-lookup compute is charged to a per-group lane, so offload Gets
// on disjoint device groups reserve disjoint virtual-time resources and
// may execute concurrently under the batched executor (the adapter
// advertises a GroupFootprint). Scans and compactions use the shared
// device-wide unit and run under exclusive footprints. All statistics
// are atomic counters, order-independent by construction.
package offload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/vclock"
)

// Config sets the engine's virtual cost parameters.
type Config struct {
	// SetupCPU is the fixed in-device command setup charge
	// (default 2µs).
	SetupCPU vclock.Duration
	// ScanMBps is the in-device search/filter bandwidth over raw block
	// bytes (default 19200 MB/s — the accelerator streams from the
	// device-side buffers at aggregate internal bandwidth, well above
	// host-link class; the crossover only exists because of this gap).
	ScanMBps float64
	// MergeMBps is the in-device compaction-merge bandwidth over the
	// input block bytes (default 1600 MB/s).
	MergeMBps float64
}

// DefaultConfig returns the default cost parameters.
func DefaultConfig() Config {
	return Config{
		SetupCPU:  2 * vclock.Microsecond,
		ScanMBps:  19200,
		MergeMBps: 1600,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SetupCPU <= 0 {
		c.SetupCPU = d.SetupCPU
	}
	if c.ScanMBps <= 0 {
		c.ScanMBps = d.ScanMBps
	}
	if c.MergeMBps <= 0 {
		c.MergeMBps = d.MergeMBps
	}
	return c
}

// Engine is one device's offload compute: a per-group lane for point
// lookups (so disjoint-group Gets commute in virtual time) and a
// shared device-wide unit for scans and merges (which run under
// exclusive footprints anyway). The engine owns the namespace's
// offload statistics; counters are atomic so concurrent overlapped
// offloads need no ordering.
type Engine struct {
	cfg    Config
	lanes  []*vclock.Resource
	shared *vclock.Resource

	gets         atomic.Int64
	getHits      atomic.Int64
	scans        atomic.Int64
	pagesScanned atomic.Int64
	pagesMatched atomic.Int64
	compactions  atomic.Int64
	blocksMerged atomic.Int64
	bytesOut     atomic.Int64
	bytesDirect  atomic.Int64
	computeBusy  atomic.Int64
}

// NewEngine builds an engine with one lookup lane per device group.
func NewEngine(groups int, cfg Config) *Engine {
	if groups < 1 {
		groups = 1
	}
	e := &Engine{
		cfg:    cfg.withDefaults(),
		lanes:  make([]*vclock.Resource, groups),
		shared: vclock.NewResource("offload/shared"),
	}
	for g := range e.lanes {
		e.lanes[g] = vclock.NewResource(fmt.Sprintf("offload/lane%d", g))
	}
	return e
}

// Config reports the engine's effective cost parameters.
func (e *Engine) Config() Config { return e.cfg }

// Lanes reports the number of per-group lookup lanes.
func (e *Engine) Lanes() int { return len(e.lanes) }

// charge reserves dur on r at now and accounts the busy time.
func (e *Engine) charge(r *vclock.Resource, now vclock.Time, dur vclock.Duration) vclock.Time {
	_, end := r.Acquire(now, dur)
	e.computeBusy.Add(int64(dur))
	return end
}

// GetCost charges the in-device point-lookup compute — setup plus a
// scan of blockBytes — to group's lane and returns the completion
// instant. Groups outside the lane range fall back to the shared unit.
func (e *Engine) GetCost(now vclock.Time, group, blockBytes int) vclock.Time {
	dur := e.cfg.SetupCPU + vclock.DurationFor(int64(blockBytes), e.cfg.ScanMBps)
	r := e.shared
	if group >= 0 && group < len(e.lanes) {
		r = e.lanes[group]
	}
	return e.charge(r, now, dur)
}

// ScanCost charges the in-device predicate filter over bytes of raw
// pages to the shared unit and returns the completion instant.
func (e *Engine) ScanCost(now vclock.Time, bytes int64) vclock.Time {
	dur := e.cfg.SetupCPU + vclock.DurationFor(bytes, e.cfg.ScanMBps)
	return e.charge(e.shared, now, dur)
}

// MergeCost charges the in-device compaction merge over bytes of input
// blocks to the shared unit and returns the completion instant.
func (e *Engine) MergeCost(now vclock.Time, bytes int64) vclock.Time {
	dur := e.cfg.SetupCPU + vclock.DurationFor(bytes, e.cfg.MergeMBps)
	return e.charge(e.shared, now, dur)
}

// NoteGet records one offloaded point lookup: whether the key was
// found, the bytes returned over the host link, and the bytes the
// host-side alternative (shipping the whole block) would have moved.
func (e *Engine) NoteGet(hit bool, bytesOut, bytesDirect int) {
	e.gets.Add(1)
	if hit {
		e.getHits.Add(1)
	}
	e.bytesOut.Add(int64(bytesOut))
	e.bytesDirect.Add(int64(bytesDirect))
}

// NoteScan records one offloaded filtered scan.
func (e *Engine) NoteScan(scanned, matched int, bytesOut, bytesDirect int64) {
	e.scans.Add(1)
	e.pagesScanned.Add(int64(scanned))
	e.pagesMatched.Add(int64(matched))
	e.bytesOut.Add(bytesOut)
	e.bytesDirect.Add(bytesDirect)
}

// NoteCompact records one offloaded compaction: blocks merged
// device-side, the bytes returned over the host link (table metas),
// and the block traffic a host-side merge would have moved.
func (e *Engine) NoteCompact(blocks int, bytesOut, bytesDirect int64) {
	e.compactions.Add(1)
	e.blocksMerged.Add(int64(blocks))
	e.bytesOut.Add(bytesOut)
	e.bytesDirect.Add(bytesDirect)
}

// Stats is the LogOffload payload: one namespace's computational-
// storage counters.
type Stats struct {
	// Gets and GetHits count offloaded point lookups and how many
	// found the key in the searched block.
	Gets, GetHits int64
	// Scans, PagesScanned and PagesMatched count offloaded filtered
	// scans and their selectivity.
	Scans, PagesScanned, PagesMatched int64
	// Compactions and BlocksMerged count offloaded device-side merges.
	Compactions, BlocksMerged int64
	// BytesOut is what offload results actually moved over the host
	// link; BytesDirect is what the host-side alternatives would have
	// moved. BytesDirect − BytesOut is the link traffic the offloads
	// saved.
	BytesOut, BytesDirect int64
	// ComputeBusy is the in-device compute time the offloads consumed.
	ComputeBusy vclock.Duration
}

// BytesSaved reports the host-link bytes avoided by offloading.
func (s Stats) BytesSaved() int64 { return s.BytesDirect - s.BytesOut }

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Gets:         e.gets.Load(),
		GetHits:      e.getHits.Load(),
		Scans:        e.scans.Load(),
		PagesScanned: e.pagesScanned.Load(),
		PagesMatched: e.pagesMatched.Load(),
		Compactions:  e.compactions.Load(),
		BlocksMerged: e.blocksMerged.Load(),
		BytesOut:     e.bytesOut.Load(),
		BytesDirect:  e.bytesDirect.Load(),
		ComputeBusy:  vclock.Duration(e.computeBusy.Load()),
	}
}

// ErrBadFrame rejects a malformed offload request or result encoding.
var ErrBadFrame = errors.New("offload: malformed frame")

// --- Predicate (OpOffloadScan request) -----------------------------------

// Predicate is the filter of an offloaded scan: a page matches when
// its byte at Offset, masked with Mask, equals Value & Mask. One
// masked-byte comparison is deliberately minimal — enough to dial
// selectivity from 0 to 1 in the crossover experiment while keeping
// the wire format a fixed six bytes.
type Predicate struct {
	// Offset is the byte offset probed within each page.
	Offset uint32
	// Mask and Value define the match: page[Offset]&Mask == Value&Mask.
	Mask, Value byte
}

// predicateLen is the encoded size: offset u32 | mask | value.
const predicateLen = 6

// Match reports whether page satisfies the predicate.
func (p Predicate) Match(page []byte) bool {
	if int64(p.Offset) >= int64(len(page)) {
		return false
	}
	return page[p.Offset]&p.Mask == p.Value&p.Mask
}

// Encode serializes the predicate for Command.Data.
func (p Predicate) Encode() []byte {
	b := make([]byte, predicateLen)
	binary.LittleEndian.PutUint32(b, p.Offset)
	b[4], b[5] = p.Mask, p.Value
	return b
}

// DecodePredicate parses an encoded predicate.
func DecodePredicate(b []byte) (Predicate, error) {
	if len(b) != predicateLen {
		return Predicate{}, fmt.Errorf("%w: predicate is %d bytes, want %d", ErrBadFrame, len(b), predicateLen)
	}
	return Predicate{
		Offset: binary.LittleEndian.Uint32(b),
		Mask:   b[4],
		Value:  b[5],
	}, nil
}

// --- Get result (OpOffloadGet) -------------------------------------------

const (
	getFound   byte = 1 << 0
	getDeleted byte = 1 << 1
)

// EncodeGetResult frames an offloaded point lookup's answer:
// flags | value. Only the value — never the block — crosses the link.
func EncodeGetResult(value []byte, deleted, found bool) []byte {
	var flags byte
	if found {
		flags |= getFound
	}
	if deleted {
		flags |= getDeleted
	}
	out := make([]byte, 1+len(value))
	out[0] = flags
	copy(out[1:], value)
	return out
}

// DecodeGetResult parses an EncodeGetResult frame.
func DecodeGetResult(b []byte) (value []byte, deleted, found bool, err error) {
	if len(b) < 1 {
		return nil, false, false, fmt.Errorf("%w: empty get result", ErrBadFrame)
	}
	return b[1:], b[0]&getDeleted != 0, b[0]&getFound != 0, nil
}

// --- Scan result (OpOffloadScan) -----------------------------------------

// EncodeScanResult frames a filtered scan's answer: the page size,
// the matching page indexes (relative to the scanned extent) and the
// matching pages' raw bytes, concatenated in index order.
func EncodeScanResult(pageSize int, idx []uint32, pages []byte) []byte {
	out := make([]byte, 8+4*len(idx)+len(pages))
	binary.LittleEndian.PutUint32(out, uint32(pageSize))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(idx)))
	for i, x := range idx {
		binary.LittleEndian.PutUint32(out[8+4*i:], x)
	}
	copy(out[8+4*len(idx):], pages)
	return out
}

// DecodeScanResult parses an EncodeScanResult frame.
func DecodeScanResult(b []byte) (pageSize int, idx []uint32, pages []byte, err error) {
	if len(b) < 8 {
		return 0, nil, nil, fmt.Errorf("%w: scan result header short", ErrBadFrame)
	}
	pageSize = int(binary.LittleEndian.Uint32(b))
	count := int(binary.LittleEndian.Uint32(b[4:]))
	if pageSize <= 0 || count < 0 {
		return 0, nil, nil, fmt.Errorf("%w: scan result header invalid", ErrBadFrame)
	}
	want := 8 + 4*count + pageSize*count
	if len(b) != want {
		return 0, nil, nil, fmt.Errorf("%w: scan result is %d bytes, want %d", ErrBadFrame, len(b), want)
	}
	if count > 0 {
		idx = make([]uint32, count)
		for i := range idx {
			idx[i] = binary.LittleEndian.Uint32(b[8+4*i:])
		}
	}
	return pageSize, idx, b[8+4*count:], nil
}

// --- Compact request / result (OpOffloadCompact) -------------------------

// TableRef names one committed SSTable input of an offloaded
// compaction: the device-side merge needs only the handle and block
// count to iterate it.
type TableRef struct {
	ID     uint64
	Blocks uint32
}

// CompactRequest is the OpOffloadCompact payload.
type CompactRequest struct {
	// Inputs are merged newest-first-shadows-oldest, in slice order
	// (the same precedence rule the host-side merge uses).
	Inputs []TableRef
	// DropDeletes discards tombstones (bottom-level compaction).
	DropDeletes bool
	// BitsPerKey sizes the output tables' bloom filters (0 = builder
	// default).
	BitsPerKey uint16
}

// Encode serializes the request for Command.Data.
func (r CompactRequest) Encode() []byte {
	out := make([]byte, 7+12*len(r.Inputs))
	binary.LittleEndian.PutUint32(out, uint32(len(r.Inputs)))
	if r.DropDeletes {
		out[4] = 1
	}
	binary.LittleEndian.PutUint16(out[5:], r.BitsPerKey)
	for i, in := range r.Inputs {
		binary.LittleEndian.PutUint64(out[7+12*i:], in.ID)
		binary.LittleEndian.PutUint32(out[15+12*i:], in.Blocks)
	}
	return out
}

// DecodeCompactRequest parses an encoded compaction request.
func DecodeCompactRequest(b []byte) (CompactRequest, error) {
	if len(b) < 7 {
		return CompactRequest{}, fmt.Errorf("%w: compact request header short", ErrBadFrame)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count < 0 || len(b) != 7+12*count {
		return CompactRequest{}, fmt.Errorf("%w: compact request is %d bytes, want %d", ErrBadFrame, len(b), 7+12*count)
	}
	r := CompactRequest{
		DropDeletes: b[4] == 1,
		BitsPerKey:  binary.LittleEndian.Uint16(b[5:]),
		Inputs:      make([]TableRef, count),
	}
	for i := range r.Inputs {
		r.Inputs[i].ID = binary.LittleEndian.Uint64(b[7+12*i:])
		r.Inputs[i].Blocks = binary.LittleEndian.Uint32(b[15+12*i:])
	}
	return r, nil
}

// EncodeCompactResult frames the merge's answer: the output tables'
// marshaled metadata blobs, length-prefixed in output order.
func EncodeCompactResult(metas [][]byte) []byte {
	n := 4
	for _, m := range metas {
		n += 4 + len(m)
	}
	out := make([]byte, n)
	binary.LittleEndian.PutUint32(out, uint32(len(metas)))
	off := 4
	for _, m := range metas {
		binary.LittleEndian.PutUint32(out[off:], uint32(len(m)))
		off += 4
		copy(out[off:], m)
		off += len(m)
	}
	return out
}

// DecodeCompactResult parses an EncodeCompactResult frame.
func DecodeCompactResult(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: compact result header short", ErrBadFrame)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count < 0 || count > len(b) {
		return nil, fmt.Errorf("%w: compact result count %d", ErrBadFrame, count)
	}
	metas := make([][]byte, 0, count)
	off := 4
	for i := 0; i < count; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("%w: compact result truncated", ErrBadFrame)
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l < 0 || off+l > len(b) {
			return nil, fmt.Errorf("%w: compact result truncated", ErrBadFrame)
		}
		metas = append(metas, b[off:off+l])
		off += l
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: compact result has %d trailing bytes", ErrBadFrame, len(b)-off)
	}
	return metas, nil
}
