package ftlcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// RecordType tags WAL records.
type RecordType uint8

// Record types. Zero is reserved: a zero type byte in the log stream
// means "padding — skip to the next stripe boundary".
const (
	recPad        RecordType = 0
	RecTxCommit   RecordType = 1 // payload: mapping updates of one transaction
	RecCheckpoint RecordType = 2 // payload: checkpoint sequence marker
	RecAppExtent  RecordType = 3 // payload: application-defined (OX-ELEOS)
	RecSegHeader  RecordType = 4 // payload: magic | epoch | startLSN; first record of every segment
	RecGCMove     RecordType = 5 // payload: mapping updates from a GC relocation
	RecTrim       RecordType = 6 // payload: unmapped logical pages
)

// segMagic identifies WAL segment header records when recovery scans the
// device for log chunks.
const segMagic = 0x4f584c4f47534547 // "OXLOGSEG"

// segHeaderPayloadLen is magic(8) + epoch(8) + startLSN(8).
const segHeaderPayloadLen = 24

// segHeaderEncodedLen is the on-log size of a segment header record.
const segHeaderEncodedLen = recHeaderLen + segHeaderPayloadLen + 4

// Record is one WAL entry.
type Record struct {
	Type    RecordType
	TxID    uint64
	Payload []byte
}

// recHeaderLen is type(1) + txid(8) + payloadLen(4); a crc32 (4 bytes)
// follows the payload.
const recHeaderLen = 1 + 8 + 4

// encodedLen reports the on-log size of a record.
func encodedLen(r Record) int { return recHeaderLen + len(r.Payload) + 4 }

func encodeRecord(dst []byte, r Record) int {
	dst[0] = byte(r.Type)
	binary.LittleEndian.PutUint64(dst[1:], r.TxID)
	binary.LittleEndian.PutUint32(dst[9:], uint32(len(r.Payload)))
	copy(dst[recHeaderLen:], r.Payload)
	n := recHeaderLen + len(r.Payload)
	binary.LittleEndian.PutUint32(dst[n:], crc32.ChecksumIEEE(dst[:n]))
	return n + 4
}

// decodeRecord parses one record from buf. ok=false means buf starts
// with padding or a torn/corrupt record (replay skips or stops there).
func decodeRecord(buf []byte) (Record, int, bool) {
	if len(buf) < recHeaderLen+4 || buf[0] == byte(recPad) {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(buf[9:]))
	total := recHeaderLen + plen + 4
	if plen < 0 || total > len(buf) {
		return Record{}, 0, false
	}
	want := binary.LittleEndian.Uint32(buf[recHeaderLen+plen:])
	if crc32.ChecksumIEEE(buf[:recHeaderLen+plen]) != want {
		return Record{}, 0, false
	}
	r := Record{
		Type: RecordType(buf[0]),
		TxID: binary.LittleEndian.Uint64(buf[1:]),
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), buf[recHeaderLen:recHeaderLen+plen]...)
	}
	return r, total, true
}

// LSN is a logical sequence number: the byte offset of a record in the
// logical log stream (monotonic across segment chunks; includes padding).
type LSN int64

// WAL errors.
var (
	ErrWALFull        = errors.New("ftlcore: WAL out of chunks")
	ErrRecordTooLarge = errors.New("ftlcore: record larger than a log segment")
	// ErrCorruptRecord reports a WAL record frame that fails its checksum
	// mid-log: later records exist in the segment, so this is corruption,
	// not the torn tail a power cut legitimately leaves at the end.
	ErrCorruptRecord = errors.New("ftlcore: corrupt WAL record")
)

// WALConfig tunes the recovery log.
type WALConfig struct {
	// Target selects where log chunks are provisioned.
	Target Target
	// CPUPerRecordReplay is controller CPU charged per replayed record
	// (parse + mapping update). It is the constant that makes recovery
	// time scale with log volume, as in Figure 3.
	CPUPerRecordReplay vclock.Duration
	// Epoch distinguishes log incarnations across crashes; recovery
	// bumps it so stale segments are never replayed twice.
	Epoch uint64
}

// WAL is the recovery-log component of Figure 2 ("recovery log may be
// persisted according to atomic requirements"). Records append to log
// chunks provisioned from the allocator. Sync pads the device stripe so
// everything appended becomes durable — the group-commit cost on an
// append-only device. Truncate recycles wholly-consumed segments after a
// checkpoint. Records never span segments: a record that does not fit in
// the active segment pads it out and opens a fresh one, so every segment
// starts at a record boundary and replay can parse each independently.
type WAL struct {
	media ox.Media
	ctrl  *ox.Controller
	alloc *Allocator
	cfg   WALConfig
	geo   ocssd.Geometry

	mu       sync.Mutex
	segments []walSegment // in log order; last is active
	buf      []byte       // record bytes not yet appended to media
	nextLSN  LSN
	headLSN  LSN // smallest retained LSN
	appended metrics64
}

type metrics64 struct {
	records int64
	syncs   int64
	padded  int64 // padding bytes written (sync + segment fill)
}

type walSegment struct {
	chunk    ocssd.ChunkID
	startLSN LSN // stream offset of the segment's first byte
	written  int // sectors on media (mirror of the device WP)
}

// NewWAL provisions the first log chunk, stamps its segment header and
// returns the log.
func NewWAL(media ox.Media, ctrl *ox.Controller, alloc *Allocator, cfg WALConfig) (*WAL, error) {
	if cfg.CPUPerRecordReplay <= 0 {
		cfg.CPUPerRecordReplay = 5 * vclock.Microsecond
	}
	w := &WAL{media: media, ctrl: ctrl, alloc: alloc, cfg: cfg, geo: media.Geometry()}
	id, err := alloc.Alloc(cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALFull, err)
	}
	w.segments = []walSegment{{chunk: id}}
	w.bufferSegHeader()
	return w, nil
}

// bufferSegHeader appends the active segment's header record to the RAM
// buffer (it flushes with the next data). Caller holds w.mu (or the WAL
// is not yet shared).
func (w *WAL) bufferSegHeader() {
	var payload [segHeaderPayloadLen]byte
	binary.LittleEndian.PutUint64(payload[0:], segMagic)
	binary.LittleEndian.PutUint64(payload[8:], w.cfg.Epoch)
	binary.LittleEndian.PutUint64(payload[16:], uint64(w.nextLSN))
	w.bufferRecord(Record{Type: RecSegHeader, TxID: w.cfg.Epoch, Payload: payload[:]})
}

// bufferRecord encodes r directly into the RAM buffer, avoiding a
// per-record staging allocation. Caller holds w.mu.
func (w *WAL) bufferRecord(r Record) {
	need := encodedLen(r)
	off := len(w.buf)
	if cap(w.buf)-off < need {
		grown := make([]byte, off, cap(w.buf)+need+4096)
		copy(grown, w.buf)
		w.buf = grown
	}
	w.buf = w.buf[:off+need]
	encodeRecord(w.buf[off:], r)
	w.nextLSN += LSN(need)
}

func (w *WAL) unitBytes() int    { return w.geo.WSMin * w.geo.Chip.SectorSize }
func (w *WAL) segmentBytes() int { return w.geo.SectorsPerChunk() * w.geo.Chip.SectorSize }

// active returns the active segment. Caller holds w.mu.
func (w *WAL) active() *walSegment { return &w.segments[len(w.segments)-1] }

// remainingLocked reports stream bytes left in the active segment,
// counting both media-written sectors and buffered bytes.
func (w *WAL) remainingLocked() int {
	seg := w.active()
	return w.segmentBytes() - seg.written*w.geo.Chip.SectorSize - len(w.buf)
}

// Append adds a record to the log. With sync set it returns only when
// the record is durable. It reports the record's LSN and completion time.
func (w *WAL) Append(now vclock.Time, r Record, sync bool) (LSN, vclock.Time, error) {
	if r.Type == recPad {
		return 0, now, errors.New("ftlcore: record type 0 is reserved for padding")
	}
	need := encodedLen(r)
	if need > w.segmentBytes()-segHeaderEncodedLen {
		return 0, now, ErrRecordTooLarge
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	end := now
	var err error
	if need > w.remainingLocked() {
		if end, err = w.rotateLocked(end); err != nil {
			return 0, end, err
		}
	}
	lsn := w.nextLSN
	w.bufferRecord(r)
	w.appended.records++

	// Drain full ws_min units to media, then slide the remainder to the
	// front so the buffer's backing array is reused forever.
	unit := w.unitBytes()
	drained := 0
	for len(w.buf)-drained >= unit {
		end, err = w.appendUnit(end, w.buf[drained:drained+unit], 0)
		if err != nil {
			w.buf = w.buf[:copy(w.buf, w.buf[drained:])]
			return lsn, end, err
		}
		drained += unit
	}
	if drained > 0 {
		w.buf = w.buf[:copy(w.buf, w.buf[drained:])]
	}
	if sync {
		if end, err = w.syncLocked(end); err != nil {
			return lsn, end, err
		}
	}
	return lsn, end, nil
}

// appendUnit writes one ws_min unit to the active segment: data, whole
// sectors, followed by pad zero sectors. The caller holds w.mu and
// guarantees the segment has room.
func (w *WAL) appendUnit(now vclock.Time, data []byte, pad int) (vclock.Time, error) {
	seg := w.active()
	_, end, err := w.media.AppendPadded(now, seg.chunk, data, pad)
	if err != nil {
		return now, err
	}
	seg.written += w.geo.WSMin
	w.ctrl.NoteControllerIO()
	return end, nil
}

// syncLocked flushes the buffered tail (padding it to a unit) and pads
// the device stripe so every appended record is durable. The tail's last
// sector is completed with zeros in place, in the buffer's own backing
// array; the unit's remaining sectors go to the device as a pad count.
func (w *WAL) syncLocked(now vclock.Time) (vclock.Time, error) {
	unit := w.unitBytes()
	if len(w.buf) > 0 {
		pad := unit - len(w.buf)
		tail := ZeroToSector(w.buf, w.geo.Chip.SectorSize)
		w.buf = tail[:len(w.buf)]
		end, err := w.appendUnit(now, tail, (unit-len(tail))/w.geo.Chip.SectorSize)
		if err != nil {
			return now, err
		}
		w.nextLSN += LSN(pad) // pad bytes consume stream space
		w.appended.padded += int64(pad)
		w.buf = w.buf[:0]
		now = end
	}
	seg := w.active()
	end, err := w.media.Pad(now, seg.chunk)
	if err != nil {
		return now, err
	}
	info, err := w.media.Chunk(seg.chunk)
	if err != nil {
		return end, err
	}
	if skipped := info.WP - seg.written; skipped > 0 {
		w.nextLSN += LSN(skipped * w.geo.Chip.SectorSize)
		w.appended.padded += int64(skipped * w.geo.Chip.SectorSize)
		seg.written = info.WP
	}
	w.appended.syncs++
	return end, nil
}

// rotateLocked syncs, fills the active segment with zero padding and
// opens a fresh segment, so the next record starts a segment. The fill
// is unit by unit, each one a pad count.
func (w *WAL) rotateLocked(now vclock.Time) (vclock.Time, error) {
	end, err := w.syncLocked(now)
	if err != nil {
		return end, err
	}
	seg := w.active()
	for seg.written < w.geo.SectorsPerChunk() {
		if end, err = w.appendUnit(end, nil, w.geo.WSMin); err != nil {
			return end, err
		}
		w.nextLSN += LSN(w.unitBytes())
		w.appended.padded += int64(w.unitBytes())
	}
	id, err := w.alloc.Alloc(w.cfg.Target)
	if err != nil {
		return end, fmt.Errorf("%w: %v", ErrWALFull, err)
	}
	w.segments = append(w.segments, walSegment{chunk: id, startLSN: w.nextLSN})
	w.bufferSegHeader()
	return end, nil
}

// Sync makes all appended records durable.
func (w *WAL) Sync(now vclock.Time) (vclock.Time, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked(now)
}

// NextLSN reports the LSN the next record will receive.
func (w *WAL) NextLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// HeadLSN reports the oldest retained LSN.
func (w *WAL) HeadLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.headLSN
}

// Records reports how many records were appended in this incarnation.
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended.records
}

// PaddedBytes reports total padding written (space amplification of
// synchronous commit on an append-only device).
func (w *WAL) PaddedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended.padded
}

// Segments reports the log chunks holding records, oldest first.
func (w *WAL) Segments() []ocssd.ChunkID {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ocssd.ChunkID, len(w.segments))
	for i, s := range w.segments {
		out[i] = s.chunk
	}
	return out
}

// Truncate discards records below upto: segments wholly below the mark
// are reset and returned to the allocator. §4.3: "the checkpoint process
// truncates the log at regular intervals".
func (w *WAL) Truncate(now vclock.Time, upto LSN) (vclock.Time, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	end := now
	for len(w.segments) > 1 && w.segments[1].startLSN <= upto {
		e, err := w.alloc.Release(now, w.segments[0].chunk)
		if err == nil && e > end {
			end = e
		}
		// On Release failure the chunk was retired; drop it either way.
		w.segments = w.segments[1:]
	}
	if w.segments[0].startLSN > w.headLSN {
		w.headLSN = w.segments[0].startLSN
	}
	if upto > w.headLSN {
		w.headLSN = upto
	}
	return end, nil
}

// Replay reads the log and invokes fn for every durable record with
// LSN ≥ from, charging media read time plus per-record controller CPU.
// Segment headers are consumed internally and not passed to fn. It
// reports the number of records replayed and the completion time.
// Replay cost is what Figure 3 measures.
func (w *WAL) Replay(now vclock.Time, from LSN, fn func(Record) error) (int, vclock.Time, error) {
	w.mu.Lock()
	segs := make([]walSegment, len(w.segments))
	copy(segs, w.segments)
	w.mu.Unlock()

	count := 0
	end := now
	for _, seg := range segs {
		n, e, err := replaySegment(w.media, w.ctrl, w.cfg, end, seg.chunk, seg.startLSN, from, fn)
		count += n
		end = e
		if err != nil {
			return count, end, err
		}
	}
	return count, end, nil
}

// replaySegment reads one segment's written extent and replays its
// records at or above from. Headers and padding are skipped.
func replaySegment(media ox.Media, ctrl *ox.Controller, cfg WALConfig, now vclock.Time,
	chunk ocssd.ChunkID, startLSN, from LSN, fn func(Record) error) (int, vclock.Time, error) {
	geo := media.Geometry()
	secSize := geo.Chip.SectorSize
	stripeBytes := geo.UnitOfWriteBytes()
	end := now
	info, err := media.Chunk(chunk)
	if err != nil {
		return 0, end, err
	}
	if info.WP == 0 {
		return 0, end, nil
	}
	segBytes := info.WP * secSize
	if startLSN+LSN(segBytes) <= from {
		return 0, end, nil // wholly below the replay point
	}
	buf := make([]byte, segBytes)
	ppas := make([]ocssd.PPA, info.WP)
	for s := range ppas {
		ppas[s] = chunk.PPAOf(s)
	}
	if end, err = media.VectorRead(end, ppas, buf); err != nil {
		return 0, end, err
	}
	count := 0
	off := 0
	for off < len(buf) {
		rec, n, ok := decodeRecord(buf[off:])
		if !ok {
			if buf[off] != byte(recPad) {
				// A record frame that fails to decode. Writing stops at a
				// tear, so a valid record at any later stripe boundary
				// (records realign there after every sync) proves this is
				// corruption rather than the torn tail of a power cut.
				for probe := (off/stripeBytes + 1) * stripeBytes; probe < len(buf); probe += stripeBytes {
					if _, _, valid := decodeRecord(buf[probe:]); valid {
						return count, end, fmt.Errorf("%w: %v byte %d", ErrCorruptRecord, chunk, off)
					}
				}
				break // torn tail: the log ends at the last durable record
			}
			// Padding: skip to the next stripe boundary.
			next := (off/stripeBytes + 1) * stripeBytes
			if next >= len(buf) {
				break
			}
			off = next
			continue
		}
		if rec.Type != RecSegHeader && startLSN+LSN(off) >= from {
			end = ctrl.CPUWork(end, cfg.CPUPerRecordReplay)
			if err := fn(rec); err != nil {
				return count, end, err
			}
			count++
		}
		off += n
	}
	return count, end, nil
}

// RecoveredSegment is a log segment found on media by ScanLog.
type RecoveredSegment struct {
	Chunk    ocssd.ChunkID
	Epoch    uint64
	StartLSN LSN
}

// ScanLog identifies WAL segments across the whole device by probing the
// first record of every written chunk for a segment header. It returns
// them ordered by (epoch, startLSN) together with the highest epoch seen
// (recovery starts its new log at a higher epoch). This is how recovery
// finds the log after all volatile state is lost.
func ScanLog(now vclock.Time, media ox.Media, ctrl *ox.Controller) ([]RecoveredSegment, uint64, vclock.Time, error) {
	geo := media.Geometry()
	secSize := geo.Chip.SectorSize
	probe := geo.WSMin
	var segs []RecoveredSegment
	var maxEpoch uint64
	end := now
	for _, ci := range media.Report() {
		if ci.WP == 0 || ci.State == ocssd.ChunkOffline {
			continue
		}
		n := probe
		if ci.WP < n {
			n = ci.WP
		}
		buf := make([]byte, n*secSize)
		ppas := make([]ocssd.PPA, n)
		for s := range ppas {
			ppas[s] = ci.ID.PPAOf(s)
		}
		e, err := media.VectorRead(end, ppas, buf)
		if err != nil {
			continue // unreadable chunk: not a (usable) log segment
		}
		end = e
		rec, _, ok := decodeRecord(buf)
		if !ok || rec.Type != RecSegHeader || len(rec.Payload) != segHeaderPayloadLen {
			continue
		}
		if binary.LittleEndian.Uint64(rec.Payload[0:]) != segMagic {
			continue
		}
		epoch := binary.LittleEndian.Uint64(rec.Payload[8:])
		start := LSN(binary.LittleEndian.Uint64(rec.Payload[16:]))
		segs = append(segs, RecoveredSegment{Chunk: ci.ID, Epoch: epoch, StartLSN: start})
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Epoch != segs[j].Epoch {
			return segs[i].Epoch < segs[j].Epoch
		}
		return segs[i].StartLSN < segs[j].StartLSN
	})
	return segs, maxEpoch, end, nil
}

// ReplayLog replays recovered segments against fn: records of epochs
// newer than ckptEpoch replay fully; records of ckptEpoch replay from
// the checkpoint LSN; older epochs are skipped entirely.
func ReplayLog(now vclock.Time, media ox.Media, ctrl *ox.Controller, cfg WALConfig,
	segs []RecoveredSegment, ckptEpoch uint64, from LSN, fn func(Record) error) (int, vclock.Time, error) {
	if cfg.CPUPerRecordReplay <= 0 {
		cfg.CPUPerRecordReplay = 5 * vclock.Microsecond
	}
	count := 0
	end := now
	for _, seg := range segs {
		segFrom := from
		switch {
		case seg.Epoch < ckptEpoch:
			continue
		case seg.Epoch > ckptEpoch:
			segFrom = 0
		}
		n, e, err := replaySegment(media, ctrl, cfg, end, seg.Chunk, seg.StartLSN, segFrom, fn)
		count += n
		end = e
		if err != nil {
			return count, end, err
		}
	}
	return count, end, nil
}
