// Package oxeleos implements OX-ELEOS, the application-specific FTL the
// paper built for log-structured storage in LLAMA (§4.2): it "exposes
// Open-Channel SSDs as log-structured storage, with writes at the
// granularity of Log-Structured Storage (LSS) I/O buffers, typically
// 8MB, and reads at the granularity of a single page". Pages inside a
// buffer may be fixed 4 KB or variable-sized ("an arbitrary number of
// bytes"), so the mapping granularity is *smaller* than the device's
// unit of read — the challenge §4.2 highlights.
//
// The write path is where Figure 7 lives: each flushed buffer crosses
// the controller twice (network→FTL copy, FTL→device copy), and those
// copies are what saturate the storage controller at two host threads.
package oxeleos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ftl/ftlcore"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// Errors returned by the store.
var (
	ErrBufferSize = errors.New("oxeleos: flush exceeds the LSS I/O buffer size")
	ErrPageDesc   = errors.New("oxeleos: page descriptor out of buffer bounds")
	ErrNotFound   = errors.New("oxeleos: page not found")
)

// extentRecLen is the encoded size of one page-extent entry in a
// RecAppExtent WAL record: id(8) ppa(8) offset(4) length(4) pad(4).
const extentRecLen = 28

// PageDesc describes one logical page inside an LSS I/O buffer.
type PageDesc struct {
	ID     int64 // logical page identifier (LLAMA PID)
	Offset int   // byte offset within the buffer
	Length int   // byte length (variable-size pages: any positive value)
}

// cpuPerPageMap is controller CPU per page-mapping operation.
const cpuPerPageMap = vclock.Microsecond

// Config tunes the store.
type Config struct {
	// BufferBytes is the LSS I/O buffer size (default 8 MB, §4.2).
	BufferBytes int
	// StripeWidth is the number of open chunks the log stripes over
	// (0 = one per PU).
	StripeWidth int
}

// Stats aggregates store activity.
type Stats struct {
	Flushes      int64
	BytesFlushed int64
	PageReads    int64
	Deletes      int64
	ChunksFreed  int64
}

// Store is an OX-ELEOS log-structured store over an Open-Channel SSD.
type Store struct {
	ctrl  *ox.Controller
	media ox.Media
	geo   ocssd.Geometry
	cfg   Config

	mu     sync.Mutex
	vmap   *ftlcore.VarMap
	alloc  *ftlcore.Allocator
	writer *ftlcore.StripeWriter
	wal    *ftlcore.WAL
	// liveBytes tracks live data per chunk so Clean can reclaim chunks
	// whose pages were all deleted or superseded.
	liveBytes map[ocssd.ChunkID]int64
	chunkOf   map[int64][]ocssd.ChunkID // page id -> chunks holding its extent
	// recoveredSegs are WAL segments of earlier epochs: they are the only
	// durable copy of the recovered mapping (OX-ELEOS has no checkpoint),
	// so Clean must never reclaim them.
	recoveredSegs map[ocssd.ChunkID]bool
	stats         Stats
	// Flush's scratch, guarded by mu: the PPAs the stripe writer assigns,
	// and a buffer that ends inside a sector, completed with zeros.
	ppas []ocssd.PPA
	tail []byte
}

// RecoveryReport summarizes one crash recovery.
type RecoveryReport struct {
	ReplayedSegments int
	ReplayedRecords  int
	End              vclock.Time
}

// baseStore builds the store skeleton shared by New and Recover.
func baseStore(ctrl *ox.Controller, cfg Config) (*Store, error) {
	geo := ctrl.Media().Geometry()
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 8 << 20
	}
	if cfg.BufferBytes%(geo.WSMin*geo.Chip.SectorSize) != 0 {
		return nil, fmt.Errorf("oxeleos: buffer size %d is not a ws_min multiple", cfg.BufferBytes)
	}
	if cfg.StripeWidth <= 0 {
		cfg.StripeWidth = geo.TotalPUs()
	}
	s := &Store{
		ctrl:          ctrl,
		media:         ctrl.Media(),
		geo:           geo,
		cfg:           cfg,
		vmap:          ftlcore.NewVarMap(),
		liveBytes:     make(map[ocssd.ChunkID]int64),
		chunkOf:       make(map[int64][]ocssd.ChunkID),
		recoveredSegs: make(map[ocssd.ChunkID]bool),
	}
	s.alloc = ftlcore.NewAllocator(s.media, nil)
	return s, nil
}

// New opens a fresh OX-ELEOS store on the controller's media.
func New(ctrl *ox.Controller, cfg Config) (*Store, error) {
	s, err := baseStore(ctrl, cfg)
	if err != nil {
		return nil, err
	}
	s.wal, err = ftlcore.NewWAL(s.media, ctrl, s.alloc, ftlcore.WALConfig{Target: ftlcore.AnyTarget(), Epoch: 1})
	if err != nil {
		return nil, err
	}
	s.writer, err = ftlcore.NewStripeWriter(s.media, s.alloc, ftlcore.AnyTarget(), s.cfg.StripeWidth)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Recover reopens an OX-ELEOS store after a crash: it scans the media
// for WAL segments, replays every extent record in (epoch, LSN) order —
// last write wins, deletions replay as trims — and starts a fresh log
// at a higher epoch. The allocator only pools free chunks, so data and
// old log segments survive until Clean decides otherwise (and old log
// segments, being the sole durable mapping, are never cleaned).
func Recover(now vclock.Time, ctrl *ox.Controller, cfg Config) (*Store, *RecoveryReport, error) {
	s, err := baseStore(ctrl, cfg)
	if err != nil {
		return nil, nil, err
	}
	segs, maxEpoch, end, err := ftlcore.ScanLog(now, s.media, ctrl)
	if err != nil {
		return nil, nil, err
	}
	walCfg := ftlcore.WALConfig{Target: ftlcore.AnyTarget()}
	n, end, err := ftlcore.ReplayLog(end, s.media, ctrl, walCfg, segs, 0, 0, s.applyRecord)
	if err != nil {
		return nil, nil, err
	}
	for _, seg := range segs {
		s.recoveredSegs[seg.Chunk] = true
	}
	s.wal, err = ftlcore.NewWAL(s.media, ctrl, s.alloc, ftlcore.WALConfig{Target: ftlcore.AnyTarget(), Epoch: maxEpoch + 1})
	if err != nil {
		return nil, nil, err
	}
	s.writer, err = ftlcore.NewStripeWriter(s.media, s.alloc, ftlcore.AnyTarget(), s.cfg.StripeWidth)
	if err != nil {
		return nil, nil, err
	}
	return s, &RecoveryReport{ReplayedSegments: len(segs), ReplayedRecords: n, End: end}, nil
}

// applyRecord rebuilds the volatile mapping from one WAL record. Only
// called during Recover, before the store is shared.
func (s *Store) applyRecord(r ftlcore.Record) error {
	switch r.Type {
	case ftlcore.RecAppExtent:
		for off := 0; off+extentRecLen <= len(r.Payload); off += extentRecLen {
			rec := r.Payload[off:]
			id := int64(binary.LittleEndian.Uint64(rec[0:]))
			entry := ftlcore.VarEntry{
				PPA:    ocssd.Unpack(binary.LittleEndian.Uint64(rec[8:])),
				Offset: int(binary.LittleEndian.Uint32(rec[16:])),
				Length: int(binary.LittleEndian.Uint32(rec[20:])),
			}
			s.dropPage(id)
			if err := s.vmap.Update(id, entry); err != nil {
				return err
			}
			// Replay charges the whole extent to its starting chunk: the
			// per-chunk split of the original flush is not logged, and
			// liveBytes is a reclamation heuristic, not an invariant.
			c := entry.PPA.ChunkOf()
			s.liveBytes[c] += int64(entry.Length)
			s.chunkOf[id] = []ocssd.ChunkID{c}
		}
	case ftlcore.RecTrim:
		for off := 0; off+8 <= len(r.Payload); off += 8 {
			id := int64(binary.LittleEndian.Uint64(r.Payload[off:]))
			s.dropPage(id)
			s.vmap.Delete(id)
		}
	}
	return nil
}

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// BufferBytes reports the configured LSS I/O buffer size.
func (s *Store) BufferBytes() int { return s.cfg.BufferBytes }

// Controller reports the OX controller the store accounts against —
// the execution domain of every OX-ELEOS command. Flushes cross the
// controller memory bus and the store-wide lock, so commands of one
// store never overlap in wall-clock time.
func (s *Store) Controller() *ox.Controller { return s.ctrl }

// Flush writes one LSS I/O buffer to flash and maps the pages it
// contains. This is the Figure 7 write path: the buffer is copied from
// the network stack into the FTL, then from the FTL to the device, and
// both copies cross the controller's memory bus. The returned time is
// when the flush is acknowledged to the host.
func (s *Store) Flush(now vclock.Time, buf []byte, pages []PageDesc) (vclock.Time, error) {
	if len(buf) == 0 || len(buf) > s.cfg.BufferBytes {
		return now, fmt.Errorf("%w: %d bytes", ErrBufferSize, len(buf))
	}
	secSize := s.geo.Chip.SectorSize
	for _, p := range pages {
		if p.Offset < 0 || p.Length <= 0 || p.Offset+p.Length > len(buf) {
			return now, fmt.Errorf("%w: id %d [%d,+%d)", ErrPageDesc, p.ID, p.Offset, p.Length)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrl.NoteUserIO()

	// Copy 1: network stack → FTL buffer.
	end := s.ctrl.CopyRX(now, int64(len(buf)))
	// Copy 2: FTL → device (DMA staging).
	end = s.ctrl.CopyToDevice(end, int64(len(buf)))

	// Pad the tail to a ws_min multiple, as a count of zero sectors, and
	// append to the striped log. Only a buffer ending inside a sector is
	// staged, to complete that sector without writing to the caller's.
	payload := buf
	if len(buf)%secSize != 0 {
		s.tail = ftlcore.ZeroToSector(append(s.tail[:0], buf...), secSize)
		payload = s.tail
	}
	pad := (s.geo.WSMin - len(payload)/secSize%s.geo.WSMin) % s.geo.WSMin
	ppas, end, err := s.writer.Append(end, payload, pad, s.ppas[:0])
	s.ppas = ppas
	if err != nil {
		return end, err
	}

	// Map each page to its byte extent and log the mapping.
	walPayload := make([]byte, 0, len(pages)*28)
	var rec [28]byte
	for _, p := range pages {
		sector := p.Offset / secSize
		entry := ftlcore.VarEntry{
			PPA:    ppas[sector],
			Offset: p.Offset % secSize,
			Length: p.Length,
		}
		s.dropPage(p.ID)
		if err := s.vmap.Update(p.ID, entry); err != nil {
			return end, err
		}
		s.trackPage(p.ID, ppas, p.Offset, p.Length)
		binary.LittleEndian.PutUint64(rec[0:], uint64(p.ID))
		binary.LittleEndian.PutUint64(rec[8:], entry.PPA.Pack())
		binary.LittleEndian.PutUint32(rec[16:], uint32(entry.Offset))
		binary.LittleEndian.PutUint32(rec[20:], uint32(entry.Length))
		binary.LittleEndian.PutUint32(rec[24:], 0)
		walPayload = append(walPayload, rec[:]...)
	}
	end = s.ctrl.CPUWork(end, vclock.Duration(len(pages))*cpuPerPageMap)
	if _, end, err = s.wal.Append(end, ftlcore.Record{
		Type:    ftlcore.RecAppExtent,
		Payload: walPayload,
	}, true); err != nil {
		return end, err
	}
	s.stats.Flushes++
	s.stats.BytesFlushed += int64(len(buf))
	return end, nil
}

// trackPage charges a page's bytes to the chunks its extent touches.
func (s *Store) trackPage(id int64, ppas []ocssd.PPA, offset, length int) {
	secSize := s.geo.Chip.SectorSize
	first := offset / secSize
	last := (offset + length - 1) / secSize
	var chunks []ocssd.ChunkID
	prev := ocssd.ChunkID{Group: -1}
	for sec := first; sec <= last && sec < len(ppas); sec++ {
		c := ppas[sec].ChunkOf()
		if c != prev {
			chunks = append(chunks, c)
			prev = c
		}
	}
	for _, c := range chunks {
		s.liveBytes[c] += int64(length) / int64(len(chunks))
	}
	s.chunkOf[id] = chunks
}

// dropPage removes a page's live-byte accounting (on supersede/delete).
func (s *Store) dropPage(id int64) {
	old, ok := s.vmap.Lookup(id)
	if !ok {
		return
	}
	chunks := s.chunkOf[id]
	for _, c := range chunks {
		s.liveBytes[c] -= int64(old.Length) / int64(len(chunks))
		if s.liveBytes[c] < 0 {
			s.liveBytes[c] = 0
		}
	}
	delete(s.chunkOf, id)
}

// ReadPage returns a logical page's bytes. Reads are page-granular even
// though placement is buffer-granular; a variable-size page smaller than
// a sector still costs (at least) one sector read — the §4.2 point about
// mapping below the unit of read.
func (s *Store) ReadPage(now vclock.Time, id int64) ([]byte, vclock.Time, error) {
	s.mu.Lock()
	entry, ok := s.vmap.Lookup(id)
	s.mu.Unlock()
	if !ok {
		return nil, now, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	s.ctrl.NoteUserIO()
	secSize := s.geo.Chip.SectorSize
	nsec := (entry.Offset + entry.Length + secSize - 1) / secSize
	ppas := make([]ocssd.PPA, nsec)
	p := entry.PPA
	for i := range ppas {
		ppas[i] = p
		p = p.Next()
		// Extents may wrap across stripes of the striped log: the next
		// sector of the buffer is the next sector in the same chunk only
		// while within the stripe-writer unit; for simplicity extents
		// never span appends (enforced by flush: one buffer, sequential
		// ppas), so consecutive sectors follow ppas order. Wrapping is
		// handled at flush time by using the actual assigned ppas.
	}
	end := s.ctrl.CPUWork(now, cpuPerPageMap)
	buf := make([]byte, nsec*secSize)
	end, err := s.media.VectorRead(end, ppas, buf)
	if err != nil {
		return nil, end, err
	}
	s.mu.Lock()
	s.stats.PageReads++
	s.mu.Unlock()
	out := make([]byte, entry.Length)
	copy(out, buf[entry.Offset:entry.Offset+entry.Length])
	return out, end, nil
}

// Delete unmaps a logical page. Space is reclaimed lazily by Clean.
// The trim is logged (asynchronously — it rides the next sync) so
// recovery does not resurrect the page.
func (s *Store) Delete(now vclock.Time, id int64) (vclock.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vmap.Lookup(id); !ok {
		return now, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	s.dropPage(id)
	s.vmap.Delete(id)
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(id))
	_, end, err := s.wal.Append(now, ftlcore.Record{Type: ftlcore.RecTrim, Payload: payload[:]}, false)
	if err != nil {
		return end, err
	}
	s.stats.Deletes++
	return s.ctrl.CPUWork(end, cpuPerPageMap), nil
}

// Clean resets closed chunks that hold no live bytes (LSS cleaning is
// the application's job in LLAMA — relocation happens by re-flushing —
// so the FTL only reclaims fully dead chunks).
func (s *Store) Clean(now vclock.Time) (int, vclock.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := now
	freed := 0
	writerOpen := make(map[ocssd.ChunkID]bool)
	for _, id := range s.writer.OpenChunks() {
		writerOpen[id] = true
	}
	walHeld := make(map[ocssd.ChunkID]bool)
	for _, id := range s.wal.Segments() {
		walHeld[id] = true
	}
	// Trims are logged lazily; a chunk is only dead because some trim
	// said so. Force the log before erasing anything, or a crash could
	// lose the trim and resurrect extents inside a reused chunk.
	e, err := s.wal.Sync(end)
	if err != nil {
		return 0, end, err
	}
	end = e
	for _, ci := range s.media.Report() {
		if ci.State != ocssd.ChunkClosed || writerOpen[ci.ID] || walHeld[ci.ID] || s.recoveredSegs[ci.ID] {
			continue
		}
		if s.liveBytes[ci.ID] > 0 {
			continue
		}
		e, err := s.alloc.Release(end, ci.ID)
		if err != nil {
			continue
		}
		end = e
		delete(s.liveBytes, ci.ID)
		freed++
	}
	s.stats.ChunksFreed += int64(freed)
	return freed, end, nil
}

// Len reports the number of mapped pages.
func (s *Store) Len() int { return s.vmap.Len() }
