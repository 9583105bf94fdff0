package ftlcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// Checkpoint stream layout:
//
//	header (64 bytes): magic | seq | walLSN | pages | entries | crc | pad
//	pages × MapPageBytes of mapping snapshot
//	trailer (16 bytes): magic | seq | crc(snapshot)
const (
	ckptMagic      = 0x4f58434b // "OXCK"
	ckptHeaderLen  = 64
	ckptTrailerLen = 16
)

// ErrNoCheckpoint is returned by Load when neither slot holds a valid
// checkpoint (first boot, or both torn).
var ErrNoCheckpoint = errors.New("ftlcore: no valid checkpoint")

// serializeMBps is the controller CPU cost of rendering the mapping
// snapshot (charged on a core).
const serializeMBps = 2000

// Checkpointer persists mapping snapshots into two alternating slots of
// reserved chunks (Figure 2: "mapping and block metadata may be
// persisted during checkpoint process"). Double buffering means a crash
// during checkpoint N leaves checkpoint N-1 intact.
type Checkpointer struct {
	media ox.Media
	ctrl  *ox.Controller
	slots [2][]ocssd.ChunkID
	seq   uint64
	// stream is Write's serialization buffer, kept from one checkpoint to
	// the next (media appends copy what they are given).
	stream []byte
}

// NewCheckpointer builds a checkpointer over two reserved chunk slots.
// Each slot must be able to hold a full mapping snapshot.
func NewCheckpointer(media ox.Media, ctrl *ox.Controller, slots [2][]ocssd.ChunkID) (*Checkpointer, error) {
	if len(slots[0]) == 0 || len(slots[1]) == 0 {
		return nil, errors.New("ftlcore: checkpoint slots must hold at least one chunk each")
	}
	return &Checkpointer{media: media, ctrl: ctrl, slots: slots}, nil
}

// SlotBytesNeeded reports the stream size of a checkpoint for a map with
// the given number of mapping pages.
func SlotBytesNeeded(pages int) int {
	return ckptHeaderLen + pages*MapPageBytes + ckptTrailerLen
}

// Seq reports the sequence number of the last checkpoint written or loaded.
func (c *Checkpointer) Seq() uint64 { return c.seq }

// Write persists a full snapshot of m plus the WAL position (epoch,
// walLSN) into the next slot. It is a synchronous controller I/O; the
// returned time includes serialization CPU and media writes. After a
// successful write the map's dirty set is cleared.
func (c *Checkpointer) Write(now vclock.Time, m *PageMap, walEpoch uint64, walLSN LSN) (vclock.Time, error) {
	seq := c.seq + 1
	pages := m.Pages()
	geo := c.media.Geometry()
	sz := geo.Chip.SectorSize
	// Room for the snapshot and the zeros that complete its last sector.
	if need := SlotBytesNeeded(pages) + sz; cap(c.stream) < need {
		c.stream = make([]byte, 0, need)
	}
	stream := append(c.stream[:0], make([]byte, ckptHeaderLen)...)
	binary.LittleEndian.PutUint32(stream[0:], ckptMagic)
	binary.LittleEndian.PutUint64(stream[4:], seq)
	binary.LittleEndian.PutUint64(stream[12:], uint64(walLSN))
	binary.LittleEndian.PutUint32(stream[20:], uint32(pages))
	binary.LittleEndian.PutUint64(stream[24:], uint64(m.Len()))
	binary.LittleEndian.PutUint64(stream[32:], walEpoch)
	binary.LittleEndian.PutUint32(stream[40:], crc32.ChecksumIEEE(stream[0:40]))

	for p := 0; p < pages; p++ {
		var err error
		if stream, err = m.AppendPage(stream, p); err != nil {
			return now, err
		}
	}
	snapCRC := crc32.ChecksumIEEE(stream[ckptHeaderLen:])
	stream = binary.LittleEndian.AppendUint32(stream, ckptMagic)
	stream = binary.LittleEndian.AppendUint64(stream, seq)
	stream = binary.LittleEndian.AppendUint32(stream, snapCRC)
	c.stream = stream
	n := len(stream)

	// Serialization CPU.
	end := c.ctrl.CPUWork(now, vclock.DurationFor(int64(n), serializeMBps))

	slot := c.slots[seq%2]
	// Reset previously used slot chunks.
	for _, id := range slot {
		info, err := c.media.Chunk(id)
		if err != nil {
			return end, err
		}
		if info.State == ocssd.ChunkOpen || info.State == ocssd.ChunkClosed {
			if end, err = c.media.Reset(end, id); err != nil {
				return end, err
			}
		}
	}
	// Stream the snapshot across the slot chunks.
	chunkBytes := int(geo.ChunkBytes())
	off := 0
	for ci := 0; ci < len(slot) && off < n; ci++ {
		take := min(n-off, chunkBytes)
		// Only the stream's last piece can end inside a unit (a chunk is
		// whole units): its last sector is completed with zeros past the
		// stream's end, and the unit's other sectors are a pad count.
		payload := ZeroToSector(stream[off:off+take], sz)
		pad := (geo.WSMin - len(payload)/sz%geo.WSMin) % geo.WSMin
		var err error
		if _, end, err = c.media.AppendPadded(end, slot[ci], payload, pad); err != nil {
			return end, err
		}
		if end2, err := c.media.Pad(end, slot[ci]); err != nil {
			return end, err
		} else {
			end = end2
		}
		off += take
	}
	if off < n {
		return end, fmt.Errorf("ftlcore: checkpoint of %d bytes exceeds slot capacity %d",
			n, len(slot)*chunkBytes)
	}
	c.ctrl.NoteControllerIO()
	c.seq = seq
	m.ClearDirty(m.DirtyPages())
	return end, nil
}

// Load restores the newest valid checkpoint into m and returns its WAL
// position (epoch, LSN). It tries both slots and picks the highest valid
// sequence.
func (c *Checkpointer) Load(now vclock.Time, m *PageMap) (uint64, LSN, vclock.Time, error) {
	type candidate struct {
		seq    uint64
		epoch  uint64
		walLSN LSN
		stream []byte
		pages  int
	}
	var best *candidate
	end := now
	for s := 0; s < 2; s++ {
		stream, e, err := c.readSlot(end, c.slots[s])
		end = e
		if err != nil || len(stream) < ckptHeaderLen+ckptTrailerLen {
			continue
		}
		if binary.LittleEndian.Uint32(stream[0:]) != ckptMagic {
			continue
		}
		if crc32.ChecksumIEEE(stream[0:40]) != binary.LittleEndian.Uint32(stream[40:]) {
			continue
		}
		seq := binary.LittleEndian.Uint64(stream[4:])
		walLSN := LSN(binary.LittleEndian.Uint64(stream[12:]))
		pages := int(binary.LittleEndian.Uint32(stream[20:]))
		epoch := binary.LittleEndian.Uint64(stream[32:])
		need := SlotBytesNeeded(pages)
		if len(stream) < need {
			continue
		}
		snap := stream[ckptHeaderLen : ckptHeaderLen+pages*MapPageBytes]
		trailer := stream[ckptHeaderLen+pages*MapPageBytes : need]
		if binary.LittleEndian.Uint32(trailer[0:]) != ckptMagic ||
			binary.LittleEndian.Uint64(trailer[4:]) != seq ||
			crc32.ChecksumIEEE(snap) != binary.LittleEndian.Uint32(trailer[12:]) {
			continue
		}
		if best == nil || seq > best.seq {
			best = &candidate{seq: seq, epoch: epoch, walLSN: walLSN, stream: snap, pages: pages}
		}
	}
	if best == nil {
		return 0, 0, end, ErrNoCheckpoint
	}
	// Install CPU cost mirrors serialization.
	end = c.ctrl.CPUWork(end, vclock.DurationFor(int64(len(best.stream)), serializeMBps))
	for p := 0; p < best.pages && p < m.Pages(); p++ {
		if err := m.LoadPage(p, best.stream[p*MapPageBytes:(p+1)*MapPageBytes]); err != nil {
			return 0, 0, end, err
		}
	}
	m.ClearDirty(m.DirtyPages())
	c.seq = best.seq
	return best.epoch, best.walLSN, end, nil
}

// readSlot reads the written extent of every chunk in a slot, in order.
func (c *Checkpointer) readSlot(now vclock.Time, slot []ocssd.ChunkID) ([]byte, vclock.Time, error) {
	geo := c.media.Geometry()
	secSize := geo.Chip.SectorSize
	var stream []byte
	end := now
	for _, id := range slot {
		info, err := c.media.Chunk(id)
		if err != nil {
			return nil, end, err
		}
		if info.WP == 0 {
			break
		}
		buf := make([]byte, info.WP*secSize)
		ppas := make([]ocssd.PPA, info.WP)
		for s := range ppas {
			ppas[s] = id.PPAOf(s)
		}
		if end, err = c.media.VectorRead(end, ppas, buf); err != nil {
			return nil, end, err
		}
		stream = append(stream, buf...)
	}
	return stream, end, nil
}
