package ftlcore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

func newWALUnderTest(t *testing.T) (*WAL, *ocssd.Device, *Allocator) {
	t.Helper()
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewWAL(d, ctrl, a, WALConfig{Target: AnyTarget()})
	if err != nil {
		t.Fatal(err)
	}
	return w, d, a
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	var want []Record
	now := vclock.Time(0)
	for i := 0; i < 20; i++ {
		r := Record{Type: RecTxCommit, TxID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, i*7)}
		want = append(want, r)
		_, end, err := w.Append(now, r, false)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	if _, err := w.Sync(now); err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, _, err := w.Replay(now, 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].TxID != want[i].TxID || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestWALSyncMakesDurable(t *testing.T) {
	w, d, _ := newWALUnderTest(t)
	r := Record{Type: RecTxCommit, TxID: 7, Payload: []byte("hello")}
	_, end, err := w.Append(0, r, true)
	if err != nil {
		t.Fatal(err)
	}
	// Crash loses un-padded buffers; a synced record must survive.
	d.Crash()
	var got []Record
	if _, _, err := w.Replay(end, 0, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TxID != 7 {
		t.Fatalf("after crash: %+v", got)
	}
}

func TestWALUnsyncedRecordLostOnCrash(t *testing.T) {
	w, d, _ := newWALUnderTest(t)
	// A tiny unsynced record stays in the WAL's RAM buffer (never even
	// reaches the device stripe buffer).
	if _, _, err := w.Append(0, Record{Type: RecTxCommit, TxID: 9}, false); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	n, _, err := w.Replay(0, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unsynced record survived crash: %d records", n)
	}
}

func TestWALSyncCostsStripeProgram(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	// A synchronous append must pay (at least) one NAND stripe program:
	// group commit on an append-only device is expensive — that is the
	// design point §4.3 makes about transactional FTL writes.
	_, end, err := w.Append(0, Record{Type: RecTxCommit, TxID: 1, Payload: make([]byte, 64)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if end < vclock.Time(vclock.Millisecond) {
		t.Fatalf("sync completed in %v; a TLC stripe program costs milliseconds", end)
	}
	if w.PaddedBytes() == 0 {
		t.Fatal("sync of a small record must pad")
	}
}

func TestWALReplayFrom(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	now := vclock.Time(0)
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsn, end, err := w.Append(now, Record{Type: RecTxCommit, TxID: uint64(i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		now = end
	}
	var got []uint64
	_, _, err := w.Replay(now, lsns[6], func(r Record) error {
		got = append(got, r.TxID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 6 {
		t.Fatalf("replay from lsn[6]: %v", got)
	}
}

func TestWALTruncateRecyclesChunks(t *testing.T) {
	w, d, a := newWALUnderTest(t)
	geo := d.Geometry()
	now := vclock.Time(0)
	freeBefore := a.FreeCount()
	// Write enough synced records to cross several segments: each sync
	// burns at least one stripe (24 sectors), chunk = 96 sectors.
	var lastLSN LSN
	for i := 0; i < 20; i++ {
		lsn, end, err := w.Append(now, Record{Type: RecTxCommit, TxID: uint64(i), Payload: make([]byte, 100)}, true)
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
		now = end
	}
	if len(w.Segments()) < 3 {
		t.Fatalf("expected multiple segments, got %d (chunk=%d sectors)", len(w.Segments()), geo.SectorsPerChunk())
	}
	segsBefore := len(w.Segments())
	freeHeld := a.FreeCount()
	if freeHeld >= freeBefore {
		t.Fatalf("segments should hold chunks: free %d vs %d", freeHeld, freeBefore)
	}
	if _, err := w.Truncate(now, lastLSN); err != nil {
		t.Fatal(err)
	}
	if len(w.Segments()) >= segsBefore {
		t.Fatal("truncate did not drop segments")
	}
	if w.HeadLSN() < lastLSN {
		t.Fatalf("head = %d, want >= %d", w.HeadLSN(), lastLSN)
	}
	if a.FreeCount() <= freeHeld {
		t.Fatal("truncate should have returned chunks to the pool")
	}
	// Replay after truncate only sees the retained tail.
	n, _, err := w.Replay(now, lastLSN, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records after truncate, want 1", n)
	}
}

func TestWALRecordTooLarge(t *testing.T) {
	w, d, _ := newWALUnderTest(t)
	huge := make([]byte, int(d.Geometry().ChunkBytes())+1)
	_, _, err := w.Append(0, Record{Type: RecTxCommit, Payload: huge}, false)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestWALRecordNeverSpansSegments(t *testing.T) {
	w, d, _ := newWALUnderTest(t)
	geo := d.Geometry()
	now := vclock.Time(0)
	// Payload sized so a few records nearly fill a segment, forcing the
	// "does not fit" rotation path.
	payload := make([]byte, int(geo.ChunkBytes())/3)
	for i := 0; i < 7; i++ {
		_, end, err := w.Append(now, Record{Type: RecTxCommit, TxID: uint64(i), Payload: payload}, true)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// Every record must replay intact despite the rotations.
	var got []uint64
	n, _, err := w.Replay(now, 0, func(r Record) error {
		if len(r.Payload) != len(payload) {
			return fmt.Errorf("payload truncated: %d", len(r.Payload))
		}
		got = append(got, r.TxID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("replayed %d, want 7 (%v)", n, got)
	}
}

func TestWALPadTypeReserved(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	if _, _, err := w.Append(0, Record{Type: recPad}, false); err == nil {
		t.Fatal("pad-typed record must be rejected")
	}
}

func TestWALReplayStopsOnCallbackError(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	now := vclock.Time(0)
	for i := 0; i < 5; i++ {
		_, end, err := w.Append(now, Record{Type: RecTxCommit, TxID: uint64(i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	wantErr := errors.New("stop")
	n, _, err := w.Replay(now, 0, func(r Record) error {
		if r.TxID == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if n != 2 {
		t.Fatalf("replayed %d before stop, want 2", n)
	}
}

func TestWALRecordsCounter(t *testing.T) {
	w, _, _ := newWALUnderTest(t)
	for i := 0; i < 3; i++ {
		if _, _, err := w.Append(0, Record{Type: RecTxCommit}, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 {
		t.Fatalf("records = %d", w.Records())
	}
	if w.NextLSN() == 0 {
		t.Fatal("LSN should advance")
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	r := Record{Type: RecAppExtent, TxID: 12345, Payload: []byte("payload")}
	buf := make([]byte, encodedLen(r))
	n := encodeRecord(buf, r)
	if n != len(buf) {
		t.Fatalf("encoded %d, want %d", n, len(buf))
	}
	got, consumed, ok := decodeRecord(buf)
	if !ok || consumed != n {
		t.Fatalf("decode: ok=%v consumed=%d", ok, consumed)
	}
	if got.Type != r.Type || got.TxID != r.TxID || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("decoded %+v", got)
	}
	// Corruption is caught by the CRC.
	buf[recHeaderLen] ^= 0xFF
	if _, _, ok := decodeRecord(buf); ok {
		t.Fatal("corrupt record decoded")
	}
	// Truncation is caught.
	if _, _, ok := decodeRecord(buf[:len(buf)-1]); ok {
		t.Fatal("truncated record decoded")
	}
	// Padding is not a record.
	if _, _, ok := decodeRecord(make([]byte, 64)); ok {
		t.Fatal("padding decoded as record")
	}
}

// corruptMedia wraps a Media and xors bytes of one chunk on reads, to
// model bit rot between append and replay.
type corruptMedia struct {
	ox.Media
	chunk ocssd.ChunkID
	flip  map[int]byte // chunk byte offset → xor mask
}

func (c *corruptMedia) VectorRead(now vclock.Time, ppas []ocssd.PPA, dst []byte) (vclock.Time, error) {
	end, err := c.Media.VectorRead(now, ppas, dst)
	if err != nil {
		return end, err
	}
	sz := c.Media.Geometry().Chip.SectorSize
	for i, p := range ppas {
		if p.ChunkOf() != c.chunk {
			continue
		}
		for off, mask := range c.flip {
			if off/sz == p.Sector {
				dst[i*sz+off%sz] ^= mask
			}
		}
	}
	return end, nil
}

// syncedWAL builds a WAL with n synced single-record stripes, so record
// i sits at stripe boundary i (the segment header shares stripe 0).
func syncedWAL(t *testing.T, n int) (*WAL, *ocssd.Device, *ox.Controller) {
	t.Helper()
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1})
	a := NewAllocator(d, nil)
	w, err := NewWAL(d, ctrl, a, WALConfig{Target: AnyTarget()})
	if err != nil {
		t.Fatal(err)
	}
	now := vclock.Time(0)
	for i := 0; i < n; i++ {
		r := Record{Type: RecTxCommit, TxID: uint64(i + 1), Payload: []byte{byte(i)}}
		if _, end, err := w.Append(now, r, true); err != nil {
			t.Fatal(err)
		} else {
			now = end
		}
	}
	return w, d, ctrl
}

func TestWALReplayCorruptMidLogTypedError(t *testing.T) {
	w, d, ctrl := syncedWAL(t, 3)
	seg := w.Segments()[0]
	stripe := d.Geometry().UnitOfWriteBytes()
	// Flip a byte inside record 2's frame (stripe 1). Records 1 and 3
	// still decode, so replay must fail typed instead of skipping.
	cm := &corruptMedia{Media: d, chunk: seg, flip: map[int]byte{stripe + 2: 0xff}}
	segs, _, _, err := ScanLog(0, cm, ctrl)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ScanLog: %v, %d segments", err, len(segs))
	}
	var got []uint64
	n, _, err := ReplayLog(0, cm, ctrl, WALConfig{}, segs, 0, 0, func(r Record) error {
		got = append(got, r.TxID)
		return nil
	})
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("want ErrCorruptRecord, got %v (replayed %v)", err, got)
	}
	if n != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("records before the corruption must replay: n=%d got=%v", n, got)
	}
}

func TestWALReplayTornTailStopsClean(t *testing.T) {
	w, d, ctrl := syncedWAL(t, 3)
	seg := w.Segments()[0]
	stripe := d.Geometry().UnitOfWriteBytes()
	// Corrupt the LAST record: no valid record follows, so this is
	// indistinguishable from a torn tail and replay stops cleanly.
	cm := &corruptMedia{Media: d, chunk: seg, flip: map[int]byte{2*stripe + 2: 0xff}}
	segs, _, _, err := ScanLog(0, cm, ctrl)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ScanLog: %v, %d segments", err, len(segs))
	}
	var got []uint64
	n, _, err := ReplayLog(0, cm, ctrl, WALConfig{}, segs, 0, 0, func(r Record) error {
		got = append(got, r.TxID)
		return nil
	})
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if n != 2 || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("want records 1,2 before the tear: n=%d got=%v", n, got)
	}
}

// TestWALTornRecordFromCrash drives the real tear: a record larger than
// one ws_min unit drains partially to media, then power is lost. The
// persisted prefix fails its checksum and replay stops at the last
// durable record without an error.
func TestWALTornRecordFromCrash(t *testing.T) {
	d, ctrl := testDevice(t, ocssd.Options{Seed: 1, PowerLossProtected: true})
	a := NewAllocator(d, nil)
	w, err := NewWAL(d, ctrl, a, WALConfig{Target: AnyTarget()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(0, Record{Type: RecTxCommit, TxID: 1, Payload: []byte("ok")}, true); err != nil {
		t.Fatal(err)
	}
	// A record spanning multiple units: its first unit reaches media, the
	// rest dies with controller RAM.
	big := Record{Type: RecTxCommit, TxID: 2, Payload: bytes.Repeat([]byte{0xab}, 5*w.unitBytes())}
	if _, _, err := w.Append(0, big, false); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	segs, _, _, err := ScanLog(0, d, ctrl)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ScanLog: %v, %d segments", err, len(segs))
	}
	var got []uint64
	n, _, err := ReplayLog(0, d, ctrl, WALConfig{}, segs, 0, 0, func(r Record) error {
		got = append(got, r.TxID)
		return nil
	})
	if err != nil {
		t.Fatalf("crash tear must not be fatal: %v", err)
	}
	if n != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("want only the synced record: n=%d got=%v", n, got)
	}
}

// TestPadScratchKeepsTailZero fills the scratch with payloads of rising
// and falling length and unit size: every returned slice is the payload
// followed by zeros, whatever the previous, longer payload left behind.
func TestPadScratchKeepsTailZero(t *testing.T) {
	var p PadScratch
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := 4096 * (1 + rng.Intn(8))
		data := make([]byte, rng.Intn(n+1))
		for j := range data {
			data[j] = byte(1 + rng.Intn(255))
		}
		got := p.Fill(data, n)
		if len(got) != n || !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("fill %d: payload not at the front of %d bytes", i, len(got))
		}
		for j, v := range got[len(data):] {
			if v != 0 {
				t.Fatalf("fill %d: pad byte %d of %d is %#x", i, len(data)+j, n, v)
			}
		}
	}
}
