package lsm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vclock"
)

// This file is the LSM side of the computational-storage subsystem
// (internal/offload): the primitives a device-resident engine needs to
// resolve point lookups and run compactions without the host: the
// in-device lookup feeds the same BlockSearch (sstable.go) as the host
// Get, and MergeTables below is a thin export over the host's own
// merge/build machinery, so an offloaded operation produces
// bit-identical tables and values.

// MergeTables merges the given committed tables into fresh tables on
// env, newest-first inputs shadowing older ones, and returns the output
// metadata — the device-side half of an offloaded compaction
// (OpOffloadCompact). It runs the exact iterator/builder machinery of
// the host-side compaction, so outputs are bit-identical to a host
// merge of the same inputs; only where it executes (and what crosses
// the host link) differs. Iteration needs nothing beyond each input's
// handle: block indexes and entry order are self-describing.
func MergeTables(env Env, now vclock.Time, inputs []TableHandle, bitsPerKey int, dropDeletes bool) ([]*TableMeta, vclock.Time, error) {
	clock := now
	its := make([]entryIterator, 0, len(inputs))
	for _, h := range inputs {
		its = append(its, newTableIterator(env, &TableMeta{Handle: h}, &clock))
	}
	return buildTables(env, clock, newDedupIterator(newMergeIterator(its)), bitsPerKey, dropDeletes)
}

// Marshal serializes the table metadata — handle, key range, block
// index, bloom filter, counters — so an offloaded compaction can
// return its outputs' metadata through a command result instead of the
// host rebuilding it by scanning the tables.
func (t *TableMeta) Marshal() []byte {
	n := 8 + 4 + 4 + 8 // handle id, blocks, entries, bytes
	n += 4 + len(t.Smallest)
	n += 4 + len(t.Largest)
	var filter []byte
	if t.Filter != nil {
		filter = t.Filter.marshal()
	}
	n += 4 + len(filter)
	n += 4
	for _, k := range t.FirstKeys {
		n += 4 + len(k)
	}
	out := make([]byte, 0, n)
	var u32 [4]byte
	var u64 [8]byte
	putBytes := func(b []byte) {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(b)))
		out = append(out, u32[:]...)
		out = append(out, b...)
	}
	binary.LittleEndian.PutUint64(u64[:], uint64(t.Handle.ID))
	out = append(out, u64[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(t.Handle.Blocks))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(t.Entries))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint64(u64[:], uint64(t.Bytes))
	out = append(out, u64[:]...)
	putBytes(t.Smallest)
	putBytes(t.Largest)
	putBytes(filter)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(t.FirstKeys)))
	out = append(out, u32[:]...)
	for _, k := range t.FirstKeys {
		putBytes(k)
	}
	return out
}

// UnmarshalTableMeta parses a Marshal frame.
func UnmarshalTableMeta(b []byte) (*TableMeta, error) {
	bad := fmt.Errorf("lsm: malformed table meta (%d bytes)", len(b))
	off := 0
	need := func(n int) bool { return off+n <= len(b) }
	takeBytes := func() ([]byte, bool) {
		if !need(4) {
			return nil, false
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l < 0 || !need(l) {
			return nil, false
		}
		v := b[off : off+l]
		off += l
		if len(v) == 0 {
			return nil, true
		}
		return append([]byte(nil), v...), true
	}
	if !need(24) {
		return nil, bad
	}
	t := &TableMeta{}
	t.Handle.ID = TableID(binary.LittleEndian.Uint64(b[off:]))
	t.Handle.Blocks = int(binary.LittleEndian.Uint32(b[off+8:]))
	t.Entries = int(binary.LittleEndian.Uint32(b[off+12:]))
	t.Bytes = int64(binary.LittleEndian.Uint64(b[off+16:]))
	off += 24
	var ok bool
	if t.Smallest, ok = takeBytes(); !ok {
		return nil, bad
	}
	if t.Largest, ok = takeBytes(); !ok {
		return nil, bad
	}
	var filter []byte
	if filter, ok = takeBytes(); !ok {
		return nil, bad
	}
	if len(filter) > 0 {
		t.Filter = unmarshalBloom(filter)
	}
	if !need(4) {
		return nil, bad
	}
	count := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if count < 0 || count > len(b) {
		return nil, bad
	}
	if count > 0 {
		t.FirstKeys = make([][]byte, count)
		for i := range t.FirstKeys {
			if t.FirstKeys[i], ok = takeBytes(); !ok {
				return nil, bad
			}
		}
	}
	if off != len(b) {
		return nil, bad
	}
	return t, nil
}
