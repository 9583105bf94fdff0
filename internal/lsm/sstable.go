package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/vclock"
)

// Entry is one internal LSM record.
type Entry struct {
	Key   []byte
	Seq   uint64
	Value []byte
	Del   bool
}

// Block format: repeated entries
//
//	keyLen uint16 | flagsValLen uint32 | seq uint64 | key | value
//
// keyLen == 0 terminates the block; the rest is zero padding. The high
// bit of flagsValLen marks a tombstone.
const (
	entryHeader = 2 + 4 + 8
	delFlag     = 1 << 31
)

var errBlockFull = errors.New("lsm: block full")

// appendEntry encodes e into buf if it fits within blockSize.
func appendEntry(buf []byte, e Entry, blockSize int) ([]byte, error) {
	need := entryHeader + len(e.Key) + len(e.Value)
	// Leave room for the 2-byte terminator.
	if len(buf)+need+2 > blockSize {
		return buf, errBlockFull
	}
	var hdr [entryHeader]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(e.Key)))
	fv := uint32(len(e.Value))
	if e.Del {
		fv |= delFlag
	}
	binary.LittleEndian.PutUint32(hdr[2:], fv)
	binary.LittleEndian.PutUint64(hdr[6:], e.Seq)
	buf = append(buf, hdr[:]...)
	buf = append(buf, e.Key...)
	buf = append(buf, e.Value...)
	return buf, nil
}

// decodeBlockInto appends all entries of a block to dst without copying
// key or value bytes: the returned entries alias block and stay valid
// only until block's backing buffer is overwritten. The write hot path
// (compaction, scans) consumes entries before their buffer is reused,
// so the alias never escapes — this is the "zero-copy where the caller
// permits" contract of DESIGN.md.
func decodeBlockInto(dst []Entry, block []byte) []Entry {
	off := 0
	for off+entryHeader <= len(block) {
		keyLen := int(binary.LittleEndian.Uint16(block[off:]))
		if keyLen == 0 {
			break
		}
		fv := binary.LittleEndian.Uint32(block[off+2:])
		seq := binary.LittleEndian.Uint64(block[off+6:])
		valLen := int(fv &^ delFlag)
		del := fv&delFlag != 0
		off += entryHeader
		if off+keyLen+valLen > len(block) {
			break // torn block
		}
		e := Entry{
			Key: block[off : off+keyLen : off+keyLen],
			Seq: seq,
			Del: del,
		}
		off += keyLen
		if !del {
			e.Value = block[off : off+valLen : off+valLen]
		}
		off += valLen
		dst = append(dst, e)
	}
	return dst
}

// decodeBlock parses all entries of a block into freshly allocated
// key/value buffers (callers that retain entries indefinitely).
func decodeBlock(block []byte) []Entry {
	out := decodeBlockInto(nil, block)
	for i := range out {
		out[i].Key = append([]byte(nil), out[i].Key...)
		if out[i].Value != nil {
			out[i].Value = append([]byte(nil), out[i].Value...)
		}
	}
	return out
}

// BlockSearch scans one SSTable block for a key without needing the
// block in one piece: Reset arms it, Feed hands it the block's bytes as
// consecutive segments of any length — one device sector at a time when
// the block is searched where it lies, the whole block at once after a
// ReadBlock — and Result reports the answer. A header, key or value may
// straddle segments. Entries are (key asc, seq desc), so the first match
// is the newest version; its value is the only thing copied, appended
// to the dst given to Reset. The rules of the block format hold
// whatever the split: a zero keyLen terminates the block, and an entry
// the block ends inside (a torn block) ends the scan without a match.
//
// It is the one block-search routine: the host Get, the ReadBlock
// fallback and the in-device lookup (OpOffloadGet) all feed it. The zero
// value is ready for Reset; a BlockSearch is reused across lookups and
// never allocates beyond growing dst.
type BlockSearch struct {
	key, dst []byte
	state    searchState
	hdr      [entryHeader]byte
	// n counts bytes within the current state: header or key bytes
	// gathered, value bytes consumed, or (searchSkip) bytes of a
	// non-matching entry still ahead.
	n      int
	valLen int
	del    bool
}

type searchState uint8

const (
	searchHeader searchState = iota // gathering an entry header
	searchKey                       // comparing an entry key of the right length
	searchSkip                      // passing over the rest of a non-matching entry
	searchValue                     // consuming the matching entry's value
	searchMiss                      // terminator reached: key is not in the block
	searchHit                       // the matching entry lies wholly inside the block
)

// Reset arms the search for key. A found value is appended to dst[:0];
// both slices are referenced until the next Reset.
func (s *BlockSearch) Reset(key, dst []byte) {
	s.key, s.dst = key, dst[:0]
	s.state, s.n = searchHeader, 0
}

// Feed consumes the next segment of the block. Segments after the
// answer is known are ignored, so a visitor may keep feeding. seg is
// only read, and not retained.
func (s *BlockSearch) Feed(seg []byte) {
	for len(seg) > 0 {
		switch s.state {
		case searchHeader:
			hdr := s.hdr[:]
			if s.n == 0 && len(seg) >= entryHeader {
				hdr, seg = seg[:entryHeader], seg[entryHeader:]
			} else {
				c := copy(s.hdr[s.n:], seg)
				s.n, seg = s.n+c, seg[c:]
				if s.n < entryHeader {
					return
				}
			}
			keyLen := int(binary.LittleEndian.Uint16(hdr))
			if keyLen == 0 {
				s.state = searchMiss
				return
			}
			fv := binary.LittleEndian.Uint32(hdr[2:])
			s.valLen, s.del = int(fv&^delFlag), fv&delFlag != 0
			if keyLen == len(s.key) {
				s.state, s.n = searchKey, 0
			} else {
				s.state, s.n = searchSkip, keyLen+s.valLen
			}
		case searchKey:
			c := min(len(seg), len(s.key)-s.n)
			if !bytes.Equal(seg[:c], s.key[s.n:s.n+c]) {
				// The skip restarts at seg, which is not consumed here.
				s.state, s.n = searchSkip, len(s.key)-s.n+s.valLen
				continue
			}
			s.n, seg = s.n+c, seg[c:]
			if s.n == len(s.key) {
				s.state, s.n = searchValue, 0
				if s.valLen == 0 {
					s.state = searchHit
					return
				}
			}
		case searchSkip:
			c := min(len(seg), s.n)
			s.n, seg = s.n-c, seg[c:]
			if s.n == 0 {
				s.state = searchHeader
			}
		case searchValue:
			c := min(len(seg), s.valLen-s.n)
			if !s.del {
				s.dst = append(s.dst, seg[:c]...)
			}
			s.n, seg = s.n+c, seg[c:]
			if s.n == s.valLen {
				s.state = searchHit
				return
			}
		default:
			return
		}
	}
}

// Result reports the answer once the whole block has been fed: the
// newest version's value (backed by Reset's dst; nil for a tombstone),
// whether it is a tombstone, and whether the key was found at all. A
// search the block ended inside of reports not found.
func (s *BlockSearch) Result() (value []byte, del, found bool) {
	if s.state != searchHit {
		return nil, false, false
	}
	if s.del {
		return nil, true, true
	}
	return s.dst, false, true
}

// TableMeta is the in-memory metadata of one SSTable: block index
// (first key per block), bloom filter and key range. RocksDB keeps
// these in index/filter blocks inside the table; LightLSM holds them in
// controller RAM (they are rebuildable by scanning the table).
type TableMeta struct {
	Handle    TableHandle
	FirstKeys [][]byte
	Smallest  []byte
	Largest   []byte
	Filter    *bloom
	Entries   int
	Bytes     int64
}

// Overlaps reports whether the table's key range intersects [lo, hi].
// nil bounds mean unbounded.
func (t *TableMeta) Overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.Smallest, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.Largest, lo) < 0 {
		return false
	}
	return true
}

// blockFor returns the index of the last block whose first key is ≤ key
// (the only block that can contain key), or -1.
func (t *TableMeta) blockFor(key []byte) int {
	lo, hi := 0, len(t.FirstKeys)-1
	ans := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.FirstKeys[mid], key) <= 0 {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// entryIterator yields entries in internal-key order.
type entryIterator interface {
	// next returns the next entry; ok=false at exhaustion or on a read
	// error, which err then reports.
	next() (Entry, bool)
	// err returns the first error that ended the iteration early, nil
	// if the input was (or can still be) read to its end. A consumer
	// must check it after next reports false: stopping short is not
	// exhaustion, and treating it as such drops every later entry.
	err() error
}

// buildTables drains iter into one or more SSTables of at most
// maxBlocks blocks each, returning their metadata. bitsPerKey sizes the
// bloom filters; dropDeletes elides tombstones (bottom level only).
// Each table flush is atomic (Commit). If iter stops on a read error
// the outputs built so far hold a truncated merge: they are discarded
// (open writer aborted, committed tables deleted) and the error is
// returned, so the caller's inputs remain the only copy and stay valid.
func buildTables(env Env, now vclock.Time, iter entryIterator, bitsPerKey int, dropDeletes bool) ([]*TableMeta, vclock.Time, error) {
	blockSize := env.BlockSize()
	maxBlocks := env.MaxTableBlocks()
	var metas []*TableMeta
	end := now

	var (
		w          TableWriter
		meta       *TableMeta
		hashes     []uint32 // bloom hashes of the current table's keys
		block      []byte
		padded     []byte // reusable full-block staging buffer
		blockFirst []byte
		err        error
	)
	flushBlock := func() error {
		if len(block) == 0 {
			return nil
		}
		if padded == nil {
			padded = make([]byte, blockSize)
		}
		n := copy(padded, block)
		clear(padded[n:])
		if end, err = w.Append(end, padded); err != nil {
			return err
		}
		meta.FirstKeys = append(meta.FirstKeys, blockFirst)
		meta.Bytes += int64(blockSize)
		block = block[:0]
		blockFirst = nil
		return nil
	}
	finishTable := func() error {
		if w == nil {
			return nil
		}
		if err := flushBlock(); err != nil {
			return err
		}
		if meta.Entries == 0 {
			_, err := w.Abort(end)
			w, meta = nil, nil
			hashes = hashes[:0]
			return err
		}
		var h TableHandle
		if h, end, err = w.Commit(end); err != nil {
			return err
		}
		meta.Handle = h
		meta.Filter = newBloomFromHashes(hashes, bitsPerKey)
		metas = append(metas, meta)
		w, meta = nil, nil
		hashes = hashes[:0]
		return nil
	}

	for {
		e, ok := iter.next()
		if !ok {
			break
		}
		if dropDeletes && e.Del {
			continue
		}
		if w == nil {
			if w, err = env.CreateTable(end); err != nil {
				return metas, end, err
			}
			meta = &TableMeta{Smallest: append([]byte(nil), e.Key...)}
		}
		if len(block) == 0 {
			blockFirst = append([]byte(nil), e.Key...)
		}
		block, err = appendEntry(block, e, blockSize)
		if errors.Is(err, errBlockFull) {
			if err := flushBlock(); err != nil {
				return metas, end, err
			}
			if len(meta.FirstKeys) >= maxBlocks {
				if err := finishTable(); err != nil {
					return metas, end, err
				}
				if w, err = env.CreateTable(end); err != nil {
					return metas, end, err
				}
				meta = &TableMeta{Smallest: append([]byte(nil), e.Key...)}
			}
			blockFirst = append([]byte(nil), e.Key...)
			if block, err = appendEntry(block, e, blockSize); err != nil {
				return metas, end, fmt.Errorf("lsm: entry larger than a block: %w", err)
			}
		} else if err != nil {
			return metas, end, err
		}
		meta.Entries++
		meta.Largest = append(meta.Largest[:0], e.Key...)
		hashes = append(hashes, bloomHash(e.Key))
	}
	if err := iter.err(); err != nil {
		// Best-effort release of the partial outputs; the read error is
		// what the caller needs to see.
		if w != nil {
			end, _ = w.Abort(end)
		}
		for _, m := range metas {
			end, _ = env.DeleteTable(end, m.Handle)
		}
		return nil, end, err
	}
	if err := finishTable(); err != nil {
		return metas, end, err
	}
	return metas, end, nil
}

// tableIterator streams a committed table's entries block by block.
// Entries are decoded zero-copy: they alias the iterator's block
// buffers. Two buffers alternate, so an entry handed out from one block
// survives the read of the next block — exactly the lifetime a merge
// heap needs when it refills a source's head after copying the previous
// one out.
type tableIterator struct {
	env      Env
	meta     *TableMeta
	now      *vclock.Time // shared clock advanced by block reads
	blockIdx int
	entries  []Entry
	pos      int
	bufs     [2][]byte
	cur      int
	readErr  error // first ReadBlock failure; the iterator stays stopped
}

// newTableIterator creates an iterator over one table. Block read time
// accrues to *now.
func newTableIterator(env Env, meta *TableMeta, now *vclock.Time) *tableIterator {
	return &tableIterator{env: env, meta: meta, now: now}
}

func (it *tableIterator) next() (Entry, bool) {
	for it.pos >= len(it.entries) {
		if it.readErr != nil || it.blockIdx >= it.meta.Handle.Blocks {
			return Entry{}, false
		}
		it.cur ^= 1
		if it.bufs[it.cur] == nil {
			it.bufs[it.cur] = make([]byte, it.env.BlockSize())
		}
		buf := it.bufs[it.cur]
		end, err := it.env.ReadBlock(*it.now, it.meta.Handle, it.blockIdx, buf)
		if err != nil {
			it.readErr = fmt.Errorf("lsm: table %d block %d: %w", it.meta.Handle.ID, it.blockIdx, err)
			return Entry{}, false
		}
		*it.now = end
		it.entries = decodeBlockInto(it.entries[:0], buf)
		it.pos = 0
		it.blockIdx++
	}
	e := it.entries[it.pos]
	it.pos++
	return e, true
}

func (it *tableIterator) err() error { return it.readErr }

// mergeIterator merges several entryIterators in internal-key order;
// inputs must each be internally sorted. On ties (same key and seq),
// earlier inputs win (callers order inputs newest-first). Heads are
// stored by value beside a live bitmap, so advancing the merge never
// allocates (an Entry box per merged entry used to dominate the flush
// path's allocation profile).
type mergeIterator struct {
	its    []entryIterator
	heads  []Entry
	live   []bool
	failed error // first input error; the merge stops there
}

func newMergeIterator(its []entryIterator) *mergeIterator {
	m := &mergeIterator{its: its, heads: make([]Entry, len(its)), live: make([]bool, len(its))}
	for i := range its {
		m.advance(i)
	}
	return m
}

// advance refills input i's head. An input that stops on an error stops
// the whole merge: carrying on without it would emit a merge that
// silently lacks its remaining entries.
func (m *mergeIterator) advance(i int) {
	m.heads[i], m.live[i] = m.its[i].next()
	if !m.live[i] && m.failed == nil {
		m.failed = m.its[i].err()
	}
}

func (m *mergeIterator) next() (Entry, bool) {
	if m.failed != nil {
		return Entry{}, false
	}
	best := -1
	for i := range m.heads {
		if !m.live[i] {
			continue
		}
		if best < 0 || cmpInternal(m.heads[i].Key, m.heads[i].Seq, m.heads[best].Key, m.heads[best].Seq) < 0 {
			best = i
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	e := m.heads[best]
	m.advance(best)
	return e, true
}

func (m *mergeIterator) err() error { return m.failed }

// dedupIterator keeps only the newest version of each key.
type dedupIterator struct {
	in      entryIterator
	lastKey []byte
	primed  bool
	head    Entry
	headOK  bool
}

func newDedupIterator(in entryIterator) *dedupIterator { return &dedupIterator{in: in} }

func (d *dedupIterator) next() (Entry, bool) {
	for {
		var e Entry
		var ok bool
		if d.primed {
			e, ok = d.head, d.headOK
			d.primed = false
		} else {
			e, ok = d.in.next()
		}
		if !ok {
			return Entry{}, false
		}
		if d.lastKey != nil && bytes.Equal(e.Key, d.lastKey) {
			continue // older version of the same key
		}
		d.lastKey = append(d.lastKey[:0], e.Key...)
		return e, true
	}
}

func (d *dedupIterator) err() error { return d.in.err() }

// sliceIterator iterates a pre-built entry slice.
type sliceIterator struct {
	entries []Entry
	pos     int
}

func (s *sliceIterator) next() (Entry, bool) {
	if s.pos >= len(s.entries) {
		return Entry{}, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e, true
}

func (s *sliceIterator) err() error { return nil }
