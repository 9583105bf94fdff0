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
	// non-matching entry, or before the start offset, still ahead.
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

// Reset arms the search for key, starting at byte from of the block.
// The bytes before from are still fed, but passed over unread, so from
// must be 0 or the offset of an entry header before which no version of
// key lies that is newer than the one wanted: a seek point of the
// block's index (TableMeta.seekFrom). A found value is appended to
// dst[:0]; both slices are referenced until the next Reset.
func (s *BlockSearch) Reset(key, dst []byte, from int) {
	s.key, s.dst = key, dst[:0]
	s.state, s.n = searchHeader, 0
	if from > 0 {
		s.state, s.n = searchSkip, from
	}
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
// (first key per block, seek points and continuation flags), bloom
// filter and key range. RocksDB keeps these in index/filter blocks
// inside the table; LightLSM holds them in controller RAM (they are
// rebuildable by scanning the table).
type TableMeta struct {
	Handle    TableHandle
	FirstKeys [][]byte
	// blocks and seeks are the rest of the block index, built by
	// buildTables and not marshalled: a meta without them (one
	// unmarshalled from an offloaded compaction) searches every block
	// from its start, which is slower but just as correct, because a
	// compaction's output holds one version per key.
	blocks   []blockIndex
	seeks    []seekPoint // every block's seek points, in block order
	Smallest []byte
	Largest  []byte
	Filter   *bloom
	Entries  int
	Bytes    int64
}

// seekInterval is how many entries of a block lie between two seek
// points, RocksDB's block_restart_interval: every seekInterval-th entry
// of a block is one.
const seekInterval = 16

// seekPoint is an entry a lookup may start its block search at: its key
// and the byte offset of its header in the block.
type seekPoint struct {
	key []byte
	off int
}

// blockIndex is what the index knows of one block beyond its first key.
type blockIndex struct {
	// seekEnd ends the block's seek points: they are seeks[s:seekEnd],
	// where s is the previous block's seekEnd (0 for block 0).
	seekEnd int
	// cont marks a continuation: the block's first entry has the same
	// key as the previous block's last entry.
	cont bool
}

// keyArenaChunk sizes the chunks of a table's key arena.
const keyArenaChunk = 4 << 10

// keyArena hands out copies of keys carved from shared chunks, so a
// table's index costs an allocation per chunk rather than per key. A
// full chunk is abandoned, not grown, so earlier copies stay valid.
type keyArena struct{ buf []byte }

func (a *keyArena) copy(k []byte) []byte {
	if cap(a.buf)-len(a.buf) < len(k) {
		a.buf = make([]byte, 0, max(keyArenaChunk, len(k)))
	}
	off := len(a.buf)
	a.buf = append(a.buf, k...)
	return a.buf[off:len(a.buf):len(a.buf)]
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

// blockFor returns the index of the block holding key's newest version
// if the table has key at all, or -1 when key sorts before the table.
// That is the last block whose first key is ≤ key, unless key is the
// first key of a continuation block: versions of a key are stored newest
// first, so when they straddle a block boundary the newer ones end the
// block before, and the lookup steps back over the continuation.
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
	for ans > 0 && ans < len(t.blocks) && t.blocks[ans].cont && bytes.Equal(t.FirstKeys[ans], key) {
		ans--
	}
	return ans
}

// seekFrom returns where the search of block b for key may start: the
// offset of the block's last seek point whose key is strictly less than
// key, or 0. Strictly, because a point holding key itself may have a
// newer version of key before it; a point below key has every version
// of key after it.
func (t *TableMeta) seekFrom(b int, key []byte) int {
	if b < 0 || b >= len(t.blocks) {
		return 0
	}
	start := 0
	if b > 0 {
		start = t.blocks[b-1].seekEnd
	}
	pts := t.seeks[start:t.blocks[b].seekEnd]
	// Find the first point whose key is ≥ key; the one before it is the
	// answer.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(pts[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return pts[lo-1].off
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
// Each table flush is atomic (Commit). Any failure — iter stopping on a
// read error, or a CreateTable, Append or Commit error — leaves the
// outputs built so far holding a truncated build: they are discarded
// (open writer aborted, committed tables deleted) and the error is
// returned with no tables, so the caller's inputs remain the only copy
// and nothing is left behind on the Env.
func buildTables(env Env, now vclock.Time, iter entryIterator, bitsPerKey int, dropDeletes bool) ([]*TableMeta, vclock.Time, error) {
	blockSize := env.BlockSize()
	maxBlocks := env.MaxTableBlocks()
	var metas []*TableMeta
	end := now

	var (
		w          TableWriter
		meta       *TableMeta
		keys       keyArena // the current table's index keys
		hashes     []uint32 // bloom hashes of the current table's keys
		block      []byte
		padded     []byte // reusable full-block staging buffer
		blockFirst []byte
		blockCont  bool // the current block continues the previous one's last key
		blockLen   int  // entries in the current block
		err        error
	)
	// discard is every error return: best-effort release of the partial
	// outputs, since the error that stopped the build is what the caller
	// needs to see.
	discard := func(err error) ([]*TableMeta, vclock.Time, error) {
		if w != nil {
			end, _ = w.Abort(end)
		}
		for _, m := range metas {
			end, _ = env.DeleteTable(end, m.Handle)
		}
		return nil, end, err
	}
	create := func(first []byte) error {
		var err error
		if w, err = env.CreateTable(end); err != nil {
			w = nil
			return err
		}
		keys = keyArena{}
		meta = &TableMeta{Smallest: keys.copy(first)}
		return nil
	}
	startBlock := func(first []byte) {
		blockFirst = keys.copy(first)
		blockCont = len(meta.FirstKeys) > 0 && bytes.Equal(first, meta.Largest)
		blockLen = 0
	}
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
		meta.blocks = append(meta.blocks, blockIndex{seekEnd: len(meta.seeks), cont: blockCont})
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
			if err := create(e.Key); err != nil {
				return discard(err)
			}
		}
		if len(block) == 0 {
			startBlock(e.Key)
		}
		off := len(block)
		block, err = appendEntry(block, e, blockSize)
		if errors.Is(err, errBlockFull) {
			if err := flushBlock(); err != nil {
				return discard(err)
			}
			if len(meta.FirstKeys) >= maxBlocks {
				if err := finishTable(); err != nil {
					return discard(err)
				}
				if err := create(e.Key); err != nil {
					return discard(err)
				}
			}
			startBlock(e.Key)
			off = 0
			if block, err = appendEntry(block, e, blockSize); err != nil {
				return discard(fmt.Errorf("lsm: entry larger than a block: %w", err))
			}
		} else if err != nil {
			return discard(err)
		}
		if blockLen > 0 && blockLen%seekInterval == 0 {
			meta.seeks = append(meta.seeks, seekPoint{key: keys.copy(e.Key), off: off})
		}
		blockLen++
		meta.Entries++
		meta.Largest = append(meta.Largest[:0], e.Key...)
		hashes = append(hashes, bloomHash(e.Key))
	}
	if err := iter.err(); err != nil {
		return discard(err)
	}
	if err := finishTable(); err != nil {
		return discard(err)
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
