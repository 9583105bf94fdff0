package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/vclock"
)

// ErrNotFound is returned by Get for absent or deleted keys.
var ErrNotFound = errors.New("lsm: not found")

// Options tunes the tree. Zero values select defaults.
type Options struct {
	Env Env
	// MemtableBytes triggers a flush (default 4 MB).
	MemtableBytes int64
	// L0CompactTrigger is the L0 file count that starts compaction (4).
	L0CompactTrigger int
	// L0StallTrigger is the L0 file count at which writers stall (8) —
	// RocksDB's stop-writes threshold, the source of Figure 6's
	// throughput fluctuation.
	L0StallTrigger int
	// L1TargetBytes caps L1 before spilling into L2 (default 4 tables).
	L1TargetBytes int64
	// BloomBitsPerKey sizes table filters (10).
	BloomBitsPerKey int
	// RateLimitMBps throttles flush+compaction writes, like RocksDB's
	// rate limiter (0 = unlimited).
	RateLimitMBps float64
	// CPUPerOp is the host CPU cost of a memtable insert or probe (2µs).
	CPUPerOp vclock.Duration
	// FlushWorkers is the number of concurrent background flushes
	// (RocksDB max_background_flushes; default 4). Parallel flushes are
	// what let vertical placement scale across groups.
	FlushWorkers int
	// MaxImmutables bounds queued immutable memtables before writers
	// stall (RocksDB max_write_buffer_number; default FlushWorkers+1).
	MaxImmutables int
	// CompactWorkers is the number of concurrent compactions (2).
	CompactWorkers int
	// Seed drives skiplist height choices.
	Seed int64
	// Lookup, when set, resolves a positive table probe inside the
	// device (OpOffloadGet): instead of reading the block over the host
	// link and searching it host-side, the device searches block in
	// place and returns only the value. Bloom probe and block-index
	// lookup stay host-side either way (table metadata lives in
	// controller RAM). The returned value is copied out before the DB
	// makes another Env call. Nil selects the host-side path.
	Lookup func(now vclock.Time, h TableHandle, block int, key []byte) (value []byte, del, found bool, end vclock.Time, err error)
	// Compactor, when set, runs table merges inside the device
	// (OpOffloadCompact): inputs are merged newest-first device-side
	// and only the output tables' metadata crosses the host link. The
	// outputs must be bit-identical to the host-side merge of the same
	// inputs (MergeTables guarantees this). Nil selects the host-side
	// path.
	Compactor func(now vclock.Time, inputs []TableHandle, bitsPerKey int, dropDeletes bool) ([]*TableMeta, vclock.Time, error)
}

func (o *Options) fill() error {
	if o.Env == nil {
		return errors.New("lsm: options need an Env")
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.L0CompactTrigger <= 0 {
		o.L0CompactTrigger = 4
	}
	if o.L0StallTrigger <= 0 {
		o.L0StallTrigger = 2 * o.L0CompactTrigger
	}
	if o.L1TargetBytes <= 0 {
		o.L1TargetBytes = 4 * int64(o.Env.BlockSize()) * int64(o.Env.MaxTableBlocks())
	}
	if o.BloomBitsPerKey <= 0 {
		o.BloomBitsPerKey = 10
	}
	if o.CPUPerOp <= 0 {
		o.CPUPerOp = 2 * vclock.Microsecond
	}
	if o.FlushWorkers <= 0 {
		o.FlushWorkers = 4
	}
	if o.MaxImmutables <= 0 {
		o.MaxImmutables = o.FlushWorkers + 1
	}
	if o.CompactWorkers <= 0 {
		o.CompactWorkers = 2
	}
	return nil
}

// Stats aggregates tree activity.
type Stats struct {
	Puts, Gets, Deletes          int64
	Flushes                      int64
	Compactions                  int64
	BytesFlushed                 int64
	BytesCompacted               int64
	BlockReads                   int64
	BloomSkips                   int64
	TrivialMoves                 int64
	StallTime                    vclock.Duration
	TablesL0, TablesL1, TablesL2 int
}

// DB is the LSM tree. Methods take and return virtual time; the zero
// time is the epoch. DB methods are safe for concurrent use, though the
// deterministic experiment drivers call them from one goroutine.
type DB struct {
	opts Options
	env  Env

	mu           sync.Mutex
	seq          uint64
	mem          *skiplist
	imms         []immEntry   // flushing memtables, newest first
	l0           []*TableMeta // newest first
	l1           []*TableMeta // sorted, non-overlapping
	l2           []*TableMeta // sorted, non-overlapping
	flushPool    *vclock.Pool
	compactPool  *vclock.Pool
	rate         *vclock.Resource
	compactEnd   vclock.Time
	lastFlushEnd vclock.Time
	l1Cursor     int
	stats        Stats

	// lookup resolves a positive table probe: it charges the read of one
	// whole block and appends the key's value to dst[:0]. Open binds it
	// once — to Options.Lookup, else to the Env's BlockSearcher, else to
	// readAndSearch — so searchTable has one call site.
	lookup func(now vclock.Time, h TableHandle, block int, key, dst []byte) (value []byte, del, found bool, end vclock.Time, err error)
	// readBuf and search serve readAndSearch only (guarded by mu); the
	// block buffer is never allocated when lookups go elsewhere.
	readBuf []byte
	search  BlockSearch
}

// immEntry is a memtable whose flush completes at end (virtual time).
type immEntry struct {
	table *skiplist
	end   vclock.Time
}

// Open creates an empty tree over the environment.
func Open(opts Options) (*DB, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	db := &DB{
		opts:        opts,
		env:         opts.Env,
		mem:         newSkiplist(opts.Seed),
		flushPool:   vclock.NewPool("lsm-flush", opts.FlushWorkers),
		compactPool: vclock.NewPool("lsm-compact", opts.CompactWorkers),
	}
	if opts.RateLimitMBps > 0 {
		db.rate = vclock.NewResource("lsm-rate")
	}
	if offloaded := opts.Lookup; offloaded != nil {
		// Offloaded probe: the device searches the block in place and
		// only the value crosses the host link.
		db.lookup = func(now vclock.Time, h TableHandle, block int, key, dst []byte) ([]byte, bool, bool, vclock.Time, error) {
			v, del, found, end, err := offloaded(now, h, block, key)
			if err != nil || !found || del {
				return nil, del, found, end, err
			}
			return append(dst[:0], v...), false, true, end, nil
		}
	} else if s, ok := opts.Env.(BlockSearcher); ok {
		db.lookup = s.SearchBlock
	} else {
		db.lookup = db.readAndSearch
	}
	return db, nil
}

// Stats returns a snapshot of tree statistics.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.stats
	s.TablesL0, s.TablesL1, s.TablesL2 = len(db.l0), len(db.l1), len(db.l2)
	return s
}

// Levels reports the current table counts per level (L0, L1, L2).
func (db *DB) Levels() [3]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return [3]int{len(db.l0), len(db.l1), len(db.l2)}
}

// Put stores key→value. The returned time includes any write stall.
func (db *DB) Put(now vclock.Time, key, value []byte) (vclock.Time, error) {
	return db.write(now, key, value, false)
}

// Delete writes a tombstone for key.
func (db *DB) Delete(now vclock.Time, key []byte) (vclock.Time, error) {
	return db.write(now, key, nil, true)
}

func (db *DB) write(now vclock.Time, key, value []byte, del bool) (vclock.Time, error) {
	if len(key) == 0 {
		return now, errors.New("lsm: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	now = now.Add(db.opts.CPUPerOp)
	db.seq++
	db.mem.insert(key, db.seq, value, del)
	if del {
		db.stats.Deletes++
	} else {
		db.stats.Puts++
	}
	if db.mem.size >= db.opts.MemtableBytes {
		var err error
		if now, err = db.rotateLocked(now); err != nil {
			return now, err
		}
	}
	return now, nil
}

// rotateLocked turns the active memtable into an immutable one and
// flushes it in the background. The caller's clock advances only when
// it must stall: too many queued immutable memtables, or too many L0
// files (RocksDB's stop-writes conditions).
func (db *DB) rotateLocked(now vclock.Time) (vclock.Time, error) {
	// Prune memtables whose flushes have completed by now.
	keep := db.imms[:0]
	for _, im := range db.imms {
		if im.end > now {
			keep = append(keep, im)
		}
	}
	db.imms = keep
	if len(db.imms) >= db.opts.MaxImmutables {
		// All write buffers are full: stall until the earliest pending
		// flush completes.
		earliest := db.imms[0].end
		for _, im := range db.imms[1:] {
			if im.end < earliest {
				earliest = im.end
			}
		}
		db.stats.StallTime += earliest.Sub(now)
		now = earliest
		keep = db.imms[:0]
		for _, im := range db.imms {
			if im.end > now {
				keep = append(keep, im)
			}
		}
		db.imms = keep
	}
	if len(db.l0) >= db.opts.L0StallTrigger && db.compactEnd > now {
		// Too many L0 files: stop writes until compaction catches up.
		db.stats.StallTime += db.compactEnd.Sub(now)
		now = db.compactEnd
	}
	imm := db.mem
	db.mem = newSkiplist(db.opts.Seed + int64(db.seq))

	// Execute the flush inline, accounting its time on a flush worker.
	start := vclock.Max(now, db.flushPool.NextFree())
	clock := start
	var entries []Entry
	for n := imm.first(); n != nil; n = n.next[0] {
		entries = append(entries, Entry{Key: n.key, Seq: n.seq, Value: n.value, Del: n.del})
	}
	metas, end, err := buildTables(db.env, clock, &sliceIterator{entries: entries}, db.opts.BloomBitsPerKey, false)
	if err != nil {
		return now, fmt.Errorf("lsm: flush: %w", err)
	}
	var bytesOut int64
	for _, m := range metas {
		bytesOut += m.Bytes
	}
	if db.rate != nil {
		_, rEnd := db.rate.Acquire(start, vclock.DurationFor(bytesOut, db.opts.RateLimitMBps))
		end = vclock.Max(end, rEnd)
	}
	db.flushPool.Acquire(start, end.Sub(start))
	// Newest tables first in L0.
	db.l0 = append(append([]*TableMeta(nil), metas...), db.l0...)
	db.imms = append([]immEntry{{table: imm, end: end}}, db.imms...)
	db.lastFlushEnd = end
	db.stats.Flushes++
	db.stats.BytesFlushed += bytesOut

	return now, db.maybeCompactLocked(now)
}

// Flush forces the active memtable out (used by benchmarks to settle).
func (db *DB) Flush(now vclock.Time) (vclock.Time, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.mem.count == 0 {
		return now, nil
	}
	now, err := db.rotateLocked(now)
	if err != nil {
		return now, err
	}
	if db.lastFlushEnd > now {
		now = db.lastFlushEnd
	}
	db.imms = nil
	return now, nil
}

// WaitIdle advances the clock past all background work (benchmarks).
func (db *DB) WaitIdle(now vclock.Time) vclock.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	now = vclock.Max(now, db.lastFlushEnd)
	now = vclock.Max(now, db.compactEnd)
	return now
}

// maybeCompactLocked runs the leveled compaction policy.
func (db *DB) maybeCompactLocked(now vclock.Time) error {
	if len(db.l0) >= db.opts.L0CompactTrigger {
		if err := db.compactL0Locked(now); err != nil {
			return err
		}
	}
	var l1Bytes int64
	for _, t := range db.l1 {
		l1Bytes += t.Bytes
	}
	if l1Bytes > db.opts.L1TargetBytes && len(db.l1) > 0 {
		if err := db.compactL1Locked(now); err != nil {
			return err
		}
	}
	return nil
}

// compactL0Locked first moves every L0 table that overlaps neither its
// L0 siblings nor L1 straight into L1 (a trivial move, no I/O — the
// optimization that makes sequential fills cheap in RocksDB), then
// merges whatever remains with the overlapping L1 tables.
func (db *DB) compactL0Locked(now vclock.Time) error {
	var moved, staying []*TableMeta
	for i, t := range db.l0 {
		clean := true
		for j, o := range db.l0 {
			if i != j && t.Overlaps(o.Smallest, o.Largest) {
				clean = false
				break
			}
		}
		if clean {
			for _, o := range db.l1 {
				if t.Overlaps(o.Smallest, o.Largest) {
					clean = false
					break
				}
			}
		}
		if clean {
			moved = append(moved, t)
		} else {
			staying = append(staying, t)
		}
	}
	if len(moved) > 0 {
		db.l1 = append(db.l1, moved...)
		sort.Slice(db.l1, func(i, j int) bool {
			return bytes.Compare(db.l1[i].Smallest, db.l1[j].Smallest) < 0
		})
		db.l0 = staying
		db.stats.TrivialMoves += int64(len(moved))
	}
	if len(db.l0) < db.opts.L0CompactTrigger {
		return nil
	}
	inputs := append([]*TableMeta(nil), db.l0...) // newest first
	var lo, hi []byte
	for _, t := range inputs {
		if lo == nil || bytes.Compare(t.Smallest, lo) < 0 {
			lo = t.Smallest
		}
		if hi == nil || bytes.Compare(t.Largest, hi) > 0 {
			hi = t.Largest
		}
	}
	var keepL1, inL1 []*TableMeta
	for _, t := range db.l1 {
		if t.Overlaps(lo, hi) {
			inL1 = append(inL1, t)
		} else {
			keepL1 = append(keepL1, t)
		}
	}
	start := vclock.Max(now, db.compactPool.NextFree())
	merged := append(append([]*TableMeta(nil), inputs...), inL1...)
	metas, end, err := db.mergeLocked(start, merged, false)
	if err != nil {
		return fmt.Errorf("lsm: L0 compaction: %w", err)
	}
	clock := end
	var bytesOut int64
	for _, m := range metas {
		bytesOut += m.Bytes
	}
	if db.rate != nil {
		_, rEnd := db.rate.Acquire(start, vclock.DurationFor(bytesOut, db.opts.RateLimitMBps))
		clock = vclock.Max(clock, rEnd)
	}
	// Delete inputs (chunk resets on LightLSM: §4.3 "Each SSTable
	// deletion only causes chunk erases").
	for _, t := range merged {
		if clock, err = db.env.DeleteTable(clock, t.Handle); err != nil {
			return err
		}
	}
	db.compactPool.Acquire(start, clock.Sub(start))
	db.compactEnd = vclock.Max(db.compactEnd, clock)
	db.l0 = nil
	db.l1 = append(keepL1, metas...)
	sort.Slice(db.l1, func(i, j int) bool {
		return bytes.Compare(db.l1[i].Smallest, db.l1[j].Smallest) < 0
	})
	db.stats.Compactions++
	db.stats.BytesCompacted += bytesOut
	return nil
}

// compactL1Locked spills one L1 table (round-robin) into L2, dropping
// tombstones at the bottom.
func (db *DB) compactL1Locked(now vclock.Time) error {
	if len(db.l1) == 0 {
		return nil
	}
	db.l1Cursor %= len(db.l1)
	victim := db.l1[db.l1Cursor]
	rest := append([]*TableMeta(nil), db.l1[:db.l1Cursor]...)
	rest = append(rest, db.l1[db.l1Cursor+1:]...)

	var keepL2, inL2 []*TableMeta
	for _, t := range db.l2 {
		if t.Overlaps(victim.Smallest, victim.Largest) {
			inL2 = append(inL2, t)
		} else {
			keepL2 = append(keepL2, t)
		}
	}
	start := vclock.Max(now, db.compactPool.NextFree())
	merged := append([]*TableMeta{victim}, inL2...)
	metas, end, err := db.mergeLocked(start, merged, true)
	if err != nil {
		return fmt.Errorf("lsm: L1 compaction: %w", err)
	}
	clock := end
	var bytesOut int64
	for _, m := range metas {
		bytesOut += m.Bytes
	}
	if db.rate != nil {
		_, rEnd := db.rate.Acquire(start, vclock.DurationFor(bytesOut, db.opts.RateLimitMBps))
		clock = vclock.Max(clock, rEnd)
	}
	for _, t := range merged {
		if clock, err = db.env.DeleteTable(clock, t.Handle); err != nil {
			return err
		}
	}
	db.compactPool.Acquire(start, clock.Sub(start))
	db.compactEnd = vclock.Max(db.compactEnd, clock)
	db.l1 = rest
	db.l1Cursor++
	db.l2 = append(keepL2, metas...)
	sort.Slice(db.l2, func(i, j int) bool {
		return bytes.Compare(db.l2[i].Smallest, db.l2[j].Smallest) < 0
	})
	db.stats.Compactions++
	db.stats.BytesCompacted += bytesOut
	return nil
}

// mergeLocked merges inputs (newest first) into fresh tables starting
// at start, either host-side — streaming every input block over the
// environment and rebuilding outputs locally — or through the
// Compactor offload hook, which runs the same merge inside the device
// and returns only the output metadata. Both paths produce identical
// tables; they differ in where the merge executes and what crosses the
// host link.
func (db *DB) mergeLocked(start vclock.Time, inputs []*TableMeta, dropDeletes bool) ([]*TableMeta, vclock.Time, error) {
	if db.opts.Compactor != nil {
		hs := make([]TableHandle, len(inputs))
		for i, t := range inputs {
			hs[i] = t.Handle
		}
		return db.opts.Compactor(start, hs, db.opts.BloomBitsPerKey, dropDeletes)
	}
	clock := start
	its := make([]entryIterator, 0, len(inputs))
	for _, t := range inputs {
		its = append(its, newTableIterator(db.env, t, &clock))
	}
	return buildTables(db.env, clock, newDedupIterator(newMergeIterator(its)),
		db.opts.BloomBitsPerKey, dropDeletes)
}

// Get returns the newest value for key. Each table probe costs a bloom
// check; a positive probe reads one whole block — the paper's config
// (no block cache, no compression) makes every random read at least one
// 96 KB block transfer.
func (db *DB) Get(now vclock.Time, key []byte) ([]byte, vclock.Time, error) {
	return db.GetInto(now, key, nil)
}

// GetInto is Get with a caller-owned result buffer: the value is
// copied into dst (grown as needed, capacity reused), so steady-state
// read loops allocate nothing. On a miss the returned slice is nil.
func (db *DB) GetInto(now vclock.Time, key, dst []byte) ([]byte, vclock.Time, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	now = now.Add(db.opts.CPUPerOp)
	snapshot := db.seq
	db.stats.Gets++

	if v, del, found := db.mem.get(key, snapshot); found {
		return db.answer(v, del, now, dst)
	}
	for _, im := range db.imms {
		if im.end <= now {
			continue // flush already completed: the table serves it
		}
		if v, del, found := im.table.get(key, snapshot); found {
			return db.answer(v, del, now, dst)
		}
	}
	// L0: newest first, ranges overlap.
	for _, t := range db.l0 {
		v, del, found, end, err := db.searchTable(now, t, key, dst)
		if err != nil {
			return nil, end, err
		}
		now = end
		if found {
			return tableAnswer(v, del, now)
		}
	}
	for _, level := range [][]*TableMeta{db.l1, db.l2} {
		idx := sort.Search(len(level), func(i int) bool {
			return bytes.Compare(level[i].Largest, key) >= 0
		})
		if idx < len(level) && level[idx].Overlaps(key, key) {
			v, del, found, end, err := db.searchTable(now, level[idx], key, dst)
			if err != nil {
				return nil, end, err
			}
			now = end
			if found {
				return tableAnswer(v, del, now)
			}
		}
	}
	return nil, now, ErrNotFound
}

// answer copies a memtable hit into dst.
func (db *DB) answer(v []byte, del bool, now vclock.Time, dst []byte) ([]byte, vclock.Time, error) {
	if del {
		return nil, now, ErrNotFound
	}
	if cap(dst) < len(v) {
		dst = make([]byte, len(v))
	} else {
		dst = dst[:len(v)]
	}
	copy(dst, v)
	return dst, now, nil
}

// tableAnswer returns a table hit: the lookup already left the value in
// the caller's buffer.
func tableAnswer(v []byte, del bool, now vclock.Time) ([]byte, vclock.Time, error) {
	if del {
		return nil, now, ErrNotFound
	}
	return v, now, nil
}

// searchTable probes one table for key; a found value is appended to
// dst[:0].
func (db *DB) searchTable(now vclock.Time, t *TableMeta, key, dst []byte) (v []byte, del, found bool, end vclock.Time, err error) {
	now = now.Add(200) // bloom probe CPU
	if !t.Filter.mayContain(key) {
		db.stats.BloomSkips++
		return nil, false, false, now, nil
	}
	blockIdx := t.blockFor(key)
	if blockIdx < 0 {
		return nil, false, false, now, nil
	}
	v, del, found, end, err = db.lookup(now, t.Handle, blockIdx, key, dst)
	if err != nil {
		return nil, false, false, end, err
	}
	db.stats.BlockReads++
	return v, del, found, end, nil
}

// readAndSearch is the lookup of an Env that can only hand blocks over:
// the block is copied into the DB's buffer (over a fabric it really
// crosses a wire) and searched there as one segment.
func (db *DB) readAndSearch(now vclock.Time, h TableHandle, block int, key, dst []byte) (v []byte, del, found bool, end vclock.Time, err error) {
	if len(db.readBuf) < db.env.BlockSize() {
		db.readBuf = make([]byte, db.env.BlockSize())
	}
	end, err = db.env.ReadBlock(now, h, block, db.readBuf)
	if err != nil {
		return nil, false, false, end, err
	}
	db.search.Reset(key, dst)
	db.search.Feed(db.readBuf)
	v, del, found = db.search.Result()
	return v, del, found, end, nil
}

// Iterator streams live keys in order, merging all levels. It snapshots
// the table lists at creation; block read time accrues to the clock
// passed to Next.
type Iterator struct {
	db    *DB
	merge *dedupIterator
	clock *vclock.Time
}

// NewIterator opens an iterator at the current version. The iterator
// shares *clock: every block read advances it.
func (db *DB) NewIterator(clock *vclock.Time) *Iterator {
	db.mu.Lock()
	defer db.mu.Unlock()
	var its []entryIterator
	its = append(its, &memIterator{node: db.mem.first()})
	for _, im := range db.imms {
		if im.end <= *clock {
			continue // flush already completed: its table is in L0
		}
		its = append(its, &memIterator{node: im.table.first()})
	}
	for _, t := range db.l0 {
		its = append(its, newTableIterator(db.env, t, clock))
	}
	for _, level := range [][]*TableMeta{db.l1, db.l2} {
		for _, t := range level {
			its = append(its, newTableIterator(db.env, t, clock))
		}
	}
	return &Iterator{db: db, merge: newDedupIterator(newMergeIterator(its)), clock: clock}
}

// Next returns the next live key/value; ok=false at the end, or when a
// block read failed — Err tells the two apart. The returned slices are
// zero-copy views into the iterator's buffers and stay valid only until
// the next call — copy them to retain.
func (it *Iterator) Next() (key, value []byte, ok bool) {
	for {
		e, more := it.merge.next()
		if !more {
			return nil, nil, false
		}
		*it.clock = it.clock.Add(it.db.opts.CPUPerOp)
		if e.Del {
			continue
		}
		return e.Key, e.Value, true
	}
}

// Err returns the block-read error that ended the scan early, or nil
// if Next reported false because every live key was returned.
func (it *Iterator) Err() error { return it.merge.err() }

// memIterator walks a skiplist.
type memIterator struct {
	node *slNode
}

func (m *memIterator) next() (Entry, bool) {
	if m.node == nil {
		return Entry{}, false
	}
	n := m.node
	m.node = n.next[0]
	return Entry{Key: n.key, Seq: n.seq, Value: n.value, Del: n.del}, true
}

func (m *memIterator) err() error { return nil }
