// Package lsm is a miniature RocksDB: a log-structured merge tree with a
// skiplist memtable, block-based SSTables with bloom filters, leveled
// compaction, write stalls and a rate limiter. It exists to reproduce
// the paper's db_bench experiments (Figures 5 and 6): the LSM runs over
// an Env, and the LightLSM Env (internal/lightlsm) places SSTables on an
// Open-Channel SSD with horizontal or vertical placement.
//
// All timing is virtual: operations take a vclock.Time and return their
// completion instant. Background work (flush, compaction) executes
// inline but is accounted on dedicated worker resources, so writers
// stall in virtual time exactly when RocksDB would (memtable full, too
// many L0 files).
package lsm

import (
	"fmt"
	"sync"

	"repro/internal/vclock"
)

// TableID identifies an SSTable within an Env.
type TableID uint64

// TableHandle names a stored SSTable.
type TableHandle struct {
	ID     TableID
	Blocks int // number of fixed-size blocks
}

// Env is the storage environment the LSM runs on (§4.2: "LightLSM
// exposes Open-Channel SSDs as a RocksDB environment supporting SSTable
// flush and block reads").
//
// An Env that can search a block where it is stored also implements
// BlockSearcher; DB.Open probes for it once.
type Env interface {
	// BlockSize is the unit of transfer for reads and writes (§4.2: on a
	// dual-plane TLC drive it must be a multiple of 96 KB).
	BlockSize() int
	// MaxTableBlocks is the SSTable capacity in blocks.
	MaxTableBlocks() int
	// CreateTable starts an SSTable flush.
	CreateTable(now vclock.Time) (TableWriter, error)
	// ReadBlock reads one block of a committed table into dst.
	ReadBlock(now vclock.Time, h TableHandle, block int, dst []byte) (vclock.Time, error)
	// DeleteTable releases a table's storage (chunk resets on LightLSM).
	DeleteTable(now vclock.Time, h TableHandle) (vclock.Time, error)
}

// BlockSearcher is the optional capability of an Env that can answer a
// point lookup without handing the block over: SearchBlock charges
// exactly what ReadBlock of the same block charges — the whole block is
// read and transferred in virtual time — but feeds the block to a
// BlockSearch where it lies and copies only key's value, appended to
// dst[:0]. The search starts at byte from of the block, a seek point of
// the table's index (BlockSearch.Reset); the bytes before it are still
// read and charged. When the Env has it, DB.Get uses it and never
// allocates a block buffer; otherwise Get falls back to ReadBlock plus a
// search of the copy, which is what a networked Env must do. It is
// deliberately not part of Env: a wrapper that embeds Env does not
// forward it, and so keeps observing every lookup as a ReadBlock.
type BlockSearcher interface {
	SearchBlock(now vclock.Time, h TableHandle, block, from int, key, dst []byte) (value []byte, del, found bool, end vclock.Time, err error)
}

// TableWriter accumulates the blocks of one SSTable flush and commits
// them atomically.
type TableWriter interface {
	// Append writes the next block (exactly BlockSize bytes).
	Append(now vclock.Time, block []byte) (vclock.Time, error)
	// Commit atomically publishes the table.
	Commit(now vclock.Time) (TableHandle, vclock.Time, error)
	// Abort discards the table.
	Abort(now vclock.Time) (vclock.Time, error)
}

// MemEnv is a RAM-backed Env with a flat per-block latency, used by unit
// tests and as the "POSIX file system" baseline.
type MemEnv struct {
	blockSize    int
	tableBlocks  int
	ReadLatency  vclock.Duration // per block
	WriteLatency vclock.Duration

	mu     sync.Mutex
	nextID TableID
	tables map[TableID][][]byte
}

// NewMemEnv creates a memory environment.
func NewMemEnv(blockSize, tableBlocks int) *MemEnv {
	return &MemEnv{
		blockSize:    blockSize,
		tableBlocks:  tableBlocks,
		ReadLatency:  100 * vclock.Microsecond,
		WriteLatency: 50 * vclock.Microsecond,
		tables:       make(map[TableID][][]byte),
	}
}

// BlockSize implements Env.
func (e *MemEnv) BlockSize() int { return e.blockSize }

// MaxTableBlocks implements Env.
func (e *MemEnv) MaxTableBlocks() int { return e.tableBlocks }

// CreateTable implements Env.
func (e *MemEnv) CreateTable(now vclock.Time) (TableWriter, error) {
	return &memWriter{env: e}, nil
}

type memWriter struct {
	env    *MemEnv
	blocks [][]byte
	done   bool
}

func (w *memWriter) Append(now vclock.Time, block []byte) (vclock.Time, error) {
	if w.done {
		return now, fmt.Errorf("lsm: append to committed table")
	}
	if len(block) != w.env.blockSize {
		return now, fmt.Errorf("lsm: block is %d bytes, want %d", len(block), w.env.blockSize)
	}
	if len(w.blocks) >= w.env.tableBlocks {
		return now, fmt.Errorf("lsm: table overflow (%d blocks)", w.env.tableBlocks)
	}
	cp := make([]byte, len(block))
	copy(cp, block)
	w.blocks = append(w.blocks, cp)
	return now.Add(w.env.WriteLatency), nil
}

func (w *memWriter) Commit(now vclock.Time) (TableHandle, vclock.Time, error) {
	if w.done {
		return TableHandle{}, now, fmt.Errorf("lsm: double commit")
	}
	w.done = true
	e := w.env
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	id := e.nextID
	e.tables[id] = w.blocks
	return TableHandle{ID: id, Blocks: len(w.blocks)}, now, nil
}

func (w *memWriter) Abort(now vclock.Time) (vclock.Time, error) {
	w.done = true
	w.blocks = nil
	return now, nil
}

// ReadBlock implements Env.
func (e *MemEnv) ReadBlock(now vclock.Time, h TableHandle, block int, dst []byte) (vclock.Time, error) {
	e.mu.Lock()
	blocks, ok := e.tables[h.ID]
	e.mu.Unlock()
	if !ok {
		return now, fmt.Errorf("lsm: table %d not found", h.ID)
	}
	if block < 0 || block >= len(blocks) {
		return now, fmt.Errorf("lsm: block %d out of range (table has %d)", block, len(blocks))
	}
	copy(dst, blocks[block])
	return now.Add(e.ReadLatency), nil
}

// DeleteTable implements Env.
func (e *MemEnv) DeleteTable(now vclock.Time, h TableHandle) (vclock.Time, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.tables, h.ID)
	return now, nil
}

// TableCount reports live tables (tests).
func (e *MemEnv) TableCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tables)
}
