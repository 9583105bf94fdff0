package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// TestStraddlingVersionsReadNewest pins the stale read: two versions of
// one key flushed together straddle a block boundary, so the block that
// starts with the key holds only the older one. 1 KB blocks hold eight
// 125-byte entries (14-byte header, 11-byte key, 100-byte value): keys
// 0–6 and the newer version of key 7 fill block 0, and the older
// version opens block 1.
func TestStraddlingVersionsReadNewest(t *testing.T) {
	db := testDB(t, Options{Env: NewMemEnv(1024, 8), MemtableBytes: 1 << 20})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 7; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int{101, 102} {
		if now, err = db.Put(now, key(7), value(v)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = db.Flush(now); err != nil {
		t.Fatal(err)
	}
	if len(db.l0) != 1 || len(db.l0[0].FirstKeys) != 2 || !bytes.Equal(db.l0[0].FirstKeys[1], key(7)) {
		t.Fatalf("setup: want one table whose block 1 starts with key 7, got %d tables", len(db.l0))
	}
	got, _, err := db.Get(now, key(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value(102)) {
		t.Fatalf("got version %d, want 102", got[0]-1)
	}
}

// blockEntries walks a block's entries and returns each header's offset
// and key.
func blockEntries(block []byte) (offs []int, keys [][]byte) {
	off := 0
	for off+entryHeader <= len(block) {
		keyLen := int(binary.LittleEndian.Uint16(block[off:]))
		if keyLen == 0 {
			break
		}
		valLen := int(binary.LittleEndian.Uint32(block[off+2:]) &^ delFlag)
		offs = append(offs, off)
		keys = append(keys, block[off+entryHeader:off+entryHeader+keyLen])
		off += entryHeader + keyLen + valLen
	}
	return offs, keys
}

// checkIndex checks a table's index against its blocks: every seek point
// is the header of the 16k-th entry (k ≥ 1) of its block and holds that
// entry's key, every such entry has one, offsets strictly increase, and
// a block is flagged a continuation exactly when its first key is the
// previous block's last key.
func checkIndex(t *testing.T, env Env, m *TableMeta) (points int) {
	t.Helper()
	if len(m.FirstKeys) != m.Handle.Blocks || len(m.blocks) != m.Handle.Blocks {
		t.Fatalf("table %d: %d blocks, %d first keys, %d index entries", m.Handle.ID, m.Handle.Blocks, len(m.FirstKeys), len(m.blocks))
	}
	buf := make([]byte, env.BlockSize())
	var prevLast []byte
	start := 0
	for b := range m.FirstKeys {
		if _, err := env.ReadBlock(0, m.Handle, b, buf); err != nil {
			t.Fatal(err)
		}
		offs, keys := blockEntries(buf)
		if !bytes.Equal(m.FirstKeys[b], keys[0]) {
			t.Fatalf("table %d block %d: first key %q, block starts with %q", m.Handle.ID, b, m.FirstKeys[b], keys[0])
		}
		if cont := b > 0 && bytes.Equal(keys[0], prevLast); m.blocks[b].cont != cont {
			t.Fatalf("table %d block %d: continuation flag %v, want %v", m.Handle.ID, b, m.blocks[b].cont, cont)
		}
		prevLast = append(prevLast[:0], keys[len(keys)-1]...)
		pts := m.seeks[start:m.blocks[b].seekEnd]
		start = m.blocks[b].seekEnd
		if want := (len(keys) - 1) / seekInterval; len(pts) != want {
			t.Fatalf("table %d block %d: %d seek points for %d entries, want %d", m.Handle.ID, b, len(pts), len(keys), want)
		}
		for k, p := range pts {
			i := (k + 1) * seekInterval
			if p.off != offs[i] || !bytes.Equal(p.key, keys[i]) {
				t.Fatalf("table %d block %d point %d: (%q at %d), entry %d is (%q at %d)", m.Handle.ID, b, k, p.key, p.off, i, keys[i], offs[i])
			}
			if k > 0 && p.off <= pts[k-1].off {
				t.Fatalf("table %d block %d: seek offsets %d then %d", m.Handle.ID, b, pts[k-1].off, p.off)
			}
		}
		points += len(pts)
	}
	if start != len(m.seeks) {
		t.Fatalf("table %d: %d seek points, blocks account for %d", m.Handle.ID, len(m.seeks), start)
	}
	return points
}

// seekWorkload drives db with random puts, deletes and bursts of
// overwrites of one key inside a memtable, on values short enough that
// a 2 KB block holds several seek points, and returns the model of what
// every key should read.
func seekWorkload(t *testing.T, db *DB, seed int64, ops int, now *vclock.Time) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string][]byte)
	for i := 0; i < ops; i++ {
		k := key(rng.Intn(400))
		var err error
		switch r := rng.Intn(20); {
		case r < 3:
			*now, err = db.Delete(*now, k)
			delete(model, string(k))
		case r == 3:
			// A burst: more versions of one key than a seek interval, so
			// versions straddle seek points and block boundaries.
			for n := 10 + rng.Intn(40); n > 0 && err == nil; n-- {
				v := bytes.Repeat([]byte{byte(rng.Intn(250) + 1)}, rng.Intn(24))
				*now, err = db.Put(*now, k, v)
				model[string(k)] = v
			}
		default:
			v := bytes.Repeat([]byte{byte(rng.Intn(250) + 1)}, rng.Intn(48))
			*now, err = db.Put(*now, k, v)
			model[string(k)] = v
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return model
}

func seekDB(t *testing.T, env Env) *DB {
	return testDB(t, Options{Env: env, MemtableBytes: 12 * 1024, L0CompactTrigger: 3, L1TargetBytes: 48 * 1024})
}

// TestSeekPointsLandOnEntries checks the index of every table built by a
// flush, then of every table built by compacting them.
func TestSeekPointsLandOnEntries(t *testing.T) {
	env := NewMemEnv(2048, 8)
	// Flushes pile up in L0 until the test compacts them.
	db := testDB(t, Options{Env: env, MemtableBytes: 12 * 1024, L0CompactTrigger: 1000, L1TargetBytes: 48 * 1024})
	now := vclock.Time(0)
	seekWorkload(t, db, 1, 3000, &now)
	// 100 versions of one key in 45-byte entries span three 2 KB blocks.
	var err error
	for v := 0; v < 100; v++ {
		if now, err = db.Put(now, key(5), bytes.Repeat([]byte{byte(v + 1)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = db.Flush(now); err != nil {
		t.Fatal(err)
	}
	check := func(levels ...[]*TableMeta) (tables, points, conts int) {
		for _, level := range levels {
			for _, m := range level {
				tables++
				points += checkIndex(t, env, m)
				for _, bi := range m.blocks {
					if bi.cont {
						conts++
					}
				}
			}
		}
		return tables, points, conts
	}
	if tables, points, conts := check(db.l0); db.Stats().Compactions != 0 || tables < 2 || points == 0 || conts == 0 {
		t.Fatalf("flushes: %d tables, %d seek points, %d continuation blocks, %d compactions; want ≥ 2, > 0, > 0, 0",
			tables, points, conts, db.Stats().Compactions)
	}

	db.mu.Lock()
	db.opts.L0CompactTrigger = 2
	err = db.maybeCompactLocked(now)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if tables, points, _ := check(db.l0, db.l1, db.l2); db.Stats().Compactions == 0 || len(db.l0) != 0 || tables == 0 || points == 0 {
		t.Fatalf("compaction: %d tables (%d in L0), %d seek points, %d compactions", tables, len(db.l0), points, db.Stats().Compactions)
	}
}

// BenchmarkBlockSearch searches one 96 KB block of 16-byte keys and
// 1 KB values (Figure 5's shape, 93 entries) for each of its keys in
// turn, fed in 4 KB sectors as a device view feeds it, from offset 0
// and from the key's seek point. headers/op is the mean number of entry
// headers the search walks.
func BenchmarkBlockSearch(b *testing.B) {
	const blockSize = 96 << 10
	env := NewMemEnv(blockSize, 1)
	entries := make([]Entry, 93)
	for i := range entries {
		entries[i] = Entry{Key: []byte(fmt.Sprintf("%016d", i)), Seq: uint64(i + 1), Value: bytes.Repeat([]byte{byte(i)}, 1024)}
	}
	metas, _, err := buildTables(env, 0, &sliceIterator{entries: entries}, 10, false)
	if err != nil || len(metas) != 1 || metas[0].Handle.Blocks != 1 {
		b.Fatalf("want one one-block table: %d tables, %v", len(metas), err)
	}
	m := metas[0]
	block := make([]byte, blockSize)
	if _, err := env.ReadBlock(0, m.Handle, 0, block); err != nil {
		b.Fatal(err)
	}
	offs, _ := blockEntries(block)
	for _, seek := range []bool{false, true} {
		name := "from0"
		if seek {
			name = "seek"
		}
		headers := 0
		for i, e := range entries {
			from := 0
			if seek {
				from = m.seekFrom(0, e.Key)
			}
			for _, o := range offs {
				if o >= from && o <= offs[i] {
					headers++
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			var s BlockSearch
			dst := make([]byte, 0, 1024)
			for n := 0; n < b.N; n++ {
				i := n % len(entries)
				from := 0
				if seek {
					from = m.seekFrom(0, entries[i].Key)
				}
				s.Reset(entries[i].Key, dst, from)
				for off := 0; off < blockSize; off += 4096 {
					s.Feed(block[off : off+4096])
				}
				if _, _, found := s.Result(); !found {
					b.Fatalf("key %d not found", i)
				}
			}
			b.ReportMetric(float64(headers)/float64(len(entries)), "headers/op")
		})
	}
}

// TestSeekPathAgreesWithFullSearch runs one workload on twin DBs, then
// strips the seek points from one twin's tables, so its lookups search
// every block from offset 0: both must answer every key with the same
// value, error and virtual instant, and with what the model says. It
// runs over an Env that searches in place and over one that only hands
// blocks over (the DB's readAndSearch fallback).
func TestSeekPathAgreesWithFullSearch(t *testing.T) {
	for _, searching := range []bool{true, false} {
		var envA, envB Env = NewMemEnv(2048, 8), NewMemEnv(2048, 8)
		if searching {
			envA, envB = &searchingEnv{MemEnv: envA.(*MemEnv)}, &searchingEnv{MemEnv: envB.(*MemEnv)}
		}
		seek, full := seekDB(t, envA), seekDB(t, envB)
		var nowA, nowB vclock.Time
		model := seekWorkload(t, seek, 3, 4000, &nowA)
		seekWorkload(t, full, 3, 4000, &nowB)
		if nowA != nowB {
			t.Fatalf("twin workloads ended at %d and %d", nowA, nowB)
		}
		points := 0
		for _, level := range [][]*TableMeta{full.l0, full.l1, full.l2} {
			for _, m := range level {
				points += len(m.seeks)
				m.seeks = nil
				for i := range m.blocks {
					m.blocks[i].seekEnd = 0
				}
			}
		}
		if points == 0 {
			t.Fatal("no table has a seek point")
		}
		var bufA, bufB []byte
		for i := 0; i < 420; i++ {
			k := key(i)
			var errA, errB error
			bufA, nowA, errA = seek.GetInto(nowA, k, bufA)
			bufB, nowB, errB = full.GetInto(nowB, k, bufB)
			if !errors.Is(errA, errB) || !bytes.Equal(bufA, bufB) || nowA != nowB {
				t.Fatalf("searching=%v key %d: seek path (%d bytes, %v, t=%d), from 0 (%d bytes, %v, t=%d)",
					searching, i, len(bufA), errA, nowA, len(bufB), errB, nowB)
			}
			want, ok := model[string(k)]
			if ok != (errA == nil) || !bytes.Equal(bufA, want) {
				t.Fatalf("searching=%v key %d: got (%d bytes, %v), model (%d bytes, present %v)", searching, i, len(bufA), errA, len(want), ok)
			}
			if bufA == nil {
				bufA, bufB = make([]byte, 0, 64), make([]byte, 0, 64)
			}
		}
		if a, b := seek.Stats(), full.Stats(); a != b {
			t.Fatalf("searching=%v: stats differ:\nseek %+v\nfull %+v", searching, a, b)
		}
		if searching && (envA.(*searchingEnv).seeked == 0 || envB.(*searchingEnv).seeked != 0) {
			t.Fatalf("searches past the first entry: %d with seek points, %d without; want > 0 and 0",
				envA.(*searchingEnv).seeked, envB.(*searchingEnv).seeked)
		}
	}
}
