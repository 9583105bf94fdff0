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

// searchBlockRef is the contiguous block search BlockSearch replaced,
// kept as the reference the segment-fed search is checked against.
func searchBlockRef(block, key []byte) (value []byte, del, found bool) {
	off := 0
	for off+entryHeader <= len(block) {
		keyLen := int(binary.LittleEndian.Uint16(block[off:]))
		if keyLen == 0 {
			break
		}
		fv := binary.LittleEndian.Uint32(block[off+2:])
		valLen := int(fv &^ delFlag)
		off += entryHeader
		if off+keyLen+valLen > len(block) {
			break // torn block
		}
		if bytes.Equal(block[off:off+keyLen], key) {
			off += keyLen
			if fv&delFlag != 0 {
				return nil, true, true
			}
			return block[off : off+valLen : off+valLen], false, true
		}
		off += keyLen + valLen
	}
	return nil, false, false
}

// searchSegments feeds block to s cut at the given lengths (the rest as
// one last segment) and returns the result.
func searchSegments(s *BlockSearch, block, key, dst []byte, cuts []int) ([]byte, bool, bool) {
	s.Reset(key, dst)
	rest := block
	for _, n := range cuts {
		n = min(n, len(rest))
		s.Feed(rest[:n])
		rest = rest[n:]
	}
	s.Feed(rest)
	return s.Result()
}

func checkSegments(t *testing.T, s *BlockSearch, block, key []byte, cuts []int) {
	t.Helper()
	wantV, wantDel, wantFound := searchBlockRef(block, key)
	for _, dst := range [][]byte{nil, make([]byte, 3, 8)} {
		v, del, found := searchSegments(s, block, key, dst, cuts)
		if found != wantFound || del != wantDel || !bytes.Equal(v, wantV) {
			t.Fatalf("key %q cuts %v: got (%d bytes, del %v, found %v), reference (%d bytes, del %v, found %v)",
				key, cuts, len(v), del, found, len(wantV), wantDel, wantFound)
		}
	}
}

// searchCorpus is one block exercising every rule of the format: live
// entries, an empty value, a tombstone and the zero-keyLen terminator
// with padding behind it. The returned offsets are where each entry's
// header starts.
func searchCorpus(t testing.TB) (block []byte, starts []int) {
	t.Helper()
	entries := []Entry{
		{Key: []byte("apple"), Seq: 9, Value: bytes.Repeat([]byte{0xa1}, 40)},
		{Key: []byte("apple"), Seq: 4, Value: []byte("older")},
		{Key: []byte("berry"), Seq: 7, Del: true},
		{Key: []byte("cherry"), Seq: 3, Value: nil},
		{Key: []byte("damson"), Seq: 2, Value: bytes.Repeat([]byte{0xd4}, 25)},
	}
	var err error
	for _, e := range entries {
		starts = append(starts, len(block))
		if block, err = appendEntry(block, e, 1<<10); err != nil {
			t.Fatal(err)
		}
	}
	starts = append(starts, len(block))
	block = append(block, make([]byte, 32)...) // terminator and padding
	return block, starts
}

var searchKeys = [][]byte{
	[]byte("apple"), []byte("berry"), []byte("cherry"), []byte("damson"),
	[]byte("absent"), []byte("apples"), []byte("appl"), nil,
}

// TestSearchSegmentsEverySplit cuts the corpus block at every offset,
// and feeds it a byte at a time: a header, key or value straddling a
// segment boundary must not change the answer.
func TestSearchSegmentsEverySplit(t *testing.T) {
	block, _ := searchCorpus(t)
	torn := block[:len(block)-32-7] // the last entry's value cut short
	var s BlockSearch
	for _, b := range [][]byte{block, torn} {
		bytewise := make([]int, len(b))
		for i := range bytewise {
			bytewise[i] = 1
		}
		for _, key := range searchKeys {
			checkSegments(t, &s, b, key, nil)
			checkSegments(t, &s, b, key, bytewise)
			for cut := 0; cut <= len(b); cut++ {
				checkSegments(t, &s, b, key, []int{cut})
			}
		}
	}
	// The torn entry is the match: the value started arriving but the
	// block ended inside it.
	if _, _, found := searchSegments(&s, torn, []byte("damson"), nil, []int{len(torn) - 3}); found {
		t.Fatal("a torn entry was reported found")
	}
}

// FuzzSearchSegments: for arbitrary block bytes and arbitrary split
// points, the segment-fed search returns exactly what the contiguous
// reference returns.
func FuzzSearchSegments(f *testing.F) {
	block, starts := searchCorpus(f)
	cutAt := func(offs ...int) []byte {
		// Encode absolute offsets as successive segment lengths.
		out := make([]byte, 0, 2*len(offs))
		prev := 0
		for _, o := range offs {
			out = binary.LittleEndian.AppendUint16(out, uint16(o-prev))
			prev = o
		}
		return out
	}
	damson := starts[4]
	f.Add(block, []byte("apple"), cutAt(starts[0]+5))                                             // inside a header
	f.Add(block, []byte("apple"), cutAt(starts[0]+entryHeader+2))                                 // inside a key
	f.Add(block, []byte("apple"), cutAt(starts[0]+entryHeader+5+17))                              // inside a value
	f.Add(block, []byte("damson"), cutAt(damson+1, damson+entryHeader+3, damson+entryHeader+6+9)) // all three
	f.Add(block, []byte("berry"), cutAt(starts[2]+entryHeader+1))                                 // a tombstone
	f.Add(block, []byte("zzz"), cutAt(starts[5]+1))                                               // inside the zero-keyLen terminator
	f.Add(block[:damson+entryHeader+6+10], []byte("damson"), cutAt(damson+entryHeader))           // torn last entry
	f.Add([]byte{}, []byte("k"), []byte{})
	f.Fuzz(func(t *testing.T, block, key, cutBytes []byte) {
		var cuts []int
		for ; len(cutBytes) >= 2; cutBytes = cutBytes[2:] {
			cuts = append(cuts, int(binary.LittleEndian.Uint16(cutBytes)))
		}
		var s BlockSearch
		checkSegments(t, &s, block, key, cuts)
	})
}

// searchingEnv is a MemEnv that can search in place: it feeds the stored
// block to a BlockSearch in uneven segments and counts both paths.
type searchingEnv struct {
	*MemEnv
	search          BlockSearch
	reads, searches int
}

func (e *searchingEnv) ReadBlock(now vclock.Time, h TableHandle, block int, dst []byte) (vclock.Time, error) {
	e.reads++
	return e.MemEnv.ReadBlock(now, h, block, dst)
}

func (e *searchingEnv) SearchBlock(now vclock.Time, h TableHandle, block int, key, dst []byte) ([]byte, bool, bool, vclock.Time, error) {
	e.searches++
	e.mu.Lock()
	blocks, ok := e.tables[h.ID]
	e.mu.Unlock()
	if !ok || block < 0 || block >= len(blocks) {
		return nil, false, false, now, fmt.Errorf("lsm: no block %d in table %d", block, h.ID)
	}
	v, del, found := searchSegments(&e.search, blocks[block], key, dst, []int{1000, 13, 4096, 1})
	return v, del, found, now.Add(e.ReadLatency), nil
}

// TestGetUsesBlockSearcher: over an Env with the optional interface, Get
// answers exactly as over a plain one, at the same virtual instants,
// through SearchBlock only, and the DB never allocates a block buffer.
func TestGetUsesBlockSearcher(t *testing.T) {
	plain := testDB(t, Options{MemtableBytes: 8 * 1024, L0CompactTrigger: 3})
	env := &searchingEnv{MemEnv: NewMemEnv(16*1024, 8)}
	inPlace := testDB(t, Options{Env: env, MemtableBytes: 8 * 1024, L0CompactTrigger: 3})

	rng := rand.New(rand.NewSource(7))
	var nowA, nowB vclock.Time
	for i := 0; i < 1500; i++ {
		k := key(rng.Intn(300))
		var errA, errB error
		if rng.Intn(5) == 0 {
			nowA, errA = plain.Delete(nowA, k)
			nowB, errB = inPlace.Delete(nowB, k)
		} else {
			v := value(rng.Intn(1000))
			nowA, errA = plain.Put(nowA, k, v)
			nowB, errB = inPlace.Put(nowB, k, v)
		}
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
	}
	readsAfterLoad := env.reads // compaction iterators read whole blocks
	var bufA, bufB []byte
	for i := 0; i < 320; i++ {
		var errA, errB error
		bufA, nowA, errA = plain.GetInto(nowA, key(i), bufA)
		bufB, nowB, errB = inPlace.GetInto(nowB, key(i), bufB)
		if !errors.Is(errB, errA) || !bytes.Equal(bufA, bufB) || nowA != nowB {
			t.Fatalf("key %d: plain (%d bytes, %v, t=%d), in place (%d bytes, %v, t=%d)",
				i, len(bufA), errA, nowA, len(bufB), errB, nowB)
		}
		if bufA == nil {
			bufA, bufB = make([]byte, 0, 128), make([]byte, 0, 128)
		}
	}
	if env.searches == 0 || env.reads != readsAfterLoad {
		t.Fatalf("Get made %d searches and %d block reads, want > 0 and 0", env.searches, env.reads-readsAfterLoad)
	}
	if inPlace.readBuf != nil {
		t.Fatal("DB allocated a block buffer although its Env searches in place")
	}
	if a, b := plain.Stats(), inPlace.Stats(); a != b {
		t.Fatalf("stats differ:\nplain    %+v\nin place %+v", a, b)
	}
}

// faultyEnv fails ReadBlock of one block of one table while armed.
type faultyEnv struct {
	*MemEnv
	armed   bool
	table   TableID
	block   int
	deleted []TableID
}

var errInjectedRead = errors.New("injected media read fault")

func (e *faultyEnv) ReadBlock(now vclock.Time, h TableHandle, block int, dst []byte) (vclock.Time, error) {
	if e.armed && h.ID == e.table && block == e.block {
		return now, errInjectedRead
	}
	return e.MemEnv.ReadBlock(now, h, block, dst)
}

func (e *faultyEnv) DeleteTable(now vclock.Time, h TableHandle) (vclock.Time, error) {
	e.deleted = append(e.deleted, h.ID)
	return e.MemEnv.DeleteTable(now, h)
}

// TestCompactionReadErrorKeepsInputs pins the data-loss bug: a read
// fault on block k of one compaction input used to look like the end of
// that table, so the merge came out short and compact deleted the
// inputs. Now the compaction returns the error, deletes no input,
// leaves no partial output behind, and every key stays readable.
func TestCompactionReadErrorKeepsInputs(t *testing.T) {
	env := &faultyEnv{MemEnv: NewMemEnv(4*1024, 8)}
	db := testDB(t, Options{Env: env, MemtableBytes: 16 * 1024, L0CompactTrigger: 4})

	// Three overlapping L0 tables of several blocks each, one short of
	// the compaction trigger.
	const keys = 2000
	perm := rand.New(rand.NewSource(3)).Perm(keys)
	now := vclock.Time(0)
	written := 0
	putUntil := func(done func() bool) {
		t.Helper()
		for !done() {
			if written == keys {
				t.Fatal("key budget exhausted")
			}
			k := perm[written]
			written++
			var err error
			if now, err = db.Put(now, key(k), value(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	putUntil(func() bool { return db.Levels()[0] == 3 })
	if db.Stats().Compactions != 0 {
		t.Fatal("setup compacted early")
	}
	inputs := append([]*TableMeta(nil), db.l0...)
	victim := inputs[1]
	if victim.Handle.Blocks < 3 {
		t.Fatalf("victim table has %d blocks, want ≥ 3", victim.Handle.Blocks)
	}
	env.armed, env.table, env.block = true, victim.Handle.ID, 1

	// The fourth flush triggers the compaction, whose merge hits the
	// fault after consuming block 0 of the victim.
	more := written + 10
	putUntil(func() bool { return written == more })
	_, err := db.Flush(now)
	if !errors.Is(err, errInjectedRead) {
		t.Fatalf("compaction over a failing block returned %v, want the read fault", err)
	}
	for _, in := range inputs {
		for _, id := range env.deleted {
			if id == in.Handle.ID {
				t.Fatalf("input table %d was deleted by the failed compaction", id)
			}
		}
	}
	if got, want := env.TableCount(), db.Levels()[0]; got != want || want < 4 {
		t.Fatalf("env holds %d tables, DB lists %d in L0 (want equal, ≥ 4): partial outputs leaked or inputs lost", got, want)
	}
	if db.Stats().Compactions != 0 {
		t.Fatal("failed compaction was counted as done")
	}

	// A scan over the faulty table stops with the error, not with "end".
	clock := now
	it := db.NewIterator(&clock)
	n := 0
	for {
		if _, _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if !errors.Is(it.Err(), errInjectedRead) || n >= written {
		t.Fatalf("scan returned %d of %d keys with Err %v, want a short scan and the read fault", n, written, it.Err())
	}

	// The fault clears (a transient media error): nothing was lost, and
	// the retried compaction goes through.
	env.armed = false
	readAll := func() {
		t.Helper()
		for _, k := range perm[:written] {
			got, end, err := db.Get(now, key(k))
			if err != nil || !bytes.Equal(got, value(k)) {
				t.Fatalf("key %d after failed compaction: %v", k, err)
			}
			now = end
		}
	}
	readAll()
	if err := func() error { db.mu.Lock(); defer db.mu.Unlock(); return db.maybeCompactLocked(now) }(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Compactions == 0 || db.Levels()[0] != 0 {
		t.Fatalf("retry did not compact: %+v", db.Stats())
	}
	readAll()
}
