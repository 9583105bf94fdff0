package hostif

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/vclock"
)

// sstEntries builds one raw SSTable block from alternating keys and
// values; a nil value writes a tombstone.
func sstEntries(size int, kv ...[]byte) []byte {
	b := make([]byte, 0, size)
	for i := 0; i < len(kv); i += 2 {
		k, v := kv[i], kv[i+1]
		fv := uint32(len(v))
		if v == nil {
			fv = 1 << 31
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(k)))
		b = binary.LittleEndian.AppendUint32(b, fv)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(kv)-i))
		b = append(append(b, k...), v...)
	}
	return b[:size]
}

// searchRig is a LightLSM namespace behind a host that charges the host
// link, holding one committed table whose block 1 has entries that
// straddle sector boundaries.
type searchRig struct {
	env *lightlsm.Env
	cli *EnvClient
	h   lsm.TableHandle
	now vclock.Time
}

func newSearchRig(t *testing.T, cfg HostConfig) *searchRig {
	t.Helper()
	ctrl := offloadController(t, nil)
	env, err := lightlsm.New(ctrl, lightlsm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, cfg)
	t.Cleanup(func() { host.Close() })
	cli, err := AttachLSM(host, env)
	if err != nil {
		t.Fatal(err)
	}
	var kv [][]byte
	for i := 0; i < 40; i++ {
		v := bytes.Repeat([]byte{byte(i + 1)}, 1500+i) // crosses a 4 KB sector every third entry
		if i == 17 {
			v = nil
		}
		kv = append(kv, []byte(fmt.Sprintf("key%03d", i)), v)
	}
	filler := sstBlock(env.BlockSize(), "other", "block")
	h, now := commitTable(t, env, 0, filler, sstEntries(env.BlockSize(), kv...), filler)
	return &searchRig{env: env, cli: cli, h: h, now: now}
}

// TestSearchingTableReadCostsWhatCopyingDoes: under ChargeHostLink a
// searching OpTableRead and a copying one of the same block, issued at
// the same instant on twin stacks, complete at the same instant, move
// the same bytes over the host link and leave every counter equal — the
// search only changes what the host really copies. Their answers agree
// with a search of the copied block.
func TestSearchingTableReadCostsWhatCopyingDoes(t *testing.T) {
	copying := newSearchRig(t, HostConfig{ChargeHostLink: true})
	searching := newSearchRig(t, HostConfig{ChargeHostLink: true})
	block := make([]byte, copying.cli.BlockSize())
	var s lsm.BlockSearch
	var dst []byte
	for _, key := range []string{"key000", "key002", "key017", "key039", "key040", "absent"} {
		linkBefore := searching.env.Controller().Stats().BytesHost

		endC, err := copying.cli.ReadBlock(copying.now, copying.h, 1, block)
		if err != nil {
			t.Fatal(err)
		}
		s.Reset([]byte(key), nil, 0)
		s.Feed(block)
		wantV, wantDel, wantFound := s.Result()

		v, del, found, endS, err := searching.cli.SearchBlock(searching.now, searching.h, 1, 0, []byte(key), dst)
		if err != nil {
			t.Fatal(err)
		}
		if found != wantFound || del != wantDel || !bytes.Equal(v, wantV) {
			t.Fatalf("%s: searched in place (%d bytes, del %v, found %v), searching the copy (%d bytes, del %v, found %v)",
				key, len(v), del, found, len(wantV), wantDel, wantFound)
		}
		if found && !del {
			dst = v // the value came back in the caller's buffer
		}
		if endC != endS {
			t.Fatalf("%s: copying read done at %d, searching read at %d", key, endC, endS)
		}
		cs, ss := copying.env.Controller().Stats(), searching.env.Controller().Stats()
		if cs != ss {
			t.Fatalf("%s: controller stats diverge\n copying   %+v\n searching %+v", key, cs, ss)
		}
		if moved := ss.BytesHost - linkBefore; moved != int64(len(block)) {
			t.Fatalf("%s: searching read moved %d bytes over the host link, want the whole block (%d)", key, moved, len(block))
		}
		if copying.env.Stats() != searching.env.Stats() {
			t.Fatalf("%s: lightlsm stats diverge: %+v vs %+v", key, copying.env.Stats(), searching.env.Stats())
		}
		copying.now, searching.now = endC, endS
	}
	// The same errors, too.
	_, errC := copying.cli.ReadBlock(copying.now, copying.h, 3, block)
	_, _, _, _, errS := searching.cli.SearchBlock(searching.now, searching.h, 3, 0, []byte("key000"), nil)
	if errC == nil || errS == nil || errC.Error() != errS.Error() {
		t.Fatalf("out-of-range block: copying %v, searching %v", errC, errS)
	}
}

// TestSearchingTableReadSeeks: a searching OpTableRead that starts at an
// entry header (Command.Seek) answers as a search of the copied block
// from there, at the cost of a search from 0; a Seek outside the block
// is rejected as invalid before the media is touched.
func TestSearchingTableReadSeeks(t *testing.T) {
	fromZero := newSearchRig(t, HostConfig{ChargeHostLink: true})
	seeking := newSearchRig(t, HostConfig{ChargeHostLink: true})
	block := make([]byte, seeking.cli.BlockSize())
	for _, r := range []*searchRig{fromZero, seeking} {
		var err error
		if r.now, err = r.cli.ReadBlock(r.now, r.h, 1, block); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 16's header: entries 0–15 are 14-byte headers, 6-byte keys
	// and 1500+i-byte values.
	seek := 0
	for i := 0; i < 16; i++ {
		seek += 14 + 6 + 1500 + i
	}
	var s lsm.BlockSearch
	for _, key := range []string{"key003", "key016", "key017", "key030", "absent"} {
		s.Reset([]byte(key), nil, seek)
		s.Feed(block)
		wantV, wantDel, wantFound := s.Result()
		_, _, foundZ, endZ, err := fromZero.cli.SearchBlock(fromZero.now, fromZero.h, 1, 0, []byte(key), nil)
		if err != nil {
			t.Fatal(err)
		}
		v, del, found, endS, err := seeking.cli.SearchBlock(seeking.now, seeking.h, 1, seek, []byte(key), nil)
		if err != nil {
			t.Fatal(err)
		}
		if found != wantFound || del != wantDel || !bytes.Equal(v, wantV) {
			t.Fatalf("%s: searched from %d (%d bytes, del %v, found %v), searching the copy (%d bytes, del %v, found %v)",
				key, seek, len(v), del, found, len(wantV), wantDel, wantFound)
		}
		if key == "key003" && (found || !foundZ) {
			t.Fatalf("key003 lies before the seek point: found %v from it, %v from 0", found, foundZ)
		}
		if endZ != endS || fromZero.env.Controller().Stats() != seeking.env.Controller().Stats() {
			t.Fatalf("%s: a search from %d costs differently from one from 0", key, seek)
		}
		fromZero.now, seeking.now = endZ, endS
	}
	reads := seeking.env.Stats().BlocksRead
	for _, bad := range []int{-1, seeking.cli.BlockSize()} {
		_, _, _, _, err := seeking.cli.SearchBlock(seeking.now, seeking.h, 1, bad, []byte("key020"), nil)
		if !errors.Is(err, ErrBadSeek) || StatusOf(err) != StatusInvalid {
			t.Fatalf("seek %d: %v (status %v), want ErrBadSeek, invalid", bad, err, StatusOf(err))
		}
	}
	if got := seeking.env.Stats().BlocksRead; got != reads {
		t.Fatalf("rejected seeks read %d blocks", got-reads)
	}
}

// TestGetIntoOverEnvClientAllocatesNothing: with the view path a Get
// that reads a table block through the queue pair allocates nothing — no
// visitor closure, no search state, no block buffer.
func TestGetIntoOverEnvClientAllocatesNothing(t *testing.T) {
	r := newSearchRig(t, HostConfig{})
	db, err := lsm.Open(lsm.Options{Env: r.cli, MemtableBytes: 256 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := r.now
	val := bytes.Repeat([]byte{7}, 1000)
	keys := make([][]byte, 1500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%06d", i))
		if now, err = db.Put(now, keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = db.Flush(now); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2048)
	i := 0
	before := db.Stats().BlockReads
	allocs := testing.AllocsPerRun(300, func() {
		i = (i + 37) % len(keys)
		var err error
		if buf, now, err = db.GetInto(now, keys[i], buf); err != nil || len(buf) != len(val) {
			t.Fatalf("get %d: %d bytes, %v", i, len(buf), err)
		}
	})
	if reads := db.Stats().BlockReads - before; reads < 300 {
		t.Fatalf("only %d block reads: the Gets did not reach the tables", reads)
	}
	if allocs != 0 {
		t.Fatalf("GetInto over EnvClient allocates %.1f objects per call, want 0", allocs)
	}
}
