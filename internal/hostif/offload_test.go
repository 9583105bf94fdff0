package hostif

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// offloadController builds the standard small test device, optionally
// with a fault injector wired in.
func offloadController(t testing.TB, inj *fault.Injector) *ox.Controller {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 2, PUsPerGroup: 2, ChunksPerPU: 16, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 8, MaxOpenPerPU: 64,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// sstBlock builds one raw SSTable block of the environment's block size
// holding a single key/value entry (the on-media entry format that
// lsm.BlockSearch scans: u16 key length, u32 flags+value length, u64
// sequence, key, value; a zero key length terminates the block).
func sstBlock(size int, key, value string) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint16(b[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[2:], uint32(len(value)))
	binary.LittleEndian.PutUint64(b[6:], 1)
	copy(b[14:], key)
	copy(b[14+len(key):], value)
	return b
}

// commitTable writes the given blocks directly into the environment and
// commits them as one table.
func commitTable(t *testing.T, env *lightlsm.Env, now vclock.Time, blocks ...[]byte) (lsm.TableHandle, vclock.Time) {
	t.Helper()
	w, err := env.CreateTable(now)
	if err != nil {
		t.Fatal(err)
	}
	end := now
	for _, b := range blocks {
		if end, err = w.Append(end, b); err != nil {
			t.Fatal(err)
		}
	}
	h, end, err := w.Commit(end)
	if err != nil {
		t.Fatal(err)
	}
	return h, end
}

// TestOffloadGetFaultClassification pins the satellite rule: an
// offloaded lookup that hits an injected NAND read fault must surface
// the same typed media-read status as a host-side block read — not an
// opaque internal error — and the underlying injector error must stay
// unwrappable from the completion.
func TestOffloadGetFaultClassification(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, ReadErrorRate: 1, GrowBadAfter: 1 << 30})
	ctrl := offloadController(t, inj)
	env, err := lightlsm.New(ctrl, lightlsm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, HostConfig{})
	nsid := attachNS(t, host, NewLSMNamespace(env))
	qp := openQP(t, host, 2)

	// Writes are unaffected by ReadErrorRate, so the fill succeeds.
	h, now := commitTable(t, env, 0, sstBlock(env.BlockSize(), "k", "v"))

	cmd := qp.AcquireCommand()
	*cmd = Command{
		Op: OpOffloadGet, NSID: nsid,
		Handle: uint64(h.ID), Length: int64(h.Blocks), LPN: 0,
		Data: []byte("k"),
	}
	if err := qp.Push(now, cmd); err != nil {
		t.Fatal(err)
	}
	comp := qp.MustReap()
	if comp.Err == nil {
		t.Fatal("offload get unexpectedly succeeded under ReadErrorRate=1")
	}
	if comp.Status != StatusMediaRead {
		t.Fatalf("offload get status = %v (err %v), want media-read", comp.Status, comp.Err)
	}
	if !errors.Is(comp.Err, fault.ErrReadError) {
		t.Fatalf("completion error %v does not unwrap to fault.ErrReadError", comp.Err)
	}
	fl, err := host.Admin().FaultLog(comp.Done)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Injected.ReadErrors == 0 {
		t.Fatalf("fault log reports no read errors: %+v", fl)
	}
}

// offloadGetWorkload builds a two-table vertical-placement rig (one
// table per device group), then pushes interleaved OpOffloadGet rounds
// from two queue pairs. It returns the per-queue completion streams and
// the host, so callers can check overlap stats or compare executors.
func offloadGetWorkload(t *testing.T, cfg HostConfig) (*Host, [2][]Completion) {
	t.Helper()
	ctrl := offloadController(t, nil)
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: lightlsm.Vertical, TableChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(ctrl, cfg)
	nsid := attachNS(t, host, NewLSMNamespace(env))

	// Vertical placement round-robins tables across groups, so the two
	// tables land on disjoint chip timelines and offload lanes.
	var handles [2]lsm.TableHandle
	now := vclock.Time(0)
	for i := range handles {
		block := sstBlock(env.BlockSize(), fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
		handles[i], now = commitTable(t, env, now, block)
	}
	g0, ok0 := env.BlockGroup(handles[0].ID, 0)
	g1, ok1 := env.BlockGroup(handles[1].ID, 0)
	if !ok0 || !ok1 || g0 == g1 {
		t.Fatalf("tables share group (%d ok=%v, %d ok=%v); vertical placement should separate them", g0, ok0, g1, ok1)
	}

	qps := [2]*QueuePair{openQP(t, host, 2), openQP(t, host, 2)}
	var out [2][]Completion
	for round := 0; round < 8; round++ {
		at := now.Add(vclock.Duration(round) * vclock.Millisecond)
		for i, qp := range qps {
			cmd := qp.AcquireCommand()
			*cmd = Command{
				Op: OpOffloadGet, NSID: nsid,
				Handle: uint64(handles[i].ID), Length: int64(handles[i].Blocks), LPN: 0,
				Data: []byte(fmt.Sprintf("key-%d", i)),
			}
			if err := qp.Push(at, cmd); err != nil {
				t.Fatal(err)
			}
		}
		host.Drain()
		for i, qp := range qps {
			comp, ok := qp.Reap()
			if !ok {
				t.Fatal("missing completion")
			}
			if comp.Err != nil {
				t.Fatal(comp.Err)
			}
			value, del, found, err := offload.DecodeGetResult(comp.Data)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("value-%d", i)
			if !found || del || string(value) != want {
				t.Fatalf("offload get = (%q, del=%v, found=%v), want %q", value, del, found, want)
			}
			out[i] = append(out[i], comp)
		}
	}
	return host, out
}

// TestOffloadGetOverlapsDisjointGroups proves the group-scoped
// footprint of OpOffloadGet is real: offloaded lookups on tables in
// different device groups overlap under the pipelined executor, and the
// completion streams — order, virtual times, payloads — stay
// bit-identical to the serial executor.
func TestOffloadGetOverlapsDisjointGroups(t *testing.T) {
	pipe, pipeOut := offloadGetWorkload(t, HostConfig{Executor: ExecutorPipelined, Workers: 4})
	log, err := pipe.Admin().ExecutorStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.Dispatched == 0 || log.Overlapped == 0 {
		t.Fatalf("no realized overlap across groups: %+v", log)
	}
	if log.MaxInflight < 2 {
		t.Fatalf("MaxInflight %d, want ≥ 2: %+v", log.MaxInflight, log)
	}

	_, serialOut := offloadGetWorkload(t, HostConfig{})
	for q := range serialOut {
		if len(serialOut[q]) != len(pipeOut[q]) {
			t.Fatalf("queue %d: %d pipelined completions vs %d serial", q, len(pipeOut[q]), len(serialOut[q]))
		}
		for i := range serialOut[q] {
			s, p := serialOut[q][i], pipeOut[q][i]
			if keyOf(s) != keyOf(p) || !bytes.Equal(s.Data, p.Data) {
				t.Fatalf("queue %d completion %d diverged:\nserial    %+v\npipelined %+v", q, i, s, p)
			}
		}
	}
}

// TestOffloadedDBMatchesHostDB runs the same mini-RocksDB workload
// twice over the host interface — once all host-side, once with point
// lookups and compactions offloaded into the device — and requires
// identical query results. Offloading moves work and bytes, never
// answers.
func TestOffloadedDBMatchesHostDB(t *testing.T) {
	const puts, keySpace, valueSize = 300, 100, 2048

	type result struct {
		values map[string]string
		stats  offload.Stats
	}
	run := func(offloaded bool) result {
		ctrl := offloadController(t, nil)
		env, err := lightlsm.New(ctrl, lightlsm.Config{TableChunks: 1})
		if err != nil {
			t.Fatal(err)
		}
		host := NewHost(ctrl, HostConfig{})
		client, err := AttachLSM(host, env)
		if err != nil {
			t.Fatal(err)
		}
		opts := lsm.Options{
			Env:           client,
			MemtableBytes: 32 << 10,
			Seed:          7,
		}
		if offloaded {
			opts.Lookup = client.OffloadGet
			opts.Compactor = client.OffloadCompact
		}
		db, err := lsm.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		value := make([]byte, valueSize)
		now := vclock.Time(0)
		for i := 0; i < puts; i++ {
			rng.Read(value)
			key := fmt.Sprintf("key-%04d", rng.Intn(keySpace))
			if now, err = db.Put(now, []byte(key), value); err != nil {
				t.Fatal(err)
			}
		}
		if now, err = db.Flush(now); err != nil {
			t.Fatal(err)
		}
		now = db.WaitIdle(now)

		res := result{values: make(map[string]string)}
		for i := 0; i < keySpace; i++ {
			key := fmt.Sprintf("key-%04d", i)
			v, end, err := db.Get(now, []byte(key))
			if err != nil && !errors.Is(err, lsm.ErrNotFound) {
				t.Fatal(err)
			}
			now = end
			if err == nil {
				res.values[key] = string(v)
			}
		}
		if res.stats, err = host.Admin().OffloadStats(now, client.NSID()); err != nil {
			t.Fatal(err)
		}
		return res
	}

	hostSide := run(false)
	devSide := run(true)
	if len(hostSide.values) != len(devSide.values) {
		t.Fatalf("host found %d keys, device %d", len(hostSide.values), len(devSide.values))
	}
	for k, v := range hostSide.values {
		if devSide.values[k] != v {
			t.Fatalf("key %s: offloaded value differs from host value", k)
		}
	}
	if hostSide.stats.Gets != 0 || hostSide.stats.Compactions != 0 {
		t.Fatalf("host-side run used the offload engine: %+v", hostSide.stats)
	}
	if devSide.stats.Gets == 0 || devSide.stats.Compactions == 0 {
		t.Fatalf("offloaded run did not exercise the engine: %+v", devSide.stats)
	}
	if devSide.stats.BytesSaved() <= 0 {
		t.Fatalf("offloading saved no host-link bytes: %+v", devSide.stats)
	}
}
