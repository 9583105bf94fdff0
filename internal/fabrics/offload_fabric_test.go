package fabrics_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// lsmRig builds a small controller with a LightLSM environment holding
// one committed single-block table (key "key-7" → "offloaded-value").
// Both transports are built from identical rigs so their virtual
// timings are directly comparable.
func lsmRig(t *testing.T) (*hostif.Host, *lightlsm.Env, lsm.TableHandle, vclock.Time) {
	t.Helper()
	chip := nand.Geometry{
		Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 12,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64, Cell: nand.TLC,
	}
	geo := ocssd.Finish(ocssd.Geometry{
		Groups: 2, PUsPerGroup: 2, ChunksPerPU: 16, Chip: chip,
		ChannelMBps: 800, CacheMBps: 3200, CacheMB: 8, MaxOpenPerPU: 64,
	})
	dev, err := ocssd.New(geo, ocssd.Options{Seed: 1, PowerLossProtected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{})

	// One raw SSTable block in the entry format lsm.BlockSearch scans:
	// u16 key length, u32 value length, u64 sequence, key, value.
	key, value := "key-7", "offloaded-value"
	block := make([]byte, env.BlockSize())
	binary.LittleEndian.PutUint16(block[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(block[2:], uint32(len(value)))
	binary.LittleEndian.PutUint64(block[6:], 1)
	copy(block[14:], key)
	copy(block[14+len(key):], value)

	w, err := env.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := w.Append(0, block)
	if err != nil {
		t.Fatal(err)
	}
	h, end, err := w.Commit(end)
	if err != nil {
		t.Fatal(err)
	}
	return host, env, h, end
}

// TestOffloadLoopbackMatchesInProcess pins transport transparency for
// the offload path: the same offloaded lookup on identical rigs returns
// the same value at the same virtual time whether it is issued through
// an in-process queue pair or across the fabrics wire over loopback —
// and the offload log page travels the gob admin path intact.
func TestOffloadLoopbackMatchesInProcess(t *testing.T) {
	hostL, envL, hL, nowL := lsmRig(t)
	clientL, err := hostif.AttachLSM(hostL, envL)
	if err != nil {
		t.Fatal(err)
	}
	vL, delL, foundL, endL, err := clientL.OffloadGet(nowL, hL, 0, []byte("key-7"))
	if err != nil {
		t.Fatal(err)
	}

	hostF, envF, hF, nowF := lsmRig(t)
	nsid, err := hostF.Admin().AttachNamespace(0, hostif.NewLSMNamespace(envF))
	if err != nil {
		t.Fatal(err)
	}
	srv := fabrics.NewServer(hostF)
	t.Cleanup(srv.Close)
	cli := fabrics.Loopback(srv)
	envClient, err := cli.OpenLSM(nowF, nsid)
	if err != nil {
		t.Fatal(err)
	}
	defer envClient.Close()
	vF, delF, foundF, endF, err := envClient.OffloadGet(nowF, hF, 0, []byte("key-7"))
	if err != nil {
		t.Fatal(err)
	}

	if !foundL || !foundF || delL || delF || !bytes.Equal(vL, vF) || string(vL) != "offloaded-value" {
		t.Fatalf("results diverge: local (%q, del=%v, found=%v) vs fabric (%q, del=%v, found=%v)",
			vL, delL, foundL, vF, delF, foundF)
	}
	if nowL != nowF || endL != endF {
		t.Fatalf("offload timing is not transport-transparent: local %v→%v, fabric %v→%v",
			nowL, endL, nowF, endF)
	}

	admin, err := cli.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	stF, err := admin.OffloadStats(endF, nsid)
	if err != nil {
		t.Fatal(err)
	}
	stL, err := hostL.Admin().OffloadStats(endL, clientL.NSID())
	if err != nil {
		t.Fatal(err)
	}
	if stF != stL {
		t.Fatalf("offload stats diverge across transports:\nlocal  %+v\nfabric %+v", stL, stF)
	}
	if stF.Gets != 1 {
		t.Fatalf("offload stats did not count the get: %+v", stF)
	}
}

// TestOffloadCorruptRequestRejectedOverFabric sends a malformed
// offload request across the wire: the frame layer passes it through
// (the payload is opaque), the namespace rejects it with the offload
// codec's typed complaint, and the session keeps working afterwards.
func TestOffloadCorruptRequestRejectedOverFabric(t *testing.T) {
	host, env, h, now := lsmRig(t)
	nsid, err := host.Admin().AttachNamespace(0, hostif.NewLSMNamespace(env))
	if err != nil {
		t.Fatal(err)
	}
	srv := fabrics.NewServer(host)
	t.Cleanup(srv.Close)
	cli := fabrics.Loopback(srv)
	qp, err := cli.QueuePair(now, 2, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()

	cmd := qp.AcquireCommand()
	cmd.Op, cmd.NSID, cmd.Data = hostif.OpOffloadCompact, nsid, []byte{0xDE, 0xAD}
	if err := qp.Push(now, cmd); err != nil {
		t.Fatal(err)
	}
	comp := qp.MustReap()
	if comp.Err == nil {
		t.Fatal("corrupt compact request was accepted")
	}
	var re *fabrics.RemoteError
	if !errors.As(comp.Err, &re) || !strings.Contains(re.Msg, offload.ErrBadFrame.Error()) {
		t.Fatalf("rejection lost the offload codec's complaint: %v", comp.Err)
	}

	cmd = qp.AcquireCommand()
	cmd.Op, cmd.NSID = hostif.OpOffloadGet, nsid
	cmd.Handle, cmd.Length, cmd.LPN = uint64(h.ID), int64(h.Blocks), 0
	cmd.Data = []byte("key-7")
	if err := qp.Push(comp.Done, cmd); err != nil {
		t.Fatal(err)
	}
	comp = qp.MustReap()
	if comp.Err != nil {
		t.Fatalf("session did not survive the rejected request: %v", comp.Err)
	}
	value, del, found, err := offload.DecodeGetResult(comp.Data)
	if err != nil || del || !found || string(value) != "offloaded-value" {
		t.Fatalf("follow-up get = (%q, %v, %v, %v)", value, del, found, err)
	}
}

// TestFabricRejectsSearchingTableRead: the searching form of
// OpTableRead (Command.Key) has no wire encoding. Sent anyway it would
// run as a plain read and answer "not found"; the client must refuse it
// with ErrUnsupported, hold no slot for it, and stay usable — and the
// fabric Env must not offer lsm.BlockSearcher, so a DB over it copies
// the block across the wire and searches its copy.
func TestFabricRejectsSearchingTableRead(t *testing.T) {
	host, env, h, now := lsmRig(t)
	nsid, err := host.Admin().AttachNamespace(0, hostif.NewLSMNamespace(env))
	if err != nil {
		t.Fatal(err)
	}
	srv := fabrics.NewServer(host)
	t.Cleanup(srv.Close)
	qp, err := fabrics.Loopback(srv).QueuePair(now, 1, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()

	read := hostif.Command{
		Op: hostif.OpTableRead, NSID: nsid,
		Handle: uint64(h.ID), Length: int64(h.Blocks), LPN: 0,
	}
	searching := read
	searching.Key = []byte("key-7")
	if err := qp.Push(now, &searching); !errors.Is(err, hostif.ErrUnsupported) {
		t.Fatalf("searching table read over fabric: %v, want ErrUnsupported", err)
	}
	// The depth-1 queue is still free: the plain read goes through.
	read.Dst = make([]byte, env.BlockSize())
	if err := qp.Push(now, &read); err != nil {
		t.Fatal(err)
	}
	if c := qp.MustReap(); c.Err != nil || !bytes.Contains(read.Dst[:64], []byte("offloaded-value")) {
		t.Fatalf("plain read after the rejection: %v", c.Err)
	}
	var fabricEnv lsm.Env = &fabrics.Env{}
	if _, ok := fabricEnv.(lsm.BlockSearcher); ok {
		t.Fatal("fabrics.Env offers SearchBlock; over a wire the block must really cross")
	}
}
