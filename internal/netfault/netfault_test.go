package netfault_test

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/netfault"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

const pageBytes = 4 * 4096 // default rig: 4 sectors/page × 4KiB; LPNs are sector-granular, so page IO strides by 4

// rig builds a small OX-Block host served over an in-process fabric.
func rig(t testing.TB) (*fabrics.Server, vclock.Time) {
	t.Helper()
	_, ctrl, err := exp.DefaultRig().Build()
	if err != nil {
		t.Fatalf("rig: %v", err)
	}
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 512}, 0)
	if err != nil {
		t.Fatalf("oxblock: %v", err)
	}
	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	if _, err := host.Admin().AttachNamespace(now, hostif.NewBlockNamespace(d)); err != nil {
		t.Fatalf("attach: %v", err)
	}
	srv := fabrics.NewServer(host)
	t.Cleanup(func() { srv.Close() })
	return srv, now
}

// redial is the aggressive budget the fault tests run under: pipes are
// cheap, so back off in microseconds, not milliseconds.
var redial = fabrics.RedialConfig{
	MaxAttempts: 40,
	Base:        200 * time.Microsecond,
	Cap:         2 * time.Millisecond,
	Seed:        11,
}

// runOps drives a closed-loop workload — n page writes, then n reads
// verifying payload round-trips — and returns every completion's
// virtual Done instant in op order. Because the session layer replays
// at original doorbell instants and the server dedups re-delivered
// sequence numbers, this slice must be identical no matter what the
// fault script did to the connection.
func runOps(t *testing.T, qp *fabrics.QueuePair, now vclock.Time, n int) []vclock.Time {
	t.Helper()
	dones := make([]vclock.Time, 0, 2*n)
	at := now
	for i := 0; i < n; i++ {
		payload := make([]byte, pageBytes)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, int64(i*4), payload
		if err := qp.Push(at, cmd); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		c := qp.MustReap()
		if c.Err != nil {
			t.Fatalf("write %d completion: %v", i, c.Err)
		}
		dones = append(dones, c.Done)
		at = c.Done
	}
	for i := 0; i < n; i++ {
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, int64(i*4), 4
		if err := qp.Push(at, cmd); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		c := qp.MustReap()
		if c.Err != nil {
			t.Fatalf("read %d completion: %v", i, c.Err)
		}
		want := make([]byte, pageBytes)
		for j := range want {
			want[j] = byte(i*31 + j)
		}
		if !bytes.Equal(c.Data, want) {
			p := 0
			for p < len(c.Data) && p < len(want) && c.Data[p] == want[p] {
				p++
			}
			t.Fatalf("read %d returned wrong bytes: len=%d want %d, common prefix %d, got[%d:%d+4]=%v",
				i, len(c.Data), len(want), p, p, p, c.Data[p:min(p+4, len(c.Data))])
		}
		dones = append(dones, c.Done)
		at = c.Done
	}
	return dones
}

// cleanBaseline runs the workload with no proxy at all.
func cleanBaseline(t *testing.T, n int) []vclock.Time {
	t.Helper()
	srv, now := rig(t)
	qp, err := fabrics.Loopback(srv).QueuePair(now, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	defer qp.Close()
	return runOps(t, qp, now, n)
}

// stormRun runs the same workload through a fault proxy.
func stormRun(t *testing.T, n int, pcfg netfault.Config, ccfg fabrics.Config) (*netfault.Proxy, *fabrics.QueuePair, []vclock.Time) {
	t.Helper()
	srv, now := rig(t)
	proxy := netfault.New(fabrics.LoopbackDial(srv), pcfg)
	qp, err := fabrics.NewClient(proxy.Dial).WithConfig(ccfg).QueuePair(now, 4, hostif.ClassMedium, 1)
	if err != nil {
		t.Fatalf("queue pair: %v", err)
	}
	t.Cleanup(func() { qp.Close() })
	return proxy, qp, runOps(t, qp, now, n)
}

func sameDones(t *testing.T, got, want []vclock.Time, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d completions, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d Done=%v, clean run Done=%v", label, i, got[i], want[i])
		}
	}
}

// TestPassthrough: an empty script is a transparent wire — identical
// virtual results, zero faults, one dial.
func TestPassthrough(t *testing.T) {
	const n = 4
	want := cleanBaseline(t, n)
	proxy, qp, got := stormRun(t, n, netfault.Config{}, fabrics.Config{})
	sameDones(t, got, want, "passthrough")
	st := proxy.Stats()
	if st.Dials != 1 {
		t.Fatalf("dials = %d, want 1", st.Dials)
	}
	if st.DataFrames != 2*n {
		t.Fatalf("data frames = %d, want %d", st.DataFrames, 2*n)
	}
	if st.Kills+st.Drops+st.Truncates+st.Delays+st.Stalls+st.Partitions != 0 {
		t.Fatalf("faults fired on an empty script: %+v", st)
	}
	if s := qp.Stats(); s.Redials != 0 {
		t.Fatalf("redials = %d, want 0", s.Redials)
	}
}

// TestReplayDedupAcrossKillOffsets is the replay property test: kill
// or drop the connection at every frame offset of the workload and
// require the virtual completion timeline to be byte-for-byte the
// clean run's. A Kill lands after the command reached the server, so
// correctness requires the server to dedup the replayed sequence
// number (double-applying a write would shift media timing and break
// Done equality); a Drop lands before, so correctness requires the
// replay to re-execute at the original doorbell instant.
func TestReplayDedupAcrossKillOffsets(t *testing.T) {
	const n = 6
	want := cleanBaseline(t, n)
	for _, action := range []netfault.Action{netfault.Kill, netfault.Drop} {
		for k := 1; k <= 2*n; k++ {
			label := action.String()
			proxy, qp, got := stormRun(t, n,
				netfault.Config{Script: []netfault.Event{{After: k, Action: action}}},
				fabrics.Config{Redial: redial})
			sameDones(t, got, want, label)
			st := proxy.Stats()
			fired := st.Kills + st.Drops
			if fired != 1 {
				t.Fatalf("%s@%d: %d faults fired, want 1", label, k, fired)
			}
			// A fault on the workload's last frame is noticed by the
			// client's reader after the last completion was delivered,
			// so the redial may still be under way: wait for it.
			deadline := time.Now().Add(2 * time.Second)
			for qp.Stats().Redials == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if s := qp.Stats(); s.Redials != 1 {
				t.Fatalf("%s@%d: redials = %d, want 1", label, k, s.Redials)
			}
		}
	}
}

// TestTruncateResume: a torn frame detaches the server side; the
// session resumes and the timeline is unchanged.
func TestTruncateResume(t *testing.T) {
	const n = 4
	want := cleanBaseline(t, n)
	proxy, qp, got := stormRun(t, n,
		netfault.Config{Script: []netfault.Event{{After: 3, Action: netfault.Truncate}}},
		fabrics.Config{Redial: redial})
	sameDones(t, got, want, "truncate")
	if st := proxy.Stats(); st.Truncates != 1 {
		t.Fatalf("truncates = %d, want 1", st.Truncates)
	}
	if s := qp.Stats(); s.Redials != 1 {
		t.Fatalf("redials = %d, want 1", s.Redials)
	}
}

// TestPartitionBackoff: the sever also refuses the next three dials,
// so the redial loop has to back off through ErrPartitioned before
// the session resumes.
func TestPartitionBackoff(t *testing.T) {
	const n = 4
	want := cleanBaseline(t, n)
	proxy, qp, got := stormRun(t, n,
		netfault.Config{Script: []netfault.Event{{After: 2, Action: netfault.Partition, RefuseDials: 3}}},
		fabrics.Config{Redial: redial})
	sameDones(t, got, want, "partition")
	st := proxy.Stats()
	if st.Partitions != 1 || st.RefusedDials != 3 {
		t.Fatalf("partitions = %d refused = %d, want 1 and 3", st.Partitions, st.RefusedDials)
	}
	if st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (initial + post-partition)", st.Dials)
	}
	if s := qp.Stats(); s.Redials != 1 {
		t.Fatalf("redials = %d, want 1", s.Redials)
	}
}

// TestDelayPassesThrough: a held frame delays wall-clock delivery but
// cannot touch virtual time, and triggers no redial.
func TestDelayPassesThrough(t *testing.T) {
	const n = 4
	want := cleanBaseline(t, n)
	proxy, qp, got := stormRun(t, n,
		netfault.Config{Script: []netfault.Event{{After: 2, Action: netfault.Delay, Delay: 30 * time.Millisecond}}},
		fabrics.Config{})
	sameDones(t, got, want, "delay")
	if st := proxy.Stats(); st.Delays != 1 {
		t.Fatalf("delays = %d, want 1", st.Delays)
	}
	if s := qp.Stats(); s.Redials != 0 {
		t.Fatalf("redials = %d, want 0", s.Redials)
	}
}

// TestStallRescuedByKeepAlive: a stalled connection stays open but
// silent — only the keep-alive deadline can detect it. The client's
// read deadline (KATO) fires before the server's reaper
// (KATO + KATO/4), so the resume lands while the session is still
// claimable, and the swallowed command replays.
func TestStallRescuedByKeepAlive(t *testing.T) {
	const n = 4
	want := cleanBaseline(t, n)
	proxy, qp, got := stormRun(t, n,
		netfault.Config{Script: []netfault.Event{{After: 2, Action: netfault.Stall}}},
		fabrics.Config{KeepAlive: 200 * time.Millisecond, Redial: redial})
	sameDones(t, got, want, "stall")
	if st := proxy.Stats(); st.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", st.Stalls)
	}
	if s := qp.Stats(); s.Redials != 1 {
		t.Fatalf("redials = %d, want 1", s.Redials)
	}
}

// TestResumeOnReapingGoroutine: a connection killed under a blocked
// Reap is redialed, re-handshaken and replayed by the goroutine that
// was reading it — the reaper itself — and the Reap returns the
// replayed completion. No reader is left behind: after Close the
// process is back to the goroutines it started with. The reader of
// last resort may happen to hold the socket when the kill lands, and
// the completion may slip through ahead of the sever, so the scenario
// gets a few tries to show a replaying redial on the test's own
// goroutine; everything else must hold every time.
func TestResumeOnReapingGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	onReaper := false
	for try := 0; try < 5 && !onReaper; try++ {
		srv, now := rig(t)
		// The kill relays the second ring frame — the read below — and
		// severs: the command ran, its completion may never arrive.
		proxy := netfault.New(fabrics.LoopbackDial(srv),
			netfault.Config{Script: []netfault.Event{{After: 2, Action: netfault.Kill}}})
		redialedHere := false
		dials := 0
		dial := func() (net.Conn, error) {
			if dials++; dials == 2 {
				var stack [4096]byte
				redialedHere = bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("TestResumeOnReapingGoroutine"))
			}
			return proxy.Dial()
		}
		qp, err := fabrics.NewClient(dial).WithConfig(fabrics.Config{Redial: redial}).QueuePair(now, 4, hostif.ClassMedium, 1)
		if err != nil {
			t.Fatalf("queue pair: %v", err)
		}
		payload := bytes.Repeat([]byte{0xA5, byte(try)}, pageBytes/2)
		cmd := qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Data = hostif.OpWrite, 1, 0, payload
		if err := qp.Push(now, cmd); err != nil {
			t.Fatalf("write: %v", err)
		}
		wc := qp.MustReap()
		if wc.Err != nil {
			t.Fatalf("write completion: %v", wc.Err)
		}
		cmd = qp.AcquireCommand()
		cmd.Op, cmd.NSID, cmd.LPN, cmd.Pages = hostif.OpRead, 1, 0, 4
		if err := qp.Push(wc.Done, cmd); err != nil {
			t.Fatalf("read: %v", err)
		}
		rc, ok := qp.Reap() // blocks across the kill, the redial and the replay
		if !ok || rc.Err != nil || !bytes.Equal(rc.Data, payload) {
			t.Fatalf("reap across the kill: ok=%v err=%v, payload intact: %v (pair: %v)",
				ok, rc.Err, bytes.Equal(rc.Data, payload), qp.Err())
		}
		if st := proxy.Stats(); st.Kills != 1 {
			t.Fatalf("kills = %d, want 1", st.Kills)
		}
		// If the completion beat the sever the loss is only noticed now,
		// by the reader of last resort: wait for its (empty) resumption.
		deadline := time.Now().Add(2 * time.Second)
		for qp.Stats().Redials == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		s := qp.Stats()
		if s.Redials != 1 {
			t.Fatalf("redials = %d, want 1", s.Redials)
		}
		onReaper = redialedHere && s.Replayed == 1
		qp.Close()
		srv.Close()
	}
	if !onReaper {
		t.Error("the session was never resumed on the goroutine blocked in Reap")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var stacks [1 << 16]byte
			t.Fatalf("%d goroutines after Close, %d before the test:\n%s",
				runtime.NumGoroutine(), before, stacks[:runtime.Stack(stacks[:], true)])
		}
		time.Sleep(time.Millisecond)
	}
}
