// Command oxfabd serves a simulated OX controller over TCP — the
// NVMe-over-Fabrics face of the testbed. Each accepted connection is
// one queue pair (or one admin channel); remote oxctl, oxbench and
// dbbench processes drive the controller exactly as in-process callers
// do, with virtual time travelling on the wire.
//
// Usage:
//
//	oxfabd -addr 127.0.0.1:7710 -ftl block -pages 16384
//	oxfabd -ftl lsm -placement vertical     # serve LightLSM for dbbench -addr
//	oxfabd -ftl block -faults               # rig with fault injection for oxctl -cmd faults
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/fault"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
	"repro/internal/zns"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7710", "listen address")
	ftl := flag.String("ftl", "block", "served namespace FTL: block | zns | lsm")
	pages := flag.Int64("pages", 16384, "OX-Block namespace size in 4 KB logical pages")
	placement := flag.String("placement", "horizontal", "LightLSM SSTable placement: horizontal | vertical")
	faults := flag.Bool("faults", false, "inject media faults (read errors, program fails, grown-bad chunks)")
	flag.Parse()

	rig := exp.DefaultRig()
	if *faults {
		rig.Faults = fault.New(fault.Config{
			Seed:          7,
			ReadErrorRate: 0.05,
			GrowBadAfter:  2,
			EraseFailRate: 0.01,
		})
	}
	_, ctrl, err := rig.Build()
	fail(err)

	ns, now, err := buildNamespace(ctrl, *ftl, *pages, *placement)
	fail(err)

	host := hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true})
	nsid, err := host.Admin().AttachNamespace(now, ns)
	fail(err)

	l, err := net.Listen("tcp", *addr)
	fail(err)
	fmt.Printf("oxfabd: serving %s namespace %d on %s\n", *ftl, nsid, l.Addr())
	srv := fabrics.NewServer(host)

	// SIGINT/SIGTERM drain gracefully: stop accepting, flush every
	// in-flight completion, send each live queue pair a goaway frame
	// (clients treat it as a clean redial trigger), then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("oxfabd: %v, draining\n", s)
		srv.Shutdown()
	}()

	if err := srv.Serve(l); err != nil && !errors.Is(err, fabrics.ErrClosed) {
		fail(err)
	}
	fmt.Println("oxfabd: drained, exiting")
}

// blockCheckpointInterval is how often the served OX-Block namespace
// checkpoints, in virtual time. The library's zero value disables
// checkpointing (Figure 3's "no checkpoint" line needs that), which in
// a daemon means the WAL is never truncated and the namespace dies with
// "WAL out of chunks" after some 70 k small writes; a served FTL must
// not have a time-to-death.
const blockCheckpointInterval = vclock.Second

// buildNamespace opens the FTL the daemon serves on the controller's
// media and wraps it as a host-interface namespace. It returns the
// virtual instant at which the FTL finished opening.
func buildNamespace(ctrl *ox.Controller, ftl string, pages int64, placement string) (hostif.Namespace, vclock.Time, error) {
	switch ftl {
	case "block":
		d, _, at, err := oxblock.New(ctrl, oxblock.Config{
			LogicalPages:       pages,
			CheckpointInterval: blockCheckpointInterval,
		}, 0)
		if err != nil {
			return nil, 0, err
		}
		return hostif.NewBlockNamespace(d), at, nil
	case "zns":
		tgt, err := zns.New(ctrl, zns.Config{})
		if err != nil {
			return nil, 0, err
		}
		return hostif.NewZoneNamespace(tgt), 0, nil
	case "lsm":
		p := lightlsm.Horizontal
		if placement == "vertical" {
			p = lightlsm.Vertical
		}
		env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: p})
		if err != nil {
			return nil, 0, err
		}
		return hostif.NewLSMNamespace(env), 0, nil
	default:
		return nil, 0, fmt.Errorf("unknown -ftl %q (block | zns | lsm)", ftl)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "oxfabd:", err)
		os.Exit(1)
	}
}
