// kvstore: the miniature RocksDB running on the LightLSM FTL — the
// paper's application-specific environment with horizontal or vertical
// SSTable placement (run with -placement vertical to compare). With
// -offload, point lookups and compactions resolve inside the device
// (OpOffloadGet / OpOffloadCompact): only values and table metadata
// cross the host link instead of whole SSTable blocks.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/vclock"
)

func main() {
	placement := flag.String("placement", "horizontal", "horizontal | vertical")
	offload := flag.Bool("offload", false, "resolve point lookups and compactions in-device (computational storage)")
	flag.Parse()
	p := lightlsm.Horizontal
	if *placement == "vertical" {
		p = lightlsm.Vertical
	}

	rig := exp.DefaultRig()
	rig.PagesPerBlock = 12 // small chunks for a quick demo
	_, ctrl, err := rig.Build()
	if err != nil {
		log.Fatal(err)
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LightLSM: %s placement, %d KB blocks, %d MB SSTables\n",
		env.Placement(), env.BlockSize()/1024, env.TableBytes()>>20)

	// The database reaches the FTL through host-interface queue pairs:
	// every SSTable flush block and block read is a typed command, and
	// the attachment itself is admin-queue commands.
	host := hostif.NewHost(ctrl, hostif.HostConfig{})
	cli, err := hostif.AttachLSM(host, env)
	if err != nil {
		log.Fatal(err)
	}
	// A small memtable so the demo's 5000 pairs actually force flushes
	// and compactions (and give the offloaded paths work to do).
	opts := lsm.Options{Env: cli, MemtableBytes: 16 << 10, Seed: 1}
	if *offload {
		// Offloaded variant: positive table probes and table merges run
		// inside the device through the same queue pair.
		opts.Lookup = cli.OffloadGet
		opts.Compactor = cli.OffloadCompact
	}
	db, err := lsm.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Load 5000 key-value pairs, then overwrite a third of them so the
	// L0 tables overlap and real merge compactions run (sequential-only
	// fill would just trivially move tables down); finally read some
	// back and scan a range.
	now := vclock.Time(0)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("user%06d", i)
		v := fmt.Sprintf("profile-%d", i*i)
		if now, err = db.Put(now, []byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 5000; i += 3 {
		k := fmt.Sprintf("user%06d", i)
		v := fmt.Sprintf("profile-%d-v2", i*i)
		if now, err = db.Put(now, []byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	now = db.WaitIdle(now)

	val, now, err := db.Get(now, []byte("user001234"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get user001234 = %s\n", val)

	it := db.NewIterator(&now)
	fmt.Println("first five keys:")
	for i := 0; i < 5; i++ {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		fmt.Printf("  %s = %s\n", k, v)
	}
	if err := it.Err(); err != nil {
		log.Fatal(err)
	}

	s := db.Stats()
	// FTL counters come back as an admin log page.
	v, err := host.Admin().NamespaceStats(now, cli.NSID())
	if err != nil {
		log.Fatal(err)
	}
	es := v.(lightlsm.Stats)
	fmt.Printf("flushes %d, compactions %d, levels %d/%d/%d\n",
		s.Flushes, s.Compactions, s.TablesL0, s.TablesL1, s.TablesL2)
	fmt.Printf("FTL: %d blocks written, %d read, %d chunk resets (SSTable deletes)\n",
		es.BlocksWritten, es.BlocksRead, es.ChunkResets)
	if *offload {
		st, err := host.Admin().OffloadStats(now, cli.NSID())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("offload: %d gets (%d hits), %d compactions, %d KB saved on the host link\n",
			st.Gets, st.GetHits, st.Compactions, st.BytesSaved()>>10)
	}
}
