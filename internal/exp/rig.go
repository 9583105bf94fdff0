package exp

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hostif"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ox"
)

// RigConfig sizes a simulated testbed (device + controller). The
// defaults mirror the paper's drive structurally — 8 groups × 4 PUs,
// dual-plane TLC, 96 KB unit of write — at a chunk size scaled down
// (1.5 MB instead of 24 MB) so whole experiments fit in memory.
type RigConfig struct {
	Groups        int
	PUsPerGroup   int
	ChunksPerPU   int
	PagesPerBlock int
	CacheMB       int
	Seed          int64
	PLP           bool
	// BackendPath persists the device to a file (crashstorm); empty
	// keeps the device in memory (every figure scenario).
	BackendPath string
	// Faults optionally injects media faults (crashstorm).
	Faults *fault.Injector
}

// DefaultRig returns the standard scaled testbed.
func DefaultRig() RigConfig {
	return RigConfig{
		Groups:        8,
		PUsPerGroup:   4,
		ChunksPerPU:   48,
		PagesPerBlock: 48, // 48 pages × 2 planes × 4 sectors = 1.5 MB chunks
		CacheMB:       32,
		Seed:          1,
		PLP:           true,
	}
}

// reapLoop is the shared closed-loop driver: reap the globally
// earliest completion, let the scenario's callback do its bookkeeping
// and resubmit on that completion's queue, repeat total times. Every
// closed-loop scenario (fig7, gc locality, the qd sweep, tenants, the
// scale sweep) is this loop plus a different callback.
func reapLoop(host *hostif.Host, what string, total int, onComplete func(hostif.Completion) error) error {
	for remaining := total; remaining > 0; remaining-- {
		comp, ok := host.ReapAny()
		if !ok {
			return fmt.Errorf("%s: completion queue ran dry with %d outstanding", what, remaining)
		}
		if comp.Err != nil {
			return comp.Err
		}
		if err := onComplete(comp); err != nil {
			return err
		}
	}
	return nil
}

// geometry expands the rig sizing into the full device geometry.
func (rc RigConfig) geometry() ocssd.Geometry {
	chip := nand.Geometry{
		Planes:         2,
		BlocksPerPlane: rc.ChunksPerPU,
		PagesPerBlock:  rc.PagesPerBlock,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           nand.TLC,
	}
	return ocssd.Finish(ocssd.Geometry{
		Groups:       rc.Groups,
		PUsPerGroup:  rc.PUsPerGroup,
		ChunksPerPU:  rc.ChunksPerPU,
		Chip:         chip,
		ChannelMBps:  800,
		CacheMBps:    3200,
		CacheMB:      rc.CacheMB,
		MaxOpenPerPU: 64,
	})
}

func (rc RigConfig) options() ocssd.Options {
	return ocssd.Options{
		Seed:               rc.Seed,
		PowerLossProtected: rc.PLP,
		BackendPath:        rc.BackendPath,
		Faults:             rc.Faults,
	}
}

// Build constructs the device and controller.
func (rc RigConfig) Build() (*ocssd.Device, *ox.Controller, error) {
	dev, err := ocssd.New(rc.geometry(), rc.options())
	if err != nil {
		return nil, nil, fmt.Errorf("exp: building device: %w", err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: building controller: %w", err)
	}
	return dev, ctrl, nil
}

// Reopen restores the device from its file backend (BackendPath must
// be set) — the crashstorm's power-on after a cut.
func (rc RigConfig) Reopen() (*ocssd.Device, *ox.Controller, error) {
	dev, err := ocssd.OpenDevice(rc.geometry(), rc.options())
	if err != nil {
		return nil, nil, fmt.Errorf("exp: reopening device: %w", err)
	}
	ctrl, err := ox.NewController(ox.DefaultConfig(), dev)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: rebuilding controller: %w", err)
	}
	return dev, ctrl, nil
}
