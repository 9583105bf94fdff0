// Package ox models the OX controller framework of §4.1: a programmable
// storage controller (the paper's DFC card, an ARMv8 SoC) organized in
// three layers — media management at the bottom, an FTL in the middle
// and a host interface on top.
//
// The package provides (i) the Media interface, the common representation
// of the physical address space that FTLs program against (the bottom
// layer), (ii) the Controller, which accounts controller CPU time, memory-
// bus copy bandwidth and host-link transfers in virtual time (the top
// layer and the resource model behind Figure 7), and (iii) shared plumbing
// for synchronous controller I/O versus asynchronous user I/O.
//
// Figure 7 of the paper shows the controller saturating with two host
// threads because it "cannot keep up with the data copies within OX:
// from the network stack to the FTL, and from the FTL to the Open-Channel
// SSD". Those two copies cross the controller's memory bus, which is the
// single contended resource here; CopyRX and CopyToDevice reserve it.
package ox

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/ocssd"
	"repro/internal/vclock"
)

// Media is the media-manager abstraction (bottom OX layer): the physical
// address space common to all FTLs. *ocssd.Device implements it; tests
// may substitute fakes.
type Media interface {
	Geometry() ocssd.Geometry
	VectorWrite(now vclock.Time, ppas []ocssd.PPA, data []byte) (vclock.Time, error)
	VectorRead(now vclock.Time, ppas []ocssd.PPA, dst []byte) (vclock.Time, error)
	// VectorView is VectorRead without the copy: visit borrows each
	// sector's bytes for the duration of its call (see ocssd.Device).
	VectorView(now vclock.Time, ppas []ocssd.PPA, visit func(i int, sector []byte)) (vclock.Time, error)
	Append(now vclock.Time, id ocssd.ChunkID, data []byte) (int, vclock.Time, error)
	Pad(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error)
	Reset(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error)
	Copy(now vclock.Time, src []ocssd.PPA, dst ocssd.ChunkID) (int, vclock.Time, error)
	Chunk(id ocssd.ChunkID) (ocssd.ChunkInfo, error)
	Report() []ocssd.ChunkInfo
}

// Statically assert that the simulated device is a Media.
var _ Media = (*ocssd.Device)(nil)

// Config sizes the controller resource model.
type Config struct {
	// Cores is the number of general-purpose cores (per-command CPU work).
	Cores int
	// MemMBps is the memory-bus copy bandwidth in MB/s. Both OX copies
	// (network→FTL and FTL→device) cross this single bus; it is the
	// bottleneck Figure 7 demonstrates.
	MemMBps float64
	// HostMBps is the host link bandwidth (PCIe or 40GE on the DFC).
	HostMBps float64
	// HostLatency is the fixed per-transfer host link latency.
	HostLatency vclock.Duration
	// ZeroCopyRX elides the network→FTL copy (§4.4: "Avoiding data
	// copies requires support from the operating system (e.g., AF_XDP
	// zero-copy sockets) or hardware acceleration").
	ZeroCopyRX bool
}

// DefaultConfig returns a DFC-like controller: 4 ARMv8 cores, a memory
// bus that copies at 1.2 GB/s, and a 40GE host link.
func DefaultConfig() Config {
	return Config{
		Cores:       4,
		MemMBps:     1200,
		HostMBps:    5000,
		HostLatency: 10 * vclock.Microsecond,
	}
}

// Stats aggregates controller accounting.
type Stats struct {
	BytesRX       int64 // bytes copied network→FTL
	BytesToDevice int64 // bytes copied FTL→device
	BytesHost     int64 // bytes moved over the host link
	HostTransfers int64
	UserIOs       int64
	ControllerIOs int64
}

// Controller is the OX runtime: resource accounting plus the media layer.
type Controller struct {
	cfg     Config
	cores   *vclock.Pool
	memBus  *vclock.Resource
	hostBus *vclock.Resource
	media   Media

	bytesRX       metrics.Counter
	bytesToDevice metrics.Counter
	bytesHost     metrics.Counter
	hostTransfers metrics.Counter
	userIOs       metrics.Counter
	controllerIOs metrics.Counter
}

// NewController wires a controller over the given media.
func NewController(cfg Config, media Media) (*Controller, error) {
	if media == nil {
		return nil, errors.New("ox: nil media")
	}
	if cfg.Cores <= 0 {
		return nil, errors.New("ox: controller needs at least one core")
	}
	if cfg.MemMBps <= 0 || cfg.HostMBps <= 0 {
		return nil, errors.New("ox: bandwidths must be positive")
	}
	return &Controller{
		cfg:     cfg,
		cores:   vclock.NewPool("core", cfg.Cores),
		memBus:  vclock.NewResource("membus"),
		hostBus: vclock.NewResource("hostlink"),
		media:   media,
	}, nil
}

// Media exposes the bottom layer to FTLs.
func (c *Controller) Media() Media { return c.media }

// Config reports the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// HostTransfer moves n bytes over the host link, returning the virtual
// completion instant. It models the PCIe/40GE hop of a user I/O.
func (c *Controller) HostTransfer(now vclock.Time, n int64) vclock.Time {
	_, end := c.hostBus.Acquire(now, c.cfg.HostLatency+vclock.DurationFor(n, c.cfg.HostMBps))
	c.bytesHost.Add(n)
	c.hostTransfers.Inc()
	return end
}

// CopyRX performs the network-stack→FTL copy on the controller memory
// bus. With ZeroCopyRX configured it costs nothing (§4.4).
func (c *Controller) CopyRX(now vclock.Time, n int64) vclock.Time {
	if c.cfg.ZeroCopyRX {
		return now
	}
	_, end := c.memBus.Acquire(now, vclock.DurationFor(n, c.cfg.MemMBps))
	c.bytesRX.Add(n)
	return end
}

// CopyToDevice performs the FTL→device copy on the controller memory bus.
func (c *Controller) CopyToDevice(now vclock.Time, n int64) vclock.Time {
	_, end := c.memBus.Acquire(now, vclock.DurationFor(n, c.cfg.MemMBps))
	c.bytesToDevice.Add(n)
	return end
}

// CPUWork reserves one core for d of computation (mapping lookups, log
// record handling, checkpoint serialization, ...).
func (c *Controller) CPUWork(now vclock.Time, d vclock.Duration) vclock.Time {
	_, end := c.cores.Acquire(now, d)
	return end
}

// NoteUserIO counts an asynchronous user I/O (dashed lines in Figure 2).
func (c *Controller) NoteUserIO() { c.userIOs.Inc() }

// NoteControllerIO counts a synchronous controller I/O (solid lines in
// Figure 2: GC, recovery log, checkpoint, mapping persistence).
func (c *Controller) NoteControllerIO() { c.controllerIOs.Inc() }

// Utilization reports the memory-bus utilization over [0, now] — the
// quantity Figure 7 plots (the controller saturates on data copies).
func (c *Controller) Utilization(now vclock.Time) float64 {
	return c.memBus.Utilization(now)
}

// CoreUtilization reports the aggregate core-pool utilization.
func (c *Controller) CoreUtilization(now vclock.Time) float64 {
	return c.cores.Utilization(now)
}

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats {
	return Stats{
		BytesRX:       c.bytesRX.Value(),
		BytesToDevice: c.bytesToDevice.Value(),
		BytesHost:     c.bytesHost.Value(),
		HostTransfers: c.hostTransfers.Value(),
		UserIOs:       c.userIOs.Value(),
		ControllerIOs: c.controllerIOs.Value(),
	}
}

// ResetAccounting clears the resource timelines and counters, keeping
// the media untouched (used between experiment phases).
func (c *Controller) ResetAccounting() {
	c.cores.Reset()
	c.memBus.Reset()
	c.hostBus.Reset()
	c.bytesRX.Reset()
	c.bytesToDevice.Reset()
	c.bytesHost.Reset()
	c.hostTransfers.Reset()
	c.userIOs.Reset()
	c.controllerIOs.Reset()
}
