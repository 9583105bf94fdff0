package hostif

import (
	"fmt"

	"repro/internal/ftl/ftlcore"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/ox"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// AdminParams carries the parameters of an admin command (ignored for
// data opcodes).
type AdminParams struct {
	// Log selects the page of an OpAdminGetLogPage.
	Log LogPage
	// Depth and Class size an OpAdminCreateIOQP.
	Depth int
	Class Class
	// QID names the target of an OpAdminDeleteIOQP, or — on an
	// OpAdminCreateIOQP — requests recreation of a previously deleted
	// queue pair under its original ID (0 allocates a fresh ID).
	QID int
	// Attach is the namespace of an OpAdminNamespaceAttach.
	Attach Namespace
}

// LogPage selects what an OpAdminGetLogPage returns in Result.Admin.
type LogPage uint8

const (
	// LogControllerStats returns the controller counters (ox.Stats).
	LogControllerStats LogPage = iota + 1
	// LogUtilization returns controller memory-bus and core-pool
	// utilization (UtilizationLog) computed at the command's doorbell
	// instant.
	LogUtilization
	// LogChunkReport returns the device chunk report
	// ([]ocssd.ChunkInfo) — the Open-Channel 2.0 report descriptor.
	LogChunkReport
	// LogMediaStats returns device counters (ocssd.Stats) when the
	// media exposes them.
	LogMediaStats
	// LogNamespaceStats returns the target namespace's FTL counters
	// (oxblock.Stats, oxeleos.Stats or lightlsm.Stats).
	LogNamespaceStats
	// LogZoneReport returns an OX-ZNS namespace's []zns.ZoneInfo.
	LogZoneReport
	// LogGCStats returns an OX-Block namespace's ftlcore.GCStats.
	LogGCStats
	// LogTableChunks returns the []ocssd.ChunkID backing the committed
	// LightLSM table named by Command.Handle.
	LogTableChunks
	// LogFaults returns the device fault log (ocssd.FaultLog): injected
	// fault counters, grown-bad chunk count and the recent retirement
	// ring, when the media keeps one.
	LogFaults
	// LogExecutor returns the execution-engine counters (ExecutorLog):
	// grants, dispatches, realized overlap, barrier and conflict stalls.
	LogExecutor
	// LogOffload returns the target namespace's computational-storage
	// counters (offload.Stats): offload command counts, host-link bytes
	// saved against the host-side alternative, and in-device compute
	// time.
	LogOffload
)

// IdentifyController is the OpAdminIdentify payload for NSID 0.
type IdentifyController struct {
	// Geometry is the Open-Channel device geometry.
	Geometry ocssd.Geometry
	// Controller is the OX controller resource configuration.
	Controller ox.Config
	// Namespaces is the number of attached namespaces.
	Namespaces int
	// IOQueuePairs is the number of live I/O queue pairs.
	IOQueuePairs int
	// AdminDepth is the admin queue depth.
	AdminDepth int
	// Weights are the active WRR arbitration bursts.
	Weights Weights
	// Executor is the active command-service engine; Workers is its
	// worker-pool size (0 for the serial executor).
	Executor ExecutorKind
	Workers  int
}

// NamespaceIdentity is the OpAdminIdentify payload for NSID ≥ 1. Only
// the fields meaningful for the namespace's FTL are set.
type NamespaceIdentity struct {
	// NSID and Name identify the namespace.
	NSID int
	Name string
	// Capacity is the namespace size in 4 KB logical pages (OX-Block).
	Capacity int64
	// BlockSize is the unit of transfer in bytes (LightLSM and OX-ZNS
	// blocks; 4096 for OX-Block pages).
	BlockSize int
	// MaxTableBlocks is the SSTable capacity in blocks (LightLSM).
	MaxTableBlocks int
	// Zones and ZoneCapacity describe an OX-ZNS namespace.
	Zones        int
	ZoneCapacity int64
	// BufferBytes is the LSS I/O buffer size (OX-ELEOS).
	BufferBytes int
}

// UtilizationLog is the LogUtilization payload.
type UtilizationLog struct {
	// MemBus is memory-bus utilization in [0, 1] at the log instant.
	MemBus float64
	// Core is core-pool utilization in [0, 1] at the log instant.
	Core float64
}

// identifier is implemented by namespace adapters that can fill a
// NamespaceIdentity; others identify by name alone.
type identifier interface {
	identity() NamespaceIdentity
}

// logPager is implemented by namespace adapters serving log pages.
type logPager interface {
	logPage(now vclock.Time, cmd *Command) (any, error)
}

// mediaStats is the optional Media extension behind LogMediaStats.
type mediaStats interface {
	Stats() ocssd.Stats
}

// faultLogger is the optional Media extension behind LogFaults.
type faultLogger interface {
	FaultLog() ocssd.FaultLog
}

// execAdmin runs one admin command at virtual instant now. Admin
// commands are host-memory operations: they complete instantly in
// virtual time, so control-plane traffic never perturbs data-path
// timing. Caller holds execMu.
func (h *Host) execAdmin(now vclock.Time, cmd *Command) Result {
	res := Result{End: now}
	switch cmd.Op {
	case OpAdminIdentify:
		if cmd.NSID == 0 {
			id := IdentifyController{
				Geometry:     h.ctrl.Media().Geometry(),
				Controller:   h.ctrl.Config(),
				Namespaces:   len(h.namespaces()),
				IOQueuePairs: len(h.queuePairs()) - 1,
				AdminDepth:   h.adminQP.depth,
				Weights:      h.weights,
			}
			log := h.executorLog()
			id.Executor, id.Workers = log.Executor, log.Workers
			res.Admin = id
			return res
		}
		ns, err := h.namespaceOf(cmd.NSID)
		if err != nil {
			res.Err = err
			return res
		}
		id := NamespaceIdentity{Name: ns.Name()}
		if i, ok := ns.(identifier); ok {
			id = i.identity()
		}
		id.NSID = cmd.NSID
		res.Admin = id
	case OpAdminGetLogPage:
		res.Admin, res.Err = h.logPage(now, cmd)
	case OpAdminCreateIOQP:
		if cmd.Admin.QID != 0 {
			qp, err := h.reopenQueuePair(cmd.Admin.QID, cmd.Admin.Depth, cmd.Admin.Class)
			if err != nil {
				res.Err = err
				return res
			}
			res.Admin = qp
			return res
		}
		res.Admin = h.openQueuePair(cmd.Admin.Depth, cmd.Admin.Class)
	case OpAdminDeleteIOQP:
		res.Err = h.deleteQueuePair(cmd.Admin.QID)
	case OpAdminNamespaceAttach:
		if cmd.Admin.Attach == nil {
			res.Err = fmt.Errorf("%w: nil namespace", ErrBadNSID)
			return res
		}
		res.Handle = uint64(h.attachNamespace(cmd.Admin.Attach))
	default:
		res.Err = fmt.Errorf("%w: %v", ErrUnsupported, cmd.Op)
	}
	return res
}

// logPage serves one OpAdminGetLogPage. Controller- and device-scoped
// pages are handled here; namespace-scoped pages route to the adapter.
func (h *Host) logPage(now vclock.Time, cmd *Command) (any, error) {
	switch cmd.Admin.Log {
	case LogControllerStats:
		return h.ctrl.Stats(), nil
	case LogUtilization:
		return UtilizationLog{
			MemBus: h.ctrl.Utilization(now),
			Core:   h.ctrl.CoreUtilization(now),
		}, nil
	case LogChunkReport:
		return h.ctrl.Media().Report(), nil
	case LogMediaStats:
		m, ok := h.ctrl.Media().(mediaStats)
		if !ok {
			return nil, fmt.Errorf("%w: media has no stats", ErrBadLogPage)
		}
		return m.Stats(), nil
	case LogFaults:
		m, ok := h.ctrl.Media().(faultLogger)
		if !ok {
			return nil, fmt.Errorf("%w: media has no fault log", ErrBadLogPage)
		}
		return m.FaultLog(), nil
	case LogExecutor:
		return h.executorLog(), nil
	}
	ns, err := h.namespaceOf(cmd.NSID)
	if err != nil {
		return nil, err
	}
	lp, ok := ns.(logPager)
	if !ok {
		return nil, fmt.Errorf("%w: %v on %s", ErrBadLogPage, cmd.Admin.Log, ns.Name())
	}
	return lp.logPage(now, cmd)
}

// AdminClient issues typed admin commands over the host's admin queue
// pair (queue 0) and reaps each completion synchronously — the way
// cmd/oxctl and the experiment drivers manage namespaces, queue pairs
// and diagnostics. One client is a single host actor; concurrent
// control-plane callers should each hold their own reference serialized
// externally (the experiment drivers issue admin commands only at
// setup and teardown).
type AdminClient struct {
	qp *QueuePair
}

// Admin returns the host's admin-queue client.
func (h *Host) Admin() *AdminClient { return &AdminClient{qp: h.adminQP} }

// Queue exposes the raw admin queue pair for callers that stage their
// own admin submissions (tests of admin/IO arbitration interleaving).
func (a *AdminClient) Queue() *QueuePair { return a.qp }

// do issues one admin command synchronously through the admin queue's
// arena.
func (a *AdminClient) do(now vclock.Time, cmd Command) (Completion, error) {
	ac := a.qp.AcquireCommand()
	*ac = cmd
	if err := a.qp.Push(now, ac); err != nil {
		return Completion{}, err
	}
	comp := a.qp.MustReap()
	return comp, comp.Err
}

// Identify reports the controller identity: geometry, resource
// configuration, attachment and queue counts, arbitration weights.
func (a *AdminClient) Identify(now vclock.Time) (IdentifyController, error) {
	comp, err := a.do(now, Command{Op: OpAdminIdentify})
	if err != nil {
		return IdentifyController{}, err
	}
	return comp.Admin.(IdentifyController), nil
}

// IdentifyNamespace reports one namespace's identity and geometry.
func (a *AdminClient) IdentifyNamespace(now vclock.Time, nsid int) (NamespaceIdentity, error) {
	comp, err := a.do(now, Command{Op: OpAdminIdentify, NSID: nsid})
	if err != nil {
		return NamespaceIdentity{}, err
	}
	return comp.Admin.(NamespaceIdentity), nil
}

// AttachNamespace attaches ns and returns its NSID (1-based).
func (a *AdminClient) AttachNamespace(now vclock.Time, ns Namespace) (int, error) {
	comp, err := a.do(now, Command{Op: OpAdminNamespaceAttach, Admin: AdminParams{Attach: ns}})
	if err != nil {
		return 0, err
	}
	return int(comp.Handle), nil
}

// CreateIOQueuePair creates an I/O queue pair with the given depth
// (minimum 1) and arbitration class.
func (a *AdminClient) CreateIOQueuePair(now vclock.Time, depth int, class Class) (*QueuePair, error) {
	comp, err := a.do(now, Command{
		Op:    OpAdminCreateIOQP,
		Admin: AdminParams{Depth: depth, Class: class},
	})
	if err != nil {
		return nil, err
	}
	return comp.Admin.(*QueuePair), nil
}

// RecreateIOQueuePair recreates a deleted I/O queue pair under its
// original ID qid — session-scoped queue-pair resurrection for fabric
// reconnects. The ID must have been issued by an earlier create and
// must not be live; the recreated pair keeps the original arbitration
// tie-break identity.
func (a *AdminClient) RecreateIOQueuePair(now vclock.Time, qid, depth int, class Class) (*QueuePair, error) {
	if qid <= 0 {
		return nil, fmt.Errorf("%w: queue %d is not recreatable", ErrBadQueueID, qid)
	}
	comp, err := a.do(now, Command{
		Op:    OpAdminCreateIOQP,
		Admin: AdminParams{QID: qid, Depth: depth, Class: class},
	})
	if err != nil {
		return nil, err
	}
	return comp.Admin.(*QueuePair), nil
}

// DeleteIOQueuePair deletes qp. The queue must be idle: every slot
// reaped, nothing staged or visible (ErrQueueBusy otherwise).
func (a *AdminClient) DeleteIOQueuePair(now vclock.Time, qp *QueuePair) error {
	_, err := a.do(now, Command{Op: OpAdminDeleteIOQP, Admin: AdminParams{QID: qp.id}})
	return err
}

// GetLogPage returns the selected log page; nsid is 0 for controller-
// and device-scoped pages.
func (a *AdminClient) GetLogPage(now vclock.Time, page LogPage, nsid int) (any, error) {
	comp, err := a.do(now, Command{
		Op:    OpAdminGetLogPage,
		NSID:  nsid,
		Admin: AdminParams{Log: page},
	})
	if err != nil {
		return nil, err
	}
	return comp.Admin, nil
}

// ControllerStats returns the controller counters log page.
func (a *AdminClient) ControllerStats(now vclock.Time) (ox.Stats, error) {
	v, err := a.GetLogPage(now, LogControllerStats, 0)
	if err != nil {
		return ox.Stats{}, err
	}
	return v.(ox.Stats), nil
}

// Utilization returns controller memory-bus and core utilization at
// virtual instant now.
func (a *AdminClient) Utilization(now vclock.Time) (UtilizationLog, error) {
	v, err := a.GetLogPage(now, LogUtilization, 0)
	if err != nil {
		return UtilizationLog{}, err
	}
	return v.(UtilizationLog), nil
}

// ChunkReport returns the device's Open-Channel chunk report.
func (a *AdminClient) ChunkReport(now vclock.Time) ([]ocssd.ChunkInfo, error) {
	v, err := a.GetLogPage(now, LogChunkReport, 0)
	if err != nil {
		return nil, err
	}
	return v.([]ocssd.ChunkInfo), nil
}

// MediaStats returns the device counters log page.
func (a *AdminClient) MediaStats(now vclock.Time) (ocssd.Stats, error) {
	v, err := a.GetLogPage(now, LogMediaStats, 0)
	if err != nil {
		return ocssd.Stats{}, err
	}
	return v.(ocssd.Stats), nil
}

// FaultLog returns the device fault log page.
func (a *AdminClient) FaultLog(now vclock.Time) (ocssd.FaultLog, error) {
	v, err := a.GetLogPage(now, LogFaults, 0)
	if err != nil {
		return ocssd.FaultLog{}, err
	}
	return v.(ocssd.FaultLog), nil
}

// ExecutorStats returns the execution-engine log page: which engine is
// serving commands and, for the batched executor, how much overlap the
// worker pool realized.
func (a *AdminClient) ExecutorStats(now vclock.Time) (ExecutorLog, error) {
	v, err := a.GetLogPage(now, LogExecutor, 0)
	if err != nil {
		return ExecutorLog{}, err
	}
	return v.(ExecutorLog), nil
}

// OffloadStats returns a namespace's computational-storage counters
// log page.
func (a *AdminClient) OffloadStats(now vclock.Time, nsid int) (offload.Stats, error) {
	v, err := a.GetLogPage(now, LogOffload, nsid)
	if err != nil {
		return offload.Stats{}, err
	}
	return v.(offload.Stats), nil
}

// NamespaceStats returns a namespace's FTL counters; the concrete type
// depends on the adapter (oxblock.Stats, oxeleos.Stats, lightlsm.Stats).
func (a *AdminClient) NamespaceStats(now vclock.Time, nsid int) (any, error) {
	return a.GetLogPage(now, LogNamespaceStats, nsid)
}

// ZoneReport returns an OX-ZNS namespace's zone report.
func (a *AdminClient) ZoneReport(now vclock.Time, nsid int) ([]zns.ZoneInfo, error) {
	v, err := a.GetLogPage(now, LogZoneReport, nsid)
	if err != nil {
		return nil, err
	}
	return v.([]zns.ZoneInfo), nil
}

// GCStats returns an OX-Block namespace's garbage-collection counters.
func (a *AdminClient) GCStats(now vclock.Time, nsid int) (ftlcore.GCStats, error) {
	v, err := a.GetLogPage(now, LogGCStats, nsid)
	if err != nil {
		return ftlcore.GCStats{}, err
	}
	return v.(ftlcore.GCStats), nil
}

// TableChunks returns the chunks backing a committed LightLSM table.
func (a *AdminClient) TableChunks(now vclock.Time, nsid int, table uint64) ([]ocssd.ChunkID, error) {
	comp, err := a.do(now, Command{
		Op:     OpAdminGetLogPage,
		NSID:   nsid,
		Handle: table,
		Admin:  AdminParams{Log: LogTableChunks},
	})
	if err != nil {
		return nil, err
	}
	return comp.Admin.([]ocssd.ChunkID), nil
}
