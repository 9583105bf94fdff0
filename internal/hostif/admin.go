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

// AdminTransport carries one admin command to a controller and
// returns its completion: the in-process admin queue pair, or a fabric
// admin connection. A fabric carries only the remotable subset —
// identify and get-log-page, with Op, NSID, Handle and Admin.Log — and
// its server rejects every other opcode.
type AdminTransport interface {
	RoundTrip(now vclock.Time, cmd Command) (Completion, error)
}

// AdminReader issues the typed admin reads — identify and the log
// pages — over any AdminTransport, so oxctl and the experiment drivers
// read a controller the same way in process and over a fabric.
type AdminReader struct {
	t AdminTransport
}

// NewAdminReader returns the typed admin reads over t.
func NewAdminReader(t AdminTransport) *AdminReader { return &AdminReader{t: t} }

// adminRead runs one admin read and asserts its payload's type: a
// transport that delivers anything else yields ErrBadAdminPayload,
// never a panic.
func adminRead[T any](r *AdminReader, now vclock.Time, cmd Command) (T, error) {
	var zero T
	comp, err := r.t.RoundTrip(now, cmd)
	if err != nil {
		return zero, err
	}
	v, ok := comp.Admin.(T)
	if !ok {
		return zero, fmt.Errorf("%w: %v returned %T", ErrBadAdminPayload, cmd.Op, comp.Admin)
	}
	return v, nil
}

// logPage reads one typed log page.
func logPage[T any](r *AdminReader, now vclock.Time, page LogPage, nsid int) (T, error) {
	return adminRead[T](r, now, Command{Op: OpAdminGetLogPage, NSID: nsid, Admin: AdminParams{Log: page}})
}

// Identify reports the controller identity: geometry, resource
// configuration, attachment and queue counts, arbitration weights.
func (r *AdminReader) Identify(now vclock.Time) (IdentifyController, error) {
	return adminRead[IdentifyController](r, now, Command{Op: OpAdminIdentify})
}

// IdentifyNamespace reports one namespace's identity and geometry.
func (r *AdminReader) IdentifyNamespace(now vclock.Time, nsid int) (NamespaceIdentity, error) {
	return adminRead[NamespaceIdentity](r, now, Command{Op: OpAdminIdentify, NSID: nsid})
}

// GetLogPage returns the selected log page; nsid is 0 for controller-
// and device-scoped pages.
func (r *AdminReader) GetLogPage(now vclock.Time, page LogPage, nsid int) (any, error) {
	comp, err := r.t.RoundTrip(now, Command{Op: OpAdminGetLogPage, NSID: nsid, Admin: AdminParams{Log: page}})
	return comp.Admin, err
}

// ControllerStats returns the controller counters log page.
func (r *AdminReader) ControllerStats(now vclock.Time) (ox.Stats, error) {
	return logPage[ox.Stats](r, now, LogControllerStats, 0)
}

// Utilization returns controller memory-bus and core utilization at
// virtual instant now.
func (r *AdminReader) Utilization(now vclock.Time) (UtilizationLog, error) {
	return logPage[UtilizationLog](r, now, LogUtilization, 0)
}

// ChunkReport returns the device's Open-Channel chunk report.
func (r *AdminReader) ChunkReport(now vclock.Time) ([]ocssd.ChunkInfo, error) {
	return logPage[[]ocssd.ChunkInfo](r, now, LogChunkReport, 0)
}

// MediaStats returns the device counters log page.
func (r *AdminReader) MediaStats(now vclock.Time) (ocssd.Stats, error) {
	return logPage[ocssd.Stats](r, now, LogMediaStats, 0)
}

// FaultLog returns the device fault log page.
func (r *AdminReader) FaultLog(now vclock.Time) (ocssd.FaultLog, error) {
	return logPage[ocssd.FaultLog](r, now, LogFaults, 0)
}

// ExecutorStats returns the execution-engine log page: which engine is
// serving commands and, for the batched executor, how much overlap the
// worker pool realized.
func (r *AdminReader) ExecutorStats(now vclock.Time) (ExecutorLog, error) {
	return logPage[ExecutorLog](r, now, LogExecutor, 0)
}

// OffloadStats returns a namespace's computational-storage counters
// log page.
func (r *AdminReader) OffloadStats(now vclock.Time, nsid int) (offload.Stats, error) {
	return logPage[offload.Stats](r, now, LogOffload, nsid)
}

// NamespaceStats returns a namespace's FTL counters; the concrete type
// depends on the adapter (oxblock.Stats, oxeleos.Stats, lightlsm.Stats).
func (r *AdminReader) NamespaceStats(now vclock.Time, nsid int) (any, error) {
	return r.GetLogPage(now, LogNamespaceStats, nsid)
}

// ZoneReport returns an OX-ZNS namespace's zone report.
func (r *AdminReader) ZoneReport(now vclock.Time, nsid int) ([]zns.ZoneInfo, error) {
	return logPage[[]zns.ZoneInfo](r, now, LogZoneReport, nsid)
}

// GCStats returns an OX-Block namespace's garbage-collection counters.
func (r *AdminReader) GCStats(now vclock.Time, nsid int) (ftlcore.GCStats, error) {
	return logPage[ftlcore.GCStats](r, now, LogGCStats, nsid)
}

// TableChunks returns the chunks backing a committed LightLSM table.
func (r *AdminReader) TableChunks(now vclock.Time, nsid int, table uint64) ([]ocssd.ChunkID, error) {
	return adminRead[[]ocssd.ChunkID](r, now, Command{
		Op: OpAdminGetLogPage, NSID: nsid, Handle: table, Admin: AdminParams{Log: LogTableChunks},
	})
}

// AdminClient issues typed admin commands over the host's admin queue
// pair (queue 0) and reaps each completion synchronously — the way
// cmd/oxctl and the experiment drivers manage namespaces, queue pairs
// and diagnostics. Besides the admin reads it carries the lifecycle
// commands, which need an in-process host: namespace attach and I/O
// queue-pair create, recreate and delete. One client is a single host
// actor; concurrent control-plane callers should each hold their own
// reference serialized externally (the experiment drivers issue admin
// commands only at setup and teardown).
type AdminClient struct {
	*AdminReader
	qp *QueuePair
}

// Admin returns the host's admin-queue client.
func (h *Host) Admin() *AdminClient {
	a := &AdminClient{qp: h.adminQP}
	a.AdminReader = NewAdminReader(a)
	return a
}

// Queue exposes the raw admin queue pair for callers that stage their
// own admin submissions (tests of admin/IO arbitration interleaving).
func (a *AdminClient) Queue() *QueuePair { return a.qp }

// RoundTrip implements AdminTransport over the admin queue pair.
func (a *AdminClient) RoundTrip(now vclock.Time, cmd Command) (Completion, error) {
	return roundTrip(a.qp, now, cmd)
}

// AttachNamespace attaches ns and returns its NSID (1-based).
func (a *AdminClient) AttachNamespace(now vclock.Time, ns Namespace) (int, error) {
	comp, err := a.RoundTrip(now, Command{Op: OpAdminNamespaceAttach, Admin: AdminParams{Attach: ns}})
	if err != nil {
		return 0, err
	}
	return int(comp.Handle), nil
}

// CreateIOQueuePair creates an I/O queue pair with the given depth
// (minimum 1) and arbitration class.
func (a *AdminClient) CreateIOQueuePair(now vclock.Time, depth int, class Class) (*QueuePair, error) {
	return adminRead[*QueuePair](a.AdminReader, now, Command{
		Op:    OpAdminCreateIOQP,
		Admin: AdminParams{Depth: depth, Class: class},
	})
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
	return adminRead[*QueuePair](a.AdminReader, now, Command{
		Op:    OpAdminCreateIOQP,
		Admin: AdminParams{QID: qid, Depth: depth, Class: class},
	})
}

// DeleteIOQueuePair deletes qp. The queue must be idle: every slot
// reaped, nothing staged or visible (ErrQueueBusy otherwise).
func (a *AdminClient) DeleteIOQueuePair(now vclock.Time, qp *QueuePair) error {
	_, err := a.RoundTrip(now, Command{Op: OpAdminDeleteIOQP, Admin: AdminParams{QID: qp.id}})
	return err
}
