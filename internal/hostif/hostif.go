// Package hostif is the host-interface layer of the OX controller —
// the third layer of §4.1's design that parses NVMe/LightNVM commands
// arriving over queue pairs. The repo's FTL portfolio (OX-Block,
// OX-ELEOS, LightLSM, OX-ZNS) exposes bespoke blocking methods; this
// package unifies them behind one command surface so experiment
// drivers, db_bench and the cmd/ tools all speak the same protocol:
//
//   - typed Commands (Read, Write, Trim, Flush, ZoneAppend, TableRead,
//     ...) are placed in submission-queue slots and made visible with a
//     doorbell ring (batched submission = several Submits, one Ring),
//   - the Host arbitrates across submission queues deterministically
//     with NVMe-style weighted round-robin: the admin queue wins over
//     everything, urgent-class queues over the weighted classes, and
//     high/medium/low consume per-class credit bursts; within a class
//     the earliest doorbell wins and exact ties break on
//     (queueID, slot) — so the determinism contract of DESIGN.md holds
//     bit for bit,
//   - each command completes at a virtual instant computed by the
//     namespace adapter, which routes through the FTL's existing
//     ox.Controller accounting (controller CPU, memory-bus copies,
//     media reservations); the host link is charged per command when
//     the Host is configured with ChargeHostLink.
//
// The control plane is the admin queue pair (queue 0, created with the
// Host): namespace attachment, I/O queue-pair lifecycle, identify and
// log pages are typed admin commands, issued through AdminClient
// (admin.go). Completions are consumed by polling Reap/ReapAny or by
// interrupt-style notification with coalescing (notify.go); both see
// identical virtual timing.
//
// A Namespace is one FTL attached to the host; adapters for all four
// FTLs live in this package (block.go, eleos.go, zone.go, lsmns.go).
// Multiple namespaces can share one controller — NewBlockPartition
// carves disjoint LPN ranges of a single OX-Block device into
// NVMe-style namespaces for multi-tenant scenarios.
package hostif

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ocssd"
	"repro/internal/vclock"
)

// Op is a typed host-interface command opcode.
type Op uint8

// The command set: the union of the FTL portfolio's data-path
// operations. Adapters return ErrUnsupported for ops outside their
// namespace's repertoire.
const (
	// OpRead reads data: a page extent (OX-Block), one logical page
	// (OX-ELEOS) or a zone byte range (OX-ZNS).
	OpRead Op = iota + 1
	// OpWrite writes data: a transactional page extent (OX-Block) or a
	// sequential write at the zone write pointer (OX-ZNS).
	OpWrite
	// OpTrim unmaps: a page extent (OX-Block) or one page (OX-ELEOS).
	OpTrim
	// OpFlush persists volatile state: an LSS I/O buffer flush
	// (OX-ELEOS) or a forced checkpoint (OX-Block).
	OpFlush
	// OpZoneAppend appends at the zone write pointer, returning where
	// the data landed (OX-ZNS).
	OpZoneAppend
	// OpZoneReset returns a zone to empty (OX-ZNS).
	OpZoneReset
	// OpZoneFinish transitions a zone to full (OX-ZNS).
	OpZoneFinish
	// OpTableCreate provisions a new SSTable writer (LightLSM).
	OpTableCreate
	// OpTableAppend appends one block to an open SSTable writer.
	OpTableAppend
	// OpTableCommit atomically publishes an SSTable.
	OpTableCommit
	// OpTableAbort discards an open SSTable writer.
	OpTableAbort
	// OpTableRead reads one block of a committed SSTable into Dst.
	OpTableRead
	// OpTableDelete releases a committed SSTable (chunk resets).
	OpTableDelete
	// OpOffloadGet resolves a point lookup inside the device (LightLSM):
	// the controller searches one SSTable block in place and returns only
	// the value, not the block. Handle names the table, Length its block
	// count, LPN the block index, Data the key; the result comes back in
	// Result.Data (offload.EncodeGetResult framing).
	OpOffloadGet
	// OpOffloadScan runs a predicate-filtered range scan inside the
	// device (OX-Block): the controller reads [LPN, LPN+Pages) and ships
	// only matching pages over the host link. Data carries the encoded
	// offload.Predicate; the result is offload.EncodeScanResult framing.
	OpOffloadScan
	// OpOffloadCompact merges committed SSTables inside the device
	// (LightLSM): the controller iterates the inputs, drops shadowed and
	// (optionally) deleted entries and builds the output tables, charging
	// media and in-device compute but no host-link block traffic. Data
	// carries the encoded offload.CompactRequest; the result is
	// offload.EncodeCompactResult framing (output table metas).
	OpOffloadCompact
)

// Admin opcodes occupy the high opcode range and are valid only on the
// admin queue pair (queue 0). They are the control plane: everything
// that used to be a direct Go method call on the Host or an adapter is
// one of these commands.
const (
	// OpAdminIdentify reports controller identity (NSID 0) or one
	// namespace's identity and geometry (NSID ≥ 1) in Result.Admin.
	OpAdminIdentify Op = iota + 0x80
	// OpAdminGetLogPage returns the log page selected by Admin.Log —
	// controller stats, utilization, chunk/zone reports, GC stats — in
	// Result.Admin.
	OpAdminGetLogPage
	// OpAdminCreateIOQP creates an I/O queue pair with Admin.Depth and
	// Admin.Class; Result.Admin carries the *QueuePair.
	OpAdminCreateIOQP
	// OpAdminDeleteIOQP deletes the idle I/O queue pair Admin.QID.
	OpAdminDeleteIOQP
	// OpAdminNamespaceAttach attaches Admin.Attach as a namespace;
	// Result.Handle carries the assigned NSID.
	OpAdminNamespaceAttach
)

// IsAdmin reports whether o is an admin opcode (admin queue only).
func (o Op) IsAdmin() bool { return o >= OpAdminIdentify }

var opNames = map[Op]string{
	OpRead:                 "read",
	OpWrite:                "write",
	OpTrim:                 "trim",
	OpFlush:                "flush",
	OpZoneAppend:           "zone-append",
	OpZoneReset:            "zone-reset",
	OpZoneFinish:           "zone-finish",
	OpTableCreate:          "table-create",
	OpTableAppend:          "table-append",
	OpTableCommit:          "table-commit",
	OpTableAbort:           "table-abort",
	OpTableRead:            "table-read",
	OpTableDelete:          "table-delete",
	OpOffloadGet:           "offload-get",
	OpOffloadScan:          "offload-scan",
	OpOffloadCompact:       "offload-compact",
	OpAdminIdentify:        "admin-identify",
	OpAdminGetLogPage:      "admin-get-log-page",
	OpAdminCreateIOQP:      "admin-create-ioqp",
	OpAdminDeleteIOQP:      "admin-delete-ioqp",
	OpAdminNamespaceAttach: "admin-namespace-attach",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Errors returned by the host interface.
var (
	ErrQueueFull   = errors.New("hostif: submission queue full")
	ErrBadNSID     = errors.New("hostif: unknown namespace")
	ErrUnsupported = errors.New("hostif: op not supported by namespace")
	ErrBadHandle   = errors.New("hostif: unknown handle")
	// ErrCommandInFlight flags arena-command misuse: the command was
	// resubmitted before its previous completion was reaped.
	ErrCommandInFlight = errors.New("hostif: arena command resubmitted before its completion was reaped")
	// ErrCommandRecycled flags arena-command misuse: the command's slot
	// was already recycled at Reap; acquire a fresh one.
	ErrCommandRecycled = errors.New("hostif: arena command reused after recycling; call AcquireCommand again")
	// ErrAdminOnly rejects an admin command submitted to an I/O queue.
	ErrAdminOnly = errors.New("hostif: admin command on I/O queue pair")
	// ErrIOOnAdmin rejects a data command submitted to the admin queue.
	ErrIOOnAdmin = errors.New("hostif: I/O command on admin queue pair")
	// ErrQueueClosed rejects submission to a deleted queue pair.
	ErrQueueClosed = errors.New("hostif: queue pair deleted")
	// ErrQueueBusy refuses to delete a queue pair with held slots.
	ErrQueueBusy = errors.New("hostif: queue pair has unreaped or in-flight commands")
	// ErrBadQueueID flags an unknown or non-deletable queue pair id.
	ErrBadQueueID = errors.New("hostif: unknown I/O queue pair")
	// ErrBadLogPage flags a log page the target cannot serve.
	ErrBadLogPage = errors.New("hostif: log page not supported")
	// ErrBadSeek rejects a searching table read whose Seek lies outside
	// the block.
	ErrBadSeek = errors.New("hostif: seek offset outside the block")
	// ErrBadAdminPayload flags an admin completion whose payload is not
	// the type the read asked for.
	ErrBadAdminPayload = errors.New("hostif: unexpected admin payload type")
)

// Status classifies a completion's Err into an NVMe-style status class
// so drivers and recovery paths can switch on failure kind without
// unwrapping error chains.
type Status uint8

// Completion status classes.
const (
	// StatusOK is a successful command.
	StatusOK Status = iota
	// StatusInvalid is a host- or FTL-side rejection: malformed
	// address, unsupported op, bad namespace — the media was fine.
	StatusInvalid
	// StatusMediaRead is an uncorrectable NAND read error.
	StatusMediaRead
	// StatusMediaWrite is a program or erase failure; the device has
	// retired the chunk (it is now offline).
	StatusMediaWrite
	// StatusOffline is an access to a chunk already marked offline.
	StatusOffline
	// StatusPowerLoss means the device lost power mid-command; no
	// further commands will succeed until the device is reopened.
	StatusPowerLoss
	// StatusInternal is any other failure.
	StatusInternal
)

var statusNames = [...]string{
	StatusOK:         "ok",
	StatusInvalid:    "invalid",
	StatusMediaRead:  "media-read",
	StatusMediaWrite: "media-write",
	StatusOffline:    "offline",
	StatusPowerLoss:  "power-loss",
	StatusInternal:   "internal",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// StatusOf classifies an error the way the completion path does. The
// media-error classes are driven by the typed errors of the fault
// injector and the device, so recovery code observes the same taxonomy
// whether it calls an FTL directly or goes through the host interface.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, fault.ErrPowerCut):
		return StatusPowerLoss
	case errors.Is(err, fault.ErrReadError):
		return StatusMediaRead
	case errors.Is(err, fault.ErrProgramFail), errors.Is(err, fault.ErrEraseFail):
		return StatusMediaWrite
	case errors.Is(err, ocssd.ErrOffline):
		return StatusOffline
	case errors.Is(err, ErrBadNSID), errors.Is(err, ErrUnsupported),
		errors.Is(err, ErrBadHandle), errors.Is(err, ErrAdminOnly),
		errors.Is(err, ErrIOOnAdmin), errors.Is(err, ErrBadLogPage),
		errors.Is(err, ErrBadSeek),
		errors.Is(err, ocssd.ErrAddress), errors.Is(err, ocssd.ErrWritePointer),
		errors.Is(err, ocssd.ErrWriteSize), errors.Is(err, ocssd.ErrChunkState),
		errors.Is(err, ocssd.ErrChunkFull), errors.Is(err, ocssd.ErrUnwritten),
		errors.Is(err, ocssd.ErrOpenLimit), errors.Is(err, ocssd.ErrDataSize):
		return StatusInvalid
	default:
		return StatusInternal
	}
}

// Command is one submission-queue entry. Fields are interpreted per
// opcode and namespace; unused fields are ignored.
type Command struct {
	// Op selects the operation.
	Op Op
	// NSID routes the command to a namespace (1-based). Zero targets
	// namespace 1, the common single-namespace case.
	NSID int
	// LPN addresses the command: first logical page (OX-Block), logical
	// page ID (OX-ELEOS), zone byte offset (OX-ZNS) or SSTable block
	// index (OpTableRead).
	LPN int64
	// Pages is the extent length in 4 KB pages (OX-Block reads/trims).
	Pages int
	// Zone is the zone index (OX-ZNS).
	Zone int
	// Length is the byte length of an OX-ZNS read.
	Length int64
	// Handle names an open SSTable writer (OpTableAppend/Commit/Abort)
	// or a committed table (OpTableRead/Delete).
	Handle uint64
	// Data is the payload of writes, appends and flushes.
	Data []byte
	// Dst receives OpTableRead data (the lsm.Env contract reads into a
	// caller-owned buffer).
	Dst []byte
	// Key, when set on an OpTableRead, makes it a searching read: the
	// namespace reads the block and the host link carries all of it, as
	// for a plain read, but the block is searched for Key where it lies
	// and only the value is copied — appended to Dst[:0] and returned in
	// Result.Data with Result.Found/Deleted. The search form exists in
	// process only: the fabrics wire has no encoding for Key and rejects
	// a command that sets it, because over a wire the block really
	// crosses and the client searches its copy.
	Key []byte
	// Seek is where a searching OpTableRead starts its search: the byte
	// offset, within the block, of the entry header the table index
	// picked (a seek point; 0 searches the whole block). Read only
	// together with Key, so like Key it never crosses a wire. It changes
	// neither cost nor host-link bytes: the whole block is still read.
	// The namespace rejects a value outside [0, block size) with
	// ErrBadSeek.
	Seek int
	// Descs are the page descriptors of an OX-ELEOS buffer flush.
	Descs []PageDesc
	// Admin carries admin-command parameters (admin opcodes only).
	Admin AdminParams

	// reads is the executing host's read pool, set only while an OpRead
	// executes (readbuf.go).
	reads *readPool
}

// Result is what a namespace adapter reports for one executed command.
type Result struct {
	// End is the virtual completion instant.
	End vclock.Time
	// Err is the command status (nil on success).
	Err error
	// Status classifies Err (StatusOK when nil); filled by the
	// completion path, so namespace adapters may leave it zero.
	Status Status
	// Data holds read results (OpRead), or the value a searching
	// OpTableRead found. An OX-Block or OX-ZNS read's Data is lent by
	// its queue pair: it stays valid until the pair's next reaped
	// completion (readbuf.go).
	Data []byte
	// Found and Deleted are a searching OpTableRead's answer: whether
	// Command.Key is in the block, and whether its newest version is a
	// tombstone.
	Found, Deleted bool
	// Transfer is the number of bytes the command moved to the host when
	// that is not len(Data): an OpTableRead moves a whole block, whether
	// into Command.Dst or — searched in place — only to be charged.
	// Zero means len(Data).
	Transfer int64
	// Offset is where an OpZoneAppend landed.
	Offset int64
	// Handle is a created writer (OpTableCreate), committed table
	// (OpTableCommit) or assigned NSID (OpAdminNamespaceAttach).
	Handle uint64
	// Blocks is a committed table's block count (OpTableCommit).
	Blocks int
	// Admin holds an admin command's typed payload: IdentifyController,
	// NamespaceIdentity, a log page value, or the created *QueuePair.
	// Nil for data commands, so the data path never touches it.
	Admin any

	// lent marks Data as a buffer of the host's read pool.
	lent bool
}

// Completion is one completion-queue entry.
type Completion struct {
	// QueueID and Slot identify the submission (slot is the queue-local
	// command sequence number).
	QueueID int
	Slot    uint64
	// Op and NSID echo the command.
	Op   Op
	NSID int
	// Submitted is the doorbell instant; Done is the completion instant.
	Submitted vclock.Time
	Done      vclock.Time
	Result

	// cmd remembers the submitted command so Reap can recycle its arena
	// slot (nil or ignored for driver-owned commands).
	cmd *Command
}

// Latency is the command's queue-to-completion virtual latency.
func (c Completion) Latency() vclock.Duration { return c.Done.Sub(c.Submitted) }

// Namespace is one FTL attached to the host interface. Execute runs a
// single command starting at virtual instant now and reports its
// completion; adapters translate opcodes into the FTL's native calls,
// so all controller and media accounting is the FTL's own.
type Namespace interface {
	// Name identifies the namespace (diagnostics).
	Name() string
	// Execute runs cmd at now. Implementations must be deterministic:
	// equal (state, now, cmd) sequences yield equal results.
	Execute(now vclock.Time, cmd *Command) Result
	// Footprint classifies the media resources cmd will touch before it
	// executes — the execution engine's overlap oracle. The
	// returned footprint must be conservative: two commands whose
	// footprints do not Conflict may Execute concurrently, and doing so
	// must leave every result and every virtual-time reservation exactly
	// as serial seq-order execution would (the determinism contract).
	Footprint(cmd *Command) Footprint
}

// Footprint describes the serialization scope of one data command: the
// timing domain it executes in and the device groups (channels) it
// touches. The batched executor overlaps commands whose footprints
// are disjoint and serializes the rest in grant order.
//
// Domain identifies the set of shared virtual-time resources the
// command may reserve — conventionally the *ox.Controller of the FTL's
// device stack, since controller cores, the memory bus and any
// device-wide FTL lock all live under it. It must be a comparable value
// (pointers are); commands in different domains never share state and
// may always overlap. A nil Domain means "unknown": the command
// conflicts with everything.
//
// Within a domain, Exclusive marks commands that must serialize against
// every other command of the domain (device-wide FTL transactions,
// write-back-cache admission, WAL appends, GC-triggering writes).
// Non-exclusive commands carry a Groups bitmask (bit g = device group
// g): two commands whose masks are disjoint touch disjoint per-group
// channel buses and per-PU chip timelines, so their reservations
// commute. A non-exclusive footprint with an empty mask is unknown and
// is normalized to Exclusive.
type Footprint struct {
	Domain    any
	Groups    uint64
	Exclusive bool
}

// ExclusiveFootprint is the whole-domain footprint: the command
// serializes against every other command of dom.
func ExclusiveFootprint(dom any) Footprint {
	return Footprint{Domain: dom, Exclusive: true}
}

// GroupFootprint scopes a command to a single device group of dom.
// Groups beyond the mask width (≥ 64) fall back to exclusive.
func GroupFootprint(dom any, group int) Footprint {
	if group < 0 || group >= 64 {
		return ExclusiveFootprint(dom)
	}
	return Footprint{Domain: dom, Groups: 1 << uint(group)}
}

// normalize folds the unknown cases into Exclusive.
func (f Footprint) normalize() Footprint {
	if f.Domain == nil || (!f.Exclusive && f.Groups == 0) {
		f.Exclusive = true
	}
	return f
}

// Conflicts reports whether two (normalized) footprints may not
// overlap in wall-clock time.
func (f Footprint) Conflicts(g Footprint) bool {
	if f.Domain == nil || g.Domain == nil {
		return true
	}
	if f.Domain != g.Domain {
		return false
	}
	if f.Exclusive || g.Exclusive {
		return true
	}
	return f.Groups&g.Groups != 0
}
