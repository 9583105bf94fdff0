package hostif

import (
	"fmt"

	"repro/internal/vclock"
	"repro/internal/zns"
)

// ZoneNamespace serves an OX-ZNS target as a host-interface namespace
// with the NVMe ZNS command set: OpZoneAppend, write-at-write-pointer
// (OpWrite), zone reads (OpRead), OpZoneReset and OpZoneFinish.
type ZoneNamespace struct {
	tgt *zns.Target
}

// NewZoneNamespace wraps tgt.
func NewZoneNamespace(tgt *zns.Target) *ZoneNamespace {
	return &ZoneNamespace{tgt: tgt}
}

// Name implements Namespace.
func (n *ZoneNamespace) Name() string { return "oxzns" }

// identity serves AdminIdentify: the zoned geometry.
func (n *ZoneNamespace) identity() NamespaceIdentity {
	return NamespaceIdentity{
		Name:         n.Name(),
		BlockSize:    n.tgt.BlockSize(),
		Zones:        n.tgt.Zones(),
		ZoneCapacity: n.tgt.ZoneCapacity(),
	}
}

// logPage serves AdminGetLogPage: the NVMe ZNS zone report.
func (n *ZoneNamespace) logPage(now vclock.Time, cmd *Command) (any, error) {
	switch cmd.Admin.Log {
	case LogZoneReport:
		return n.tgt.Report(), nil
	default:
		return nil, fmt.Errorf("%w: %v on %s", ErrBadLogPage, cmd.Admin.Log, n.Name())
	}
}

// Footprint implements Namespace. A zone is confined to one device
// group, so a zone command's media footprint is exactly that group:
// the per-group channel bus, the group's per-PU chip timelines and the
// zone's own state. Commands on zones in different groups share
// nothing and overlap freely under the batched executor — the §2.2
// "parallel units never interfere" argument, end to end. Writes on a
// device with a write-back cache are the exception (cache admission is
// device-global), so they fall back to exclusive; reads never touch
// the cache tracker and stay group-scoped on any device. Out-of-range
// zones and foreign opcodes are unknown → exclusive.
func (n *ZoneNamespace) Footprint(cmd *Command) Footprint {
	dom := n.tgt.Controller()
	switch cmd.Op {
	case OpRead:
	case OpWrite, OpZoneAppend, OpZoneReset, OpZoneFinish:
		if !n.tgt.ConcurrentWriteSafe() {
			return ExclusiveFootprint(dom)
		}
	default:
		return ExclusiveFootprint(dom)
	}
	g, ok := n.tgt.ZoneGroup(cmd.Zone)
	if !ok {
		return ExclusiveFootprint(dom)
	}
	return GroupFootprint(dom, g)
}

// Execute implements Namespace.
func (n *ZoneNamespace) Execute(now vclock.Time, cmd *Command) Result {
	switch cmd.Op {
	case OpZoneAppend:
		off, end, err := n.tgt.Append(now, cmd.Zone, cmd.Data)
		return Result{End: end, Err: err, Offset: off}
	case OpWrite:
		end, err := n.tgt.Write(now, cmd.Zone, cmd.LPN, cmd.Data)
		return Result{End: end, Err: err}
	case OpRead:
		if cmd.Length > n.tgt.ZoneCapacity() {
			// No zone holds more; a bogus length must not size a buffer.
			return Result{End: now, Err: fmt.Errorf("%w: [%d,+%d) beyond zone capacity %d",
				zns.ErrUnwritten, cmd.LPN, cmd.Length, n.tgt.ZoneCapacity())}
		}
		dst := cmd.readBuffer(int(max(cmd.Length, 0)))
		end, err := n.tgt.ReadInto(now, cmd.Zone, cmd.LPN, dst)
		return cmd.readResult(end, err, dst)
	case OpZoneReset:
		end, err := n.tgt.Reset(now, cmd.Zone)
		return Result{End: end, Err: err}
	case OpZoneFinish:
		end, err := n.tgt.Finish(now, cmd.Zone)
		return Result{End: end, Err: err}
	default:
		return Result{End: now, Err: fmt.Errorf("%w: %v on %s", ErrUnsupported, cmd.Op, n.Name())}
	}
}
