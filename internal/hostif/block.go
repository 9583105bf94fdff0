package hostif

import (
	"fmt"

	"repro/internal/offload"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// BlockNamespace serves an OX-Block device — or an LPN partition of one
// — as a host-interface namespace. Partitions let several NVMe-style
// namespaces (tenants) share one device: each namespace addresses pages
// [0, pages) and the adapter rebases onto [base, base+pages).
type BlockNamespace struct {
	dev   *oxblock.Device
	base  int64
	pages int64
}

// NewBlockNamespace exposes the whole device as one namespace.
func NewBlockNamespace(dev *oxblock.Device) *BlockNamespace {
	return &BlockNamespace{dev: dev, pages: dev.LogicalPages()}
}

// NewBlockPartition exposes pages [base, base+pages) of dev as an
// isolated namespace.
func NewBlockPartition(dev *oxblock.Device, base, pages int64) (*BlockNamespace, error) {
	if base < 0 || pages <= 0 || base+pages > dev.LogicalPages() {
		return nil, fmt.Errorf("hostif: partition [%d,+%d) exceeds device capacity %d",
			base, pages, dev.LogicalPages())
	}
	return &BlockNamespace{dev: dev, base: base, pages: pages}, nil
}

// Name implements Namespace.
func (n *BlockNamespace) Name() string { return "oxblock" }

// identity serves AdminIdentify: a 4 KB block namespace of n.pages
// logical pages.
func (n *BlockNamespace) identity() NamespaceIdentity {
	return NamespaceIdentity{Name: n.Name(), Capacity: n.pages, BlockSize: 4096}
}

// logPage serves AdminGetLogPage: FTL counters and GC statistics.
func (n *BlockNamespace) logPage(now vclock.Time, cmd *Command) (any, error) {
	switch cmd.Admin.Log {
	case LogNamespaceStats:
		return n.dev.Stats(), nil
	case LogGCStats:
		return n.dev.GCStats(), nil
	case LogOffload:
		return n.dev.Offload().Stats(), nil
	default:
		return nil, fmt.Errorf("%w: %v on %s", ErrBadLogPage, cmd.Admin.Log, n.Name())
	}
}

// Footprint implements Namespace. Every OX-Block command is exclusive
// within its controller domain: reads, writes and trims run under the
// device-wide transaction lock and charge the shared controller core
// pool; writes additionally append to the WAL and may trigger group-
// marked GC or a checkpoint, whose media footprint is unknowable before
// execution. Partitions of one device share the domain, so tenants on
// one OX-Block device serialize exactly as the serial executor would —
// only commands on *different* controllers overlap.
func (n *BlockNamespace) Footprint(cmd *Command) Footprint {
	return ExclusiveFootprint(n.dev.Controller())
}

func (n *BlockNamespace) checkRange(lpn int64, pages int) error {
	if lpn < 0 || pages <= 0 || lpn+int64(pages) > n.pages {
		return fmt.Errorf("%w: [%d,+%d) of %d", oxblock.ErrRange, lpn, pages, n.pages)
	}
	return nil
}

// Execute implements Namespace.
func (n *BlockNamespace) Execute(now vclock.Time, cmd *Command) Result {
	switch cmd.Op {
	case OpWrite:
		pages := len(cmd.Data) / 4096
		if err := n.checkRange(cmd.LPN, pages); err != nil {
			return Result{End: now, Err: err}
		}
		end, err := n.dev.Write(now, n.base+cmd.LPN, cmd.Data)
		return Result{End: end, Err: err}
	case OpRead:
		if err := n.checkRange(cmd.LPN, cmd.Pages); err != nil {
			return Result{End: now, Err: err}
		}
		dst := cmd.readBuffer(cmd.Pages * 4096)
		end, err := n.dev.ReadInto(now, n.base+cmd.LPN, dst)
		return cmd.readResult(end, err, dst)
	case OpTrim:
		if err := n.checkRange(cmd.LPN, cmd.Pages); err != nil {
			return Result{End: now, Err: err}
		}
		end, err := n.dev.Trim(now, n.base+cmd.LPN, cmd.Pages)
		return Result{End: end, Err: err}
	case OpFlush:
		end, err := n.dev.Checkpoint(now)
		return Result{End: end, Err: err}
	case OpOffloadScan:
		if err := n.checkRange(cmd.LPN, cmd.Pages); err != nil {
			return Result{End: now, Err: err}
		}
		pred, err := offload.DecodePredicate(cmd.Data)
		if err != nil {
			return Result{End: now, Err: err}
		}
		res, end, err := n.dev.OffloadScan(now, n.base+cmd.LPN, cmd.Pages, pred)
		return Result{End: end, Err: err, Data: res}
	default:
		return Result{End: now, Err: fmt.Errorf("%w: %v on %s", ErrUnsupported, cmd.Op, n.Name())}
	}
}
