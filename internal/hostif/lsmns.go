package hostif

import (
	"fmt"

	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/offload"
	"repro/internal/vclock"
)

// LSMNamespace serves a LightLSM environment as a host-interface
// namespace. SSTable writers are NVMe-stream-like open resources: an
// OpTableCreate returns a writer handle, OpTableAppend/Commit/Abort
// address it, and OpTableCommit exchanges it for a committed table
// handle usable with OpTableRead/Delete.
type LSMNamespace struct {
	env        *lightlsm.Env
	writers    map[uint64]lsm.TableWriter
	nextWriter uint64
}

// NewLSMNamespace wraps env.
func NewLSMNamespace(env *lightlsm.Env) *LSMNamespace {
	return &LSMNamespace{env: env, writers: make(map[uint64]lsm.TableWriter)}
}

// Name implements Namespace.
func (n *LSMNamespace) Name() string { return "lightlsm" }

// identity serves AdminIdentify: the block and SSTable geometry the
// LSMClient needs to satisfy lsm.Env.
func (n *LSMNamespace) identity() NamespaceIdentity {
	return NamespaceIdentity{
		Name:           n.Name(),
		BlockSize:      n.env.BlockSize(),
		MaxTableBlocks: n.env.MaxTableBlocks(),
	}
}

// logPage serves AdminGetLogPage: FTL counters and per-table chunk
// placement (Command.Handle names the committed table).
func (n *LSMNamespace) logPage(now vclock.Time, cmd *Command) (any, error) {
	switch cmd.Admin.Log {
	case LogNamespaceStats:
		return n.env.Stats(), nil
	case LogOffload:
		return n.env.Offload().Stats(), nil
	case LogTableChunks:
		chunks, ok := n.env.TableChunks(lsm.TableID(cmd.Handle))
		if !ok {
			return nil, fmt.Errorf("%w: table %d", ErrBadHandle, cmd.Handle)
		}
		return chunks, nil
	default:
		return nil, fmt.Errorf("%w: %v on %s", ErrBadLogPage, cmd.Admin.Log, n.Name())
	}
}

// Footprint implements Namespace. LightLSM table commands are
// exclusive within their controller domain: the environment lock, the
// chunk allocator, the WAL and the adapter's own writer table are
// shared across every table, so commands of one environment never
// overlap. (The writer map below is mutated by Execute on the
// assumption that same-namespace commands are serialized — which this
// footprint is what guarantees under the batched executor.)
//
// The one exception is OpOffloadGet: its in-device path touches only
// the target block's group/PU media timelines and that group's lookup
// lane — no dispatch thread, no WAL, no writer table — so it is scoped
// to the block's device group and two offloaded lookups on disjoint
// groups may overlap. OpOffloadCompact writes tables (allocator, WAL)
// and stays exclusive.
func (n *LSMNamespace) Footprint(cmd *Command) Footprint {
	if cmd.Op == OpOffloadGet {
		if g, ok := n.env.BlockGroup(lsm.TableID(cmd.Handle), int(cmd.LPN)); ok {
			return GroupFootprint(n.env.Controller(), g)
		}
	}
	return ExclusiveFootprint(n.env.Controller())
}

func (n *LSMNamespace) writer(h uint64) (lsm.TableWriter, error) {
	w, ok := n.writers[h]
	if !ok {
		return nil, fmt.Errorf("%w: writer %d", ErrBadHandle, h)
	}
	return w, nil
}

// Execute implements Namespace.
func (n *LSMNamespace) Execute(now vclock.Time, cmd *Command) Result {
	switch cmd.Op {
	case OpTableCreate:
		w, err := n.env.CreateTable(now)
		if err != nil {
			return Result{End: now, Err: err}
		}
		n.nextWriter++
		n.writers[n.nextWriter] = w
		return Result{End: now, Handle: n.nextWriter}
	case OpTableAppend:
		w, err := n.writer(cmd.Handle)
		if err != nil {
			return Result{End: now, Err: err}
		}
		end, err := w.Append(now, cmd.Data)
		return Result{End: end, Err: err}
	case OpTableCommit:
		w, err := n.writer(cmd.Handle)
		if err != nil {
			return Result{End: now, Err: err}
		}
		h, end, err := w.Commit(now)
		if err != nil {
			return Result{End: end, Err: err}
		}
		delete(n.writers, cmd.Handle)
		return Result{End: end, Handle: uint64(h.ID), Blocks: h.Blocks}
	case OpTableAbort:
		w, err := n.writer(cmd.Handle)
		if err != nil {
			return Result{End: now, Err: err}
		}
		end, err := w.Abort(now)
		delete(n.writers, cmd.Handle)
		return Result{End: end, Err: err}
	case OpTableRead:
		h := lsm.TableHandle{ID: lsm.TableID(cmd.Handle), Blocks: int(cmd.Length)}
		if len(cmd.Key) > 0 {
			// Searching read: same cost, same bytes over the host link,
			// but only the value is materialised.
			if cmd.Seek < 0 || cmd.Seek >= n.env.BlockSize() {
				return Result{End: now, Err: fmt.Errorf("%w: %d of a %d-byte block", ErrBadSeek, cmd.Seek, n.env.BlockSize())}
			}
			v, del, found, end, err := n.env.SearchBlock(now, h, int(cmd.LPN), cmd.Seek, cmd.Key, cmd.Dst)
			return Result{End: end, Err: err, Data: v, Found: found, Deleted: del, Transfer: int64(n.env.BlockSize())}
		}
		end, err := n.env.ReadBlock(now, h, int(cmd.LPN), cmd.Dst)
		return Result{End: end, Err: err, Transfer: int64(len(cmd.Dst))}
	case OpTableDelete:
		h := lsm.TableHandle{ID: lsm.TableID(cmd.Handle), Blocks: int(cmd.Length)}
		end, err := n.env.DeleteTable(now, h)
		return Result{End: end, Err: err}
	case OpOffloadGet:
		h := lsm.TableHandle{ID: lsm.TableID(cmd.Handle), Blocks: int(cmd.Length)}
		res, end, err := n.env.OffloadGet(now, h, int(cmd.LPN), cmd.Data)
		return Result{End: end, Err: err, Data: res}
	case OpOffloadCompact:
		req, err := offload.DecodeCompactRequest(cmd.Data)
		if err != nil {
			return Result{End: now, Err: err}
		}
		res, end, err := n.env.OffloadCompact(now, req)
		return Result{End: end, Err: err, Data: res}
	default:
		return Result{End: now, Err: fmt.Errorf("%w: %v on %s", ErrUnsupported, cmd.Op, n.Name())}
	}
}
