package hostif

import (
	"fmt"

	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/offload"
	"repro/internal/vclock"
)

// EnvClient implements lsm.Env by issuing host-interface commands over
// a queue pair — the mini-RocksDB then drives the LightLSM FTL the way
// RocksDB drives an NVMe device: every SSTable flush block, block read
// and table delete is a typed command through the submission queue.
// Calls are synchronous, so the adapter adds no virtual time of its
// own and preserves the FTL's exact accounting. Completions are
// consumed by polling Reap, or — after EnableNotify — by interrupt-
// style notification, with identical virtual timing.
//
// EnvClient is driven by one actor at a time, matching the LSM's
// single-dispatch design (§4.3).
type EnvClient struct {
	qp        *QueuePair
	nsid      int
	blockSize int
	maxBlocks int

	// Notification mode (EnableNotify): the registered callback reaps
	// into comp/gotComp instead of do() polling MustReap.
	notify  bool
	comp    Completion
	gotComp bool
}

// Statically assert EnvClient implements lsm.Env and can search in
// place (in process the namespace sees the caller's key and buffer).
var (
	_ lsm.Env           = (*EnvClient)(nil)
	_ lsm.BlockSearcher = (*EnvClient)(nil)
)

// NewEnvClient builds a client over qp for the namespace attached
// under nsid, with the block geometry from its admin identity.
func NewEnvClient(qp *QueuePair, nsid int, id NamespaceIdentity) *EnvClient {
	return &EnvClient{
		qp:        qp,
		nsid:      nsid,
		blockSize: id.BlockSize,
		maxBlocks: id.MaxTableBlocks,
	}
}

// AttachLSM wires env into h over the admin queue — namespace attach,
// I/O queue-pair creation (depth 1, medium class) and the identify
// that reads the block geometry are all admin commands — and returns
// the lsm.Env client: the one-call setup for running the mini-RocksDB
// over queue pairs.
func AttachLSM(h *Host, env *lightlsm.Env) (*EnvClient, error) {
	admin := h.Admin()
	nsid, err := admin.AttachNamespace(0, NewLSMNamespace(env))
	if err != nil {
		return nil, fmt.Errorf("hostif: attaching lightlsm namespace: %w", err)
	}
	qp, err := admin.CreateIOQueuePair(0, 1, ClassMedium)
	if err != nil {
		return nil, fmt.Errorf("hostif: creating lightlsm queue pair: %w", err)
	}
	id, err := admin.IdentifyNamespace(0, nsid)
	if err != nil {
		return nil, fmt.Errorf("hostif: identifying lightlsm namespace: %w", err)
	}
	return NewEnvClient(qp, nsid, id), nil
}

// EnableNotify switches the client from polling to interrupt-style
// completion: each command is submitted, the host drains, and the
// completion arrives through the queue pair's notification callback
// (coalescing threshold 1 — the client is synchronous, one command in
// flight). Virtual timing is identical to polling.
func (c *EnvClient) EnableNotify() {
	c.notify = true
	c.qp.SetNotify(1, func(n Notification) {
		if comp, ok := c.qp.Reap(); ok {
			c.comp, c.gotComp = comp, true
		}
	})
}

// do issues one command synchronously. The command storage comes from
// the queue pair's arena and is recycled at the reap, so the client is
// single-actor, fully synchronous and allocation-free at steady state.
func (c *EnvClient) do(now vclock.Time, cmd Command) (Completion, error) {
	ac := c.qp.AcquireCommand()
	*ac = cmd
	ac.NSID = c.nsid
	if err := c.qp.Push(now, ac); err != nil {
		return Completion{}, err
	}
	if c.notify {
		c.gotComp = false
		c.qp.host.Drain()
		if !c.gotComp {
			panic("hostif: EnvClient notification did not deliver a completion")
		}
		return c.comp, c.comp.Err
	}
	comp := c.qp.MustReap()
	return comp, comp.Err
}

// NSID reports the namespace the client is bound to (admin log pages).
func (c *EnvClient) NSID() int { return c.nsid }

// BlockSize implements lsm.Env.
func (c *EnvClient) BlockSize() int { return c.blockSize }

// MaxTableBlocks implements lsm.Env.
func (c *EnvClient) MaxTableBlocks() int { return c.maxBlocks }

// CreateTable implements lsm.Env.
func (c *EnvClient) CreateTable(now vclock.Time) (lsm.TableWriter, error) {
	comp, err := c.do(now, Command{Op: OpTableCreate})
	if err != nil {
		return nil, err
	}
	return &writerClient{env: c, handle: comp.Handle}, nil
}

// ReadBlock implements lsm.Env.
func (c *EnvClient) ReadBlock(now vclock.Time, h lsm.TableHandle, block int, dst []byte) (vclock.Time, error) {
	comp, err := c.do(now, Command{
		Op:     OpTableRead,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
		LPN:    int64(block),
		Dst:    dst,
	})
	return comp.Done, err
}

// SearchBlock implements lsm.BlockSearcher with the searching form of
// OpTableRead: the same opcode, cost and host-link bytes as ReadBlock,
// but the namespace searches the block where it lies and copies only
// key's value, into dst.
func (c *EnvClient) SearchBlock(now vclock.Time, h lsm.TableHandle, block int, key, dst []byte) (value []byte, deleted, found bool, end vclock.Time, err error) {
	comp, err := c.do(now, Command{
		Op:     OpTableRead,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
		LPN:    int64(block),
		Key:    key,
		Dst:    dst,
	})
	if err != nil {
		return nil, false, false, comp.Done, err
	}
	return comp.Data, comp.Deleted, comp.Found, comp.Done, nil
}

// OffloadGet issues an in-device point lookup: the device searches one
// SSTable block for key and only the (flags, value) result crosses the
// host link, instead of the full block. The signature matches
// lsm.Options.Lookup, so wiring `Lookup: env.OffloadGet` switches the
// mini-RocksDB's read path to computational storage.
func (c *EnvClient) OffloadGet(now vclock.Time, h lsm.TableHandle, block int, key []byte) (value []byte, deleted, found bool, end vclock.Time, err error) {
	comp, err := c.do(now, Command{
		Op:     OpOffloadGet,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
		LPN:    int64(block),
		Data:   key,
	})
	if err != nil {
		return nil, false, false, comp.Done, err
	}
	value, deleted, found, err = offload.DecodeGetResult(comp.Data)
	return value, deleted, found, comp.Done, err
}

// OffloadCompact issues an in-device compaction: the device merges the
// input SSTables media-side and only the output table metadata crosses
// the host link. The signature matches lsm.Options.Compactor, so wiring
// `Compactor: env.OffloadCompact` offloads the LSM's merge work.
func (c *EnvClient) OffloadCompact(now vclock.Time, inputs []lsm.TableHandle, bitsPerKey int, dropDeletes bool) ([]*lsm.TableMeta, vclock.Time, error) {
	refs := make([]offload.TableRef, len(inputs))
	for i, h := range inputs {
		refs[i] = offload.TableRef{ID: uint64(h.ID), Blocks: uint32(h.Blocks)}
	}
	req := offload.CompactRequest{Inputs: refs, DropDeletes: dropDeletes, BitsPerKey: uint16(bitsPerKey)}
	comp, err := c.do(now, Command{Op: OpOffloadCompact, Data: req.Encode()})
	if err != nil {
		return nil, comp.Done, err
	}
	blobs, err := offload.DecodeCompactResult(comp.Data)
	if err != nil {
		return nil, comp.Done, err
	}
	metas := make([]*lsm.TableMeta, len(blobs))
	for i, b := range blobs {
		if metas[i], err = lsm.UnmarshalTableMeta(b); err != nil {
			return nil, comp.Done, err
		}
	}
	return metas, comp.Done, nil
}

// DeleteTable implements lsm.Env.
func (c *EnvClient) DeleteTable(now vclock.Time, h lsm.TableHandle) (vclock.Time, error) {
	comp, err := c.do(now, Command{
		Op:     OpTableDelete,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
	})
	return comp.Done, err
}

// writerClient implements lsm.TableWriter over the queue pair.
type writerClient struct {
	env    *EnvClient
	handle uint64
}

// Append implements lsm.TableWriter.
func (w *writerClient) Append(now vclock.Time, block []byte) (vclock.Time, error) {
	comp, err := w.env.do(now, Command{Op: OpTableAppend, Handle: w.handle, Data: block})
	return comp.Done, err
}

// Commit implements lsm.TableWriter.
func (w *writerClient) Commit(now vclock.Time) (lsm.TableHandle, vclock.Time, error) {
	comp, err := w.env.do(now, Command{Op: OpTableCommit, Handle: w.handle})
	if err != nil {
		return lsm.TableHandle{}, comp.Done, err
	}
	return lsm.TableHandle{ID: lsm.TableID(comp.Handle), Blocks: comp.Blocks}, comp.Done, nil
}

// Abort implements lsm.TableWriter.
func (w *writerClient) Abort(now vclock.Time) (vclock.Time, error) {
	comp, err := w.env.do(now, Command{Op: OpTableAbort, Handle: w.handle})
	return comp.Done, err
}
