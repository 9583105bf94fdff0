package hostif

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/offload"
	"repro/internal/vclock"
)

// Queue is the submission surface the typed clients drive, one command
// at a time. Both transports have it: *QueuePair in process and
// *fabrics.QueuePair over the wire.
type Queue interface {
	AcquireCommand() *Command
	ReleaseCommand(cmd *Command)
	Push(now vclock.Time, cmd *Command) error
	Reap() (Completion, bool)
	Err() error
}

// errCompletionTaken reports a completion another reaper (a
// notification handler on the same queue pair) took first.
var errCompletionTaken = errors.New("hostif: completion reaped by another actor")

// roundTrip issues cmd on q synchronously. The command storage comes
// from the queue's arena and is recycled at the reap, or released when
// the push is rejected, so a synchronous client is allocation-free at
// steady state and leaks nothing on a closed or full queue.
func roundTrip(q Queue, now vclock.Time, cmd Command) (Completion, error) {
	ac := q.AcquireCommand()
	*ac = cmd
	if err := q.Push(now, ac); err != nil {
		q.ReleaseCommand(ac)
		return Completion{}, err
	}
	comp, ok := q.Reap()
	if !ok {
		return Completion{}, cmp.Or(q.Err(), errCompletionTaken)
	}
	return comp, comp.Err
}

// LSMClient implements lsm.Env and the offload hooks by issuing
// host-interface commands over a Queue — the mini-RocksDB then drives
// the LightLSM FTL the way RocksDB drives an NVMe device: every SSTable
// flush block, block read and table delete is one typed command, in
// process or over a fabric. Calls are synchronous, so the client adds
// no virtual time of its own and preserves the FTL's exact accounting.
//
// LSMClient is driven by one actor at a time, matching the LSM's
// single-dispatch design (§4.3).
type LSMClient struct {
	q         Queue
	nsid      int
	blockSize int
	maxBlocks int
}

// EnvClient is the in-process LSMClient. Over a *QueuePair the
// namespace sees the caller's key and buffer, so it also searches
// blocks where they lie (lsm.BlockSearcher); an LSMClient over a wire
// copies each block across instead.
type EnvClient struct {
	LSMClient
}

var (
	_ lsm.Env           = (*LSMClient)(nil)
	_ lsm.BlockSearcher = (*EnvClient)(nil)
)

// NewLSMClient builds a client over q for the namespace attached under
// nsid, with the block geometry from its admin identity.
func NewLSMClient(q Queue, nsid int, id NamespaceIdentity) *LSMClient {
	return &LSMClient{q: q, nsid: nsid, blockSize: id.BlockSize, maxBlocks: id.MaxTableBlocks}
}

// NewEnvClient builds the in-process client over qp.
func NewEnvClient(qp *QueuePair, nsid int, id NamespaceIdentity) *EnvClient {
	return &EnvClient{*NewLSMClient(qp, nsid, id)}
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

// do issues one command to the client's namespace.
func (c *LSMClient) do(now vclock.Time, cmd Command) (Completion, error) {
	cmd.NSID = c.nsid
	return roundTrip(c.q, now, cmd)
}

// NSID reports the namespace the client is bound to (admin log pages).
func (c *LSMClient) NSID() int { return c.nsid }

// BlockSize implements lsm.Env.
func (c *LSMClient) BlockSize() int { return c.blockSize }

// MaxTableBlocks implements lsm.Env.
func (c *LSMClient) MaxTableBlocks() int { return c.maxBlocks }

// CreateTable implements lsm.Env.
func (c *LSMClient) CreateTable(now vclock.Time) (lsm.TableWriter, error) {
	comp, err := c.do(now, Command{Op: OpTableCreate})
	if err != nil {
		return nil, err
	}
	return &writerClient{env: c, handle: comp.Handle}, nil
}

// ReadBlock implements lsm.Env.
func (c *LSMClient) ReadBlock(now vclock.Time, h lsm.TableHandle, block int, dst []byte) (vclock.Time, error) {
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
// but the namespace searches the block where it lies, from byte from
// (Command.Seek), and copies only key's value, into dst.
func (c *EnvClient) SearchBlock(now vclock.Time, h lsm.TableHandle, block, from int, key, dst []byte) (value []byte, deleted, found bool, end vclock.Time, err error) {
	comp, err := c.do(now, Command{
		Op:     OpTableRead,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
		LPN:    int64(block),
		Key:    key,
		Seek:   from,
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
func (c *LSMClient) OffloadGet(now vclock.Time, h lsm.TableHandle, block int, key []byte) (value []byte, deleted, found bool, end vclock.Time, err error) {
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
func (c *LSMClient) OffloadCompact(now vclock.Time, inputs []lsm.TableHandle, bitsPerKey int, dropDeletes bool) ([]*lsm.TableMeta, vclock.Time, error) {
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
func (c *LSMClient) DeleteTable(now vclock.Time, h lsm.TableHandle) (vclock.Time, error) {
	comp, err := c.do(now, Command{
		Op:     OpTableDelete,
		Handle: uint64(h.ID),
		Length: int64(h.Blocks),
	})
	return comp.Done, err
}

// writerClient implements lsm.TableWriter over the queue.
type writerClient struct {
	env    *LSMClient
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
