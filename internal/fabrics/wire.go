package fabrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/hostif"
	"repro/internal/vclock"
)

// The wire format. Every message is one frame:
//
//	offset  size  field
//	0       2     magic 0x4F58 ("OX")
//	2       1     wire version (wireVersion)
//	3       1     frame type
//	4       4     payload length, little-endian
//	8       4     CRC-32 (IEEE) of the payload, little-endian
//	12      n     payload
//
// The payload layout depends on the frame type; integers are
// little-endian and fixed-width (the command set is small and the
// frames are dominated by data payloads, so varints buy nothing).
// Frames are validated before interpretation: magic, version, type and
// length sanity first, CRC second, payload decode last — each failure
// mode has its own typed error so transport code and tests can
// discriminate exactly like the WAL's torn-tail probe.
//
// Version 2 adds the resilience machinery: connect carries a
// keep-alive timeout and a session token, ring entries carry a
// session-scoped sequence number and their own doorbell instant (so a
// replayed batch re-executes at its original virtual time), the ring
// header carries a cumulative acknowledgement that prunes the server's
// replay cache, and three control frames (keep-alive, goaway,
// disconnect) distinguish liveness probes, graceful drain and clean
// close from a mid-stream disconnect.

const (
	wireVersion = 2
	headerBytes = 12
	// maxFrameBytes caps a frame's declared payload: large enough for
	// an 8 MB LSS buffer flush batch, small enough that a corrupt
	// length field cannot balloon the receiver.
	maxFrameBytes = 64 << 20
)

var wireMagic = [2]byte{'O', 'X'}

// Frame types.
const (
	// frameConnect opens a connection: kind, class, depth, coalesce,
	// instant, keep-alive timeout, session token (0 = new session).
	frameConnect = iota + 1
	// frameAccept answers a connect with the queue-pair ID, depth and
	// the session token the client resumes with after a disconnect.
	frameAccept
	// frameRing carries one doorbell batch: a cumulative completion
	// acknowledgement plus command entries, each with its sequence
	// number and doorbell instant.
	frameRing
	// frameCompletions carries completion entries (server push).
	frameCompletions
	// frameAdmin carries one admin request (admin connections only).
	frameAdmin
	// frameAdminReply answers an admin request (gob payload).
	frameAdminReply
	// frameError reports a connection-fatal typed error.
	frameError
	// frameKeepAlive is the NVMe-style liveness heartbeat: the client
	// sends it at a fraction of its keep-alive timeout, the server
	// echoes it. Empty payload.
	frameKeepAlive
	// frameGoaway announces a graceful server drain: every accepted
	// ring's completions have been flushed, nothing further will be
	// served. Clients treat it as a clean redial trigger. Empty payload.
	frameGoaway
	// frameDisconnect is a clean client close: the server tears the
	// session down immediately instead of retaining it for resumption.
	// Empty payload.
	frameDisconnect
	frameTypeMax = frameDisconnect
)

// FrameHeaderSize is the fixed frame-header length in bytes — exported
// for frame-boundary-aware network middleware (internal/netfault).
const FrameHeaderSize = headerBytes

// FrameInfo parses a frame header without touching the payload: the
// declared payload length and whether the frame carries command or
// completion traffic (ring, completions, admin request/reply — the
// frames a deterministic fault schedule counts; handshake and
// keep-alive frames pass uncounted). It validates only magic and
// length sanity; CRC and payload interpretation stay with the
// endpoints.
func FrameInfo(hdr []byte) (payloadLen int, data bool, err error) {
	if len(hdr) < headerBytes {
		return 0, false, fmt.Errorf("%w: %d-byte header", ErrTruncatedFrame, len(hdr))
	}
	if hdr[0] != wireMagic[0] || hdr[1] != wireMagic[1] {
		return 0, false, fmt.Errorf("%w: %02x%02x", ErrBadMagic, hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameBytes {
		return 0, false, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	switch hdr[3] {
	case frameRing, frameCompletions, frameAdmin, frameAdminReply:
		return int(n), true, nil
	}
	return int(n), false, nil
}

// Connection kinds (frameConnect).
const (
	connKindAdmin = 0
	connKindIO    = 1
)

// Per-command error codes: the typed host-interface errors that have
// canonical client-side values. Everything else travels as errOther
// with its status class and message. The codes past errOther are
// fabrics-level handshake rejections (frameError only).
const (
	errNone = iota
	errQueueFull
	errBadNSID
	errUnsupported
	errBadHandle
	errBadLogPage
	errQueueClosed
	errOther
	// errSessionUnknown rejects a resume handshake whose token names no
	// retained session (expired, reaped or never issued) — terminal for
	// the client, which cannot replay into a server that forgot it.
	errSessionUnknown
)

// codeFor maps a server-side error to its wire code.
func codeFor(err error) uint16 {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, hostif.ErrQueueFull):
		return errQueueFull
	case errors.Is(err, hostif.ErrBadNSID):
		return errBadNSID
	case errors.Is(err, hostif.ErrUnsupported):
		return errUnsupported
	case errors.Is(err, hostif.ErrBadHandle):
		return errBadHandle
	case errors.Is(err, hostif.ErrBadLogPage):
		return errBadLogPage
	case errors.Is(err, hostif.ErrQueueClosed):
		return errQueueClosed
	case errors.Is(err, ErrSessionUnknown):
		return errSessionUnknown
	default:
		return errOther
	}
}

// errorFor reconstructs the client-side error for a wire code. The
// canonical codes map back to the host interface's error values so
// errors.Is works across the fabric; errOther yields a RemoteError
// carrying the server's message.
func errorFor(code uint16, msg string) error {
	switch code {
	case errNone:
		return nil
	case errQueueFull:
		return hostif.ErrQueueFull
	case errBadNSID:
		return hostif.ErrBadNSID
	case errUnsupported:
		return hostif.ErrUnsupported
	case errBadHandle:
		return hostif.ErrBadHandle
	case errBadLogPage:
		return hostif.ErrBadLogPage
	case errQueueClosed:
		return hostif.ErrQueueClosed
	case errSessionUnknown:
		return fmt.Errorf("%w: %s", ErrSessionUnknown, msg)
	default:
		return &RemoteError{Code: code, Msg: msg}
	}
}

// frameBuf accumulates one outgoing frame: header space is reserved up
// front and patched by finish, so a frame is encoded and written as a
// single contiguous buffer (one syscall, reused across frames).
type frameBuf struct {
	b []byte
}

func (f *frameBuf) start(ftype byte) {
	f.b = append(f.b[:0], wireMagic[0], wireMagic[1], wireVersion, ftype,
		0, 0, 0, 0, 0, 0, 0, 0)
}

func (f *frameBuf) u8(v uint8)   { f.b = append(f.b, v) }
func (f *frameBuf) u16(v uint16) { f.b = binary.LittleEndian.AppendUint16(f.b, v) }
func (f *frameBuf) u32(v uint32) { f.b = binary.LittleEndian.AppendUint32(f.b, v) }
func (f *frameBuf) u64(v uint64) { f.b = binary.LittleEndian.AppendUint64(f.b, v) }
func (f *frameBuf) i32(v int32)  { f.u32(uint32(v)) }
func (f *frameBuf) i64(v int64)  { f.u64(uint64(v)) }

func (f *frameBuf) bytes(p []byte) {
	f.u32(uint32(len(p)))
	f.b = append(f.b, p...)
}

func (f *frameBuf) str(s string) {
	f.u16(uint16(len(s)))
	f.b = append(f.b, s...)
}

// finish patches the header (length + CRC) and returns the full frame.
func (f *frameBuf) finish() []byte {
	payload := f.b[headerBytes:]
	binary.LittleEndian.PutUint32(f.b[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f.b[8:12], crc32.ChecksumIEEE(payload))
	return f.b
}

// frameReader reads frames off one connection through a buffer: one
// Read pulls in a header, its payload and whatever frames are queued
// behind them, so a burst costs one system call and the header is parsed
// where it lies. Client, server and admin connections all read through it.
type frameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // buf[lo:hi] is read from r and not yet consumed
}

// frameReadChunk is the least the buffer holds; a larger frame grows it.
const frameReadChunk = 16 << 10

// reset points the reader at a new connection. What the old one left
// buffered is dropped: it must never prefix the stream that resumes it.
func (fr *frameReader) reset(r io.Reader) { fr.r, fr.lo, fr.hi = r, 0, 0 }

// fill reads until n unconsumed bytes are buffered, first moving them
// to the front (of a larger buffer if need be) when there is no room
// behind them. It returns io.EOF only when the stream ended with
// nothing buffered.
func (fr *frameReader) fill(n int) error {
	if fr.lo == fr.hi || fr.lo+n > len(fr.buf) {
		to := fr.buf
		if n > len(to) {
			to = make([]byte, max(n, frameReadChunk))
		}
		fr.hi = copy(to, fr.buf[fr.lo:fr.hi])
		fr.buf, fr.lo = to, 0
	}
	for fr.hi-fr.lo < n {
		m, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += m
		if err != nil && fr.hi-fr.lo < n {
			if err == io.EOF && fr.hi > fr.lo {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readFrame reads and validates one frame. The returned payload aliases
// the reader's buffer and is valid until the next call.
func (fr *frameReader) readFrame() (ftype byte, payload []byte, err error) {
	if err := fr.fill(headerBytes); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading header: %w", ErrTruncatedFrame, err)
	}
	hdr := fr.buf[fr.lo : fr.lo+headerBytes]
	if hdr[0] != wireMagic[0] || hdr[1] != wireMagic[1] {
		return 0, nil, fmt.Errorf("%w: %02x%02x", ErrBadMagic, hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	ftype = hdr[3]
	if ftype < 1 || ftype > frameTypeMax {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadFrameType, ftype)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	want := binary.LittleEndian.Uint32(hdr[8:12])
	end := headerBytes + int(n)
	if err := fr.fill(end); err != nil { // may move the buffer: hdr is dead
		return 0, nil, fmt.Errorf("%w: reading %d-byte payload: %w", ErrTruncatedFrame, n, err)
	}
	payload = fr.buf[fr.lo+headerBytes : fr.lo+end : fr.lo+end]
	fr.lo += end
	if crc := crc32.ChecksumIEEE(payload); crc != want {
		return 0, nil, fmt.Errorf("%w: got %08x want %08x", ErrCorruptFrame, crc, want)
	}
	return ftype, payload, nil
}

// wireError decodes a frameError payload into its typed error.
func wireError(payload []byte) error {
	d := decoder{b: payload}
	code := d.u16()
	msg := d.str()
	if code == errSessionUnknown {
		return fmt.Errorf("%w: %s", ErrSessionUnknown, msg)
	}
	return fmt.Errorf("%w: %s", ErrRejected, msg)
}

// popBuf takes a buffer of length n off a free list, allocating when
// none is large enough. The list's owner holds whatever lock guards it.
func popBuf(free *[][]byte, n int) []byte {
	l := *free
	for i := len(l) - 1; i >= 0; i-- {
		if cap(l[i]) >= n {
			b := l[i][:n]
			*free = append(l[:i], l[i+1:]...)
			return b
		}
	}
	return make([]byte, n)
}

// decoder walks a validated payload. Overruns set err and make every
// further read return zero — decode paths check err once at the end,
// and malformed input can never panic.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload overrun at offset %d", ErrBadPayload, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

// bytes returns a length-prefixed slice aliasing the payload buffer.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || d.off+n > len(d.b) || n < 0 {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

// done reports a decode error if the payload failed or has trailing
// garbage.
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(d.b)-d.off)
	}
	return nil
}

// validOp reports whether op is a data opcode the wire may carry
// (admin opcodes travel as frameAdmin, never in a ring batch).
func validOp(op hostif.Op) bool {
	switch op {
	case hostif.OpRead, hostif.OpWrite, hostif.OpTrim, hostif.OpFlush,
		hostif.OpZoneAppend, hostif.OpZoneReset, hostif.OpZoneFinish,
		hostif.OpTableCreate, hostif.OpTableAppend, hostif.OpTableCommit,
		hostif.OpTableAbort, hostif.OpTableRead, hostif.OpTableDelete,
		hostif.OpOffloadGet, hostif.OpOffloadScan, hostif.OpOffloadCompact:
		return true
	}
	return false
}

// encodeCommand appends one ring-batch command entry: the session
// sequence number, the command's own doorbell instant (a replayed
// entry keeps its original instant so re-execution lands at the same
// virtual time), and the command fields. dstLen tells the server how
// many bytes an OpTableRead expects back.
func encodeCommand(f *frameBuf, seq uint64, at vclock.Time, cmd *hostif.Command) {
	f.u64(seq)
	f.i64(int64(at))
	f.u8(uint8(cmd.Op))
	f.u32(uint32(cmd.NSID))
	f.i64(cmd.LPN)
	f.i32(int32(cmd.Pages))
	f.i32(int32(cmd.Zone))
	f.i64(cmd.Length)
	f.u64(cmd.Handle)
	f.u32(uint32(len(cmd.Dst)))
	f.u32(uint32(len(cmd.Descs)))
	for i := range cmd.Descs {
		f.i64(cmd.Descs[i].ID)
		f.i32(int32(cmd.Descs[i].Offset))
		f.i32(int32(cmd.Descs[i].Length))
	}
	f.bytes(cmd.Data)
}

// decodeCommand fills cmd from one ring-batch entry. cmd.Data aliases
// the frame buffer (valid until the next read on the connection);
// cmd.Dst is left nil — the caller provides the read buffer sized by
// the returned dstLen. cmd.Descs reuses the slice already in cmd.
func decodeCommand(d *decoder, cmd *hostif.Command) (seq uint64, at vclock.Time, dstLen int, err error) {
	seq = d.u64()
	at = vclock.Time(d.i64())
	op := hostif.Op(d.u8())
	cmd.Op = op
	cmd.NSID = int(d.u32())
	cmd.LPN = d.i64()
	cmd.Pages = int(d.i32())
	cmd.Zone = int(d.i32())
	cmd.Length = d.i64()
	cmd.Handle = d.u64()
	dstLen = int(d.u32())
	nd := int(d.u32())
	if d.err == nil && (nd < 0 || nd > len(d.b)/16) {
		d.fail()
	}
	if d.err == nil {
		descs := cmd.Descs[:0]
		for i := 0; i < nd; i++ {
			id := d.i64()
			off := int(d.i32())
			ln := int(d.i32())
			descs = append(descs, hostif.PageDesc{ID: id, Offset: off, Length: ln})
		}
		cmd.Descs = descs
	}
	cmd.Data = d.bytes()
	if d.err != nil {
		return 0, 0, 0, d.err
	}
	if !validOp(op) {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadOpcode, uint8(op))
	}
	if dstLen < 0 || dstLen > maxFrameBytes {
		return 0, 0, 0, fmt.Errorf("%w: dst length %d", ErrBadPayload, dstLen)
	}
	return seq, at, dstLen, nil
}

// encodeCompletion appends one completion entry; data is the payload
// travelling back to the client (read results).
func encodeCompletion(f *frameBuf, seq uint64, c *hostif.Completion, data []byte) {
	f.u64(seq)
	f.u8(uint8(c.Op))
	f.u8(uint8(c.Status))
	errMsg := ""
	code := codeFor(c.Err)
	if code == errOther && c.Err != nil {
		errMsg = c.Err.Error()
	}
	f.u16(code)
	f.u32(uint32(c.NSID))
	f.u64(c.Slot)
	f.i64(int64(c.Submitted))
	f.i64(int64(c.Done))
	f.i64(c.Offset)
	f.u64(c.Handle)
	f.i32(int32(c.Blocks))
	f.str(errMsg)
	f.bytes(data)
}

// decodeCompletion reads one completion entry. The returned data
// aliases the frame buffer.
func decodeCompletion(d *decoder, c *hostif.Completion) (seq uint64, data []byte, err error) {
	seq = d.u64()
	c.Op = hostif.Op(d.u8())
	c.Status = hostif.Status(d.u8())
	code := d.u16()
	c.NSID = int(d.u32())
	c.Slot = d.u64()
	c.Submitted = vclock.Time(d.i64())
	c.Done = vclock.Time(d.i64())
	c.Offset = d.i64()
	c.Handle = d.u64()
	c.Blocks = int(d.i32())
	msg := d.str()
	data = d.bytes()
	if d.err != nil {
		return 0, nil, d.err
	}
	c.Err = errorFor(code, msg)
	return seq, data, nil
}
