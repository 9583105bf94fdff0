// Package fabrics is the interconnect layer of the OX controller: it
// serves the host interface (internal/hostif) over a network transport,
// the way OX 2.6 ships NVMe over Fabrics on TCP sockets. The other OX
// layers — media manager, FTLs, command parser, queue pairs — already
// exist in-process; this package adds the "interconnect handler" so a
// controller in one process can be driven by initiators in another.
//
// The design maps NVMe-oF concepts onto the existing queue-pair
// machinery rather than reinventing them:
//
//   - One connection is one queue pair. The connect handshake carries
//     the queue depth and WRR arbitration class (mirroring the
//     AdminCreateIOQP admin command) plus a completion-coalescing
//     threshold; the server creates the queue pair over its own admin
//     queue and tears it down when the connection dies.
//   - Doorbell batching is preserved end to end: the client stages
//     Submits locally and one Ring sends the whole batch in a single
//     frame, which the server submits and makes visible with a single
//     doorbell — several commands per network read, exactly as several
//     Submits share one Ring in-process.
//   - Completions are interrupt-driven: the server registers the queue
//     pair's SetNotify handler and pushes completion frames from the
//     notification callback, so the existing coalescing machinery is
//     the network batching policy. Frames may therefore be written by
//     whichever goroutine drove the drain, like a real NVMe-oF target
//     posting CQEs from its interrupt context.
//   - Virtual time travels on the wire. Doorbell instants go out with
//     each ring frame and completion instants come back, so a scenario
//     driven through the loopback transport produces bit-identical
//     virtual timing to the same scenario on in-process queue pairs
//     (the determinism contract; pinned by the loopback-equivalence
//     test in internal/exp).
//
// The wire protocol is a compact versioned binary encoding with
// CRC-framed payloads (wire.go); the data path reuses per-connection
// buffers and the queue pairs' command arenas on both sides, so
// encode/decode is allocation-free at steady state like the rest of
// the submit path. The control plane rides the same framing: an admin
// connection serves identify and log pages. On the client side this
// package keeps only the wire: OpenLSM and Admin run hostif's typed
// clients (LSMClient, AdminReader) over a fabric queue pair and an
// admin connection.
package fabrics

import "errors"

// Typed wire-protocol errors. Frame decoding never panics: truncated,
// corrupt or alien input surfaces as one of these (wrapped with
// context), mirroring the WAL's ErrCorruptRecord discrimination.
var (
	// ErrBadMagic means the peer is not speaking the fabrics protocol.
	ErrBadMagic = errors.New("fabrics: bad frame magic")
	// ErrBadVersion means the peer speaks an unknown protocol version.
	ErrBadVersion = errors.New("fabrics: unsupported wire version")
	// ErrBadFrameType flags an unknown frame type byte.
	ErrBadFrameType = errors.New("fabrics: unknown frame type")
	// ErrFrameTooLarge rejects a frame whose declared payload exceeds
	// the protocol cap (a corrupt length field would otherwise make the
	// receiver try to allocate it).
	ErrFrameTooLarge = errors.New("fabrics: frame exceeds size cap")
	// ErrTruncatedFrame means the connection ended mid-frame.
	ErrTruncatedFrame = errors.New("fabrics: truncated frame")
	// ErrCorruptFrame means the payload failed its CRC.
	ErrCorruptFrame = errors.New("fabrics: frame CRC mismatch")
	// ErrBadPayload means a frame's payload did not decode (overran its
	// length, or held an out-of-range field).
	ErrBadPayload = errors.New("fabrics: malformed frame payload")
	// ErrBadOpcode flags a command entry with an opcode outside the
	// host interface's command set.
	ErrBadOpcode = errors.New("fabrics: unknown command opcode")
	// ErrClosed is returned by operations on a closed client or queue
	// pair.
	ErrClosed = errors.New("fabrics: connection closed")
	// ErrRejected wraps a server-side handshake rejection.
	ErrRejected = errors.New("fabrics: connection rejected by server")
	// ErrTimeout means a frame exchange missed its deadline (an admin
	// request against an unresponsive server, a keep-alive window with
	// no traffic). errors.Is(err, ErrTimeout) discriminates it.
	ErrTimeout = errors.New("fabrics: request timed out")
	// ErrDisconnected means the connection died mid-stream — EOF or a
	// transport error between frames, a truncated frame, a missed
	// keep-alive window. Redial-eligible: a session-holding queue pair
	// resumes and replays across it.
	ErrDisconnected = errors.New("fabrics: connection lost")
	// ErrGoaway means the server announced a graceful drain and served
	// every accepted command before going away. Redial-eligible.
	ErrGoaway = errors.New("fabrics: server going away")
	// ErrSessionUnknown rejects a session resume whose token names no
	// retained session (expired, reaped, or never issued). Terminal:
	// the client cannot replay into a server that forgot the session.
	ErrSessionUnknown = errors.New("fabrics: unknown session token")
)

// RedialEligible reports whether err describes a connection loss a
// session-holding queue pair may redial across (the server either
// drained gracefully or simply lost the connection), as opposed to a
// terminal cause: local Close, a protocol violation, or a rejected
// resume.
func RedialEligible(err error) bool {
	return errors.Is(err, ErrDisconnected) || errors.Is(err, ErrGoaway)
}

// RemoteError is a server-side command failure that has no canonical
// client-side error value. The NVMe-style status class survives the
// trip (Completion.Status carries it too); the text is diagnostic.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Msg != "" {
		return "fabrics: remote: " + e.Msg
	}
	return "fabrics: remote error"
}
