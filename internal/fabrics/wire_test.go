package fabrics

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/hostif"
	"repro/internal/vclock"
)

// sampleFrame encodes one representative ring-style frame with a small
// payload for the corruption tests.
func sampleFrame() []byte {
	var f frameBuf
	f.start(frameRing)
	f.u64(0) // cumulative ack
	f.u32(1)
	encodeCommand(&f, 7, 12345, &hostif.Command{
		Op:   hostif.OpWrite,
		NSID: 1,
		LPN:  42,
		Data: []byte("hello, fabric"),
		Descs: []hostif.PageDesc{
			{ID: 3, Offset: 0, Length: 4096},
		},
	})
	return append([]byte(nil), f.finish()...)
}

// chunkReader hands out at most n bytes per Read: a socket delivering
// a frame in pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(c.n, len(p))])
}

// frameErrClass names the typed error behind a readFrame error.
func frameErrClass(err error) error {
	for _, t := range []error{ErrTruncatedFrame, ErrBadMagic, ErrBadVersion,
		ErrBadFrameType, ErrFrameTooLarge, ErrCorruptFrame} {
		if errors.Is(err, t) {
			return t
		}
	}
	return err
}

// readFrameBytes parses b as one frame, and checks on the way that the
// parse does not depend on how the bytes arrive: b dribbled out 1…n
// bytes per Read, and b directly behind another frame in the same
// buffer, must yield the same type, payload and typed error as b in one
// piece (so a torn second frame is ErrTruncatedFrame, not a hang).
func readFrameBytes(t testing.TB, b []byte) (byte, []byte, error) {
	t.Helper()
	var fr frameReader // one buffer for every variant
	fr.reset(bytes.NewReader(b))
	ftype, payload, err := fr.readFrame()
	payload = append([]byte(nil), payload...)
	same := func(how string) {
		t.Helper()
		ft, pl, e := fr.readFrame()
		if ft != ftype || !bytes.Equal(pl, payload) || frameErrClass(e) != frameErrClass(err) {
			t.Fatalf("%s: type %d, %d-byte payload, err %v; in one piece: type %d, %d-byte payload, err %v",
				how, ft, len(pl), e, ftype, len(payload), err)
		}
	}
	// From one byte per read up; a long fuzz input starts coarser, so
	// that no variant costs more than a few thousand reads.
	for n := max(1, len(b)/4096); n <= len(b); n += 1 + n/8 {
		fr.reset(chunkReader{bytes.NewReader(b), n})
		same(fmt.Sprintf("%d bytes per read", n))
	}
	lead := sampleFrame()
	fr.reset(bytes.NewReader(append(lead[:len(lead):len(lead)], b...)))
	if ft, pl, e := fr.readFrame(); e != nil || ft != frameRing || !bytes.Equal(pl, lead[headerBytes:]) {
		t.Fatalf("leading frame: type %d, err %v", ft, e)
	}
	same("behind another frame")
	return ftype, payload, err
}

func TestFrameRoundtrip(t *testing.T) {
	frame := sampleFrame()
	ftype, payload, err := readFrameBytes(t, frame)
	if err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if ftype != frameRing {
		t.Fatalf("frame type = %d, want %d", ftype, frameRing)
	}
	if !bytes.Equal(payload, frame[headerBytes:]) {
		t.Fatalf("payload mismatch")
	}
}

// TestFrameHeaderCorruption checks that every header-field corruption
// maps to its own typed error, in the documented validation order.
func TestFrameHeaderCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic byte 0", func(b []byte) []byte { b[0] = 'Z'; return b }, ErrBadMagic},
		{"bad magic byte 1", func(b []byte) []byte { b[1] = 'Z'; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[2] = wireVersion + 1; return b }, ErrBadVersion},
		{"zero version", func(b []byte) []byte { b[2] = 0; return b }, ErrBadVersion},
		{"zero frame type", func(b []byte) []byte { b[3] = 0; return b }, ErrBadFrameType},
		{"unknown frame type", func(b []byte) []byte { b[3] = frameTypeMax + 1; return b }, ErrBadFrameType},
		{"oversized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], maxFrameBytes+1)
			return b
		}, ErrFrameTooLarge},
		{"length past input", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)))
			return b
		}, ErrTruncatedFrame},
		{"flipped crc", func(b []byte) []byte { b[8] ^= 0xFF; return b }, ErrCorruptFrame},
		{"flipped payload bit", func(b []byte) []byte { b[headerBytes] ^= 0x01; return b }, ErrCorruptFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncatedFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrameBytes(t, tc.mutate(sampleFrame()))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestFrameEveryTruncation feeds every strict prefix of a valid frame:
// each must fail cleanly (empty input is a clean EOF — the peer hung
// up between frames).
func TestFrameEveryTruncation(t *testing.T) {
	frame := sampleFrame()
	for n := 0; n < len(frame); n++ {
		_, _, err := readFrameBytes(t, frame[:n])
		switch {
		case n == 0:
			if err != io.EOF {
				t.Fatalf("prefix 0: got %v, want io.EOF", err)
			}
		case err == nil:
			t.Fatalf("prefix %d of %d accepted", n, len(frame))
		case !errors.Is(err, ErrTruncatedFrame):
			t.Fatalf("prefix %d: got %v, want %v", n, err, ErrTruncatedFrame)
		}
	}
}

// TestFrameEveryByteFlip flips each byte of a valid frame in turn;
// readFrame must never panic, and a nil error is only acceptable when
// the flip landed on the frame-type byte and produced another valid
// type with the payload intact (the CRC covers only the payload).
func TestFrameEveryByteFlip(t *testing.T) {
	frame := sampleFrame()
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x04
		ftype, _, err := readFrameBytes(t, mut)
		if err == nil {
			if i != 3 {
				t.Fatalf("flip at %d accepted", i)
			}
			if ftype < 1 || ftype > frameTypeMax {
				t.Fatalf("flip at %d yielded out-of-range type %d", i, ftype)
			}
		}
	}
}

func TestDecodeCommandRoundtrip(t *testing.T) {
	in := hostif.Command{
		Op:     hostif.OpZoneAppend,
		NSID:   3,
		LPN:    99,
		Pages:  8,
		Zone:   2,
		Length: 4096,
		Handle: 17,
		Data:   []byte{1, 2, 3, 4},
		Descs:  []hostif.PageDesc{{ID: 5, Offset: 1, Length: 2}, {ID: 6, Offset: 3, Length: 4}},
	}
	var f frameBuf
	f.start(frameRing)
	encodeCommand(&f, 31, 777, &in)
	d := decoder{b: f.finish()[headerBytes:]}
	var out hostif.Command
	seq, at, dstLen, err := decodeCommand(&d, &out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := d.done(); err != nil {
		t.Fatalf("done: %v", err)
	}
	if seq != 31 || at != 777 || dstLen != 0 {
		t.Fatalf("seq=%d at=%d dstLen=%d", seq, at, dstLen)
	}
	if out.Op != in.Op || out.NSID != in.NSID || out.LPN != in.LPN ||
		out.Pages != in.Pages || out.Zone != in.Zone || out.Length != in.Length ||
		out.Handle != in.Handle || !bytes.Equal(out.Data, in.Data) ||
		len(out.Descs) != 2 || out.Descs[0] != in.Descs[0] || out.Descs[1] != in.Descs[1] {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

// TestDecodeCommandCorruption covers the payload-level failure modes:
// truncation at every offset, opcodes the ring may not carry, absurd
// descriptor counts and dst lengths, and trailing garbage.
func TestDecodeCommandCorruption(t *testing.T) {
	var f frameBuf
	f.start(frameRing)
	encodeCommand(&f, 1, 0, &hostif.Command{Op: hostif.OpRead, NSID: 1, Pages: 4,
		Descs: []hostif.PageDesc{{ID: 1}}})
	payload := append([]byte(nil), f.finish()[headerBytes:]...)

	t.Run("every truncation", func(t *testing.T) {
		for n := 0; n < len(payload); n++ {
			d := decoder{b: payload[:n]}
			var cmd hostif.Command
			if _, _, _, err := decodeCommand(&d, &cmd); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("prefix %d: got %v, want %v", n, err, ErrBadPayload)
			}
		}
	})
	t.Run("admin opcode in ring", func(t *testing.T) {
		var f frameBuf
		f.start(frameRing)
		encodeCommand(&f, 1, 0, &hostif.Command{Op: hostif.OpAdminIdentify})
		d := decoder{b: f.finish()[headerBytes:]}
		var cmd hostif.Command
		if _, _, _, err := decodeCommand(&d, &cmd); !errors.Is(err, ErrBadOpcode) {
			t.Fatalf("got %v, want %v", err, ErrBadOpcode)
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		var f frameBuf
		f.start(frameRing)
		encodeCommand(&f, 1, 0, &hostif.Command{Op: 250})
		d := decoder{b: f.finish()[headerBytes:]}
		var cmd hostif.Command
		if _, _, _, err := decodeCommand(&d, &cmd); !errors.Is(err, ErrBadOpcode) {
			t.Fatalf("got %v, want %v", err, ErrBadOpcode)
		}
	})
	t.Run("absurd desc count", func(t *testing.T) {
		mut := append([]byte(nil), payload...)
		// dstLen sits after seq(8) at(8) op(1) nsid(4) lpn(8) pages(4)
		// zone(4) length(8) handle(8) = offset 53; nDescs follows at 57.
		binary.LittleEndian.PutUint32(mut[57:], 1<<30)
		d := decoder{b: mut}
		var cmd hostif.Command
		if _, _, _, err := decodeCommand(&d, &cmd); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want %v", err, ErrBadPayload)
		}
	})
	t.Run("absurd dst length", func(t *testing.T) {
		mut := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(mut[53:], maxFrameBytes+1)
		d := decoder{b: mut}
		var cmd hostif.Command
		if _, _, _, err := decodeCommand(&d, &cmd); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want %v", err, ErrBadPayload)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		d := decoder{b: append(append([]byte(nil), payload...), 0xEE)}
		var cmd hostif.Command
		if _, _, _, err := decodeCommand(&d, &cmd); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := d.done(); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("done: got %v, want %v", err, ErrBadPayload)
		}
	})
}

// TestCompletionErrorMapping pins the error codes: canonical host
// errors survive the wire as the same values (errors.Is works across
// the fabric), everything else arrives as a RemoteError with the
// server's message.
func TestCompletionErrorMapping(t *testing.T) {
	canonical := []error{
		nil, hostif.ErrQueueFull, hostif.ErrBadNSID, hostif.ErrUnsupported,
		hostif.ErrBadHandle, hostif.ErrBadLogPage, hostif.ErrQueueClosed,
	}
	for _, werr := range canonical {
		in := hostif.Completion{Op: hostif.OpRead, Slot: 9,
			Submitted: 100, Done: vclock.Time(200),
			Result: hostif.Result{Err: werr, Status: hostif.StatusOf(werr)}}
		var f frameBuf
		f.start(frameCompletions)
		encodeCompletion(&f, 5, &in, []byte("payload"))
		d := decoder{b: f.finish()[headerBytes:]}
		var out hostif.Completion
		tag, data, err := decodeCompletion(&d, &out)
		if err != nil || d.done() != nil {
			t.Fatalf("%v: decode failed: %v / %v", werr, err, d.done())
		}
		if tag != 5 || !bytes.Equal(data, []byte("payload")) {
			t.Fatalf("%v: tag=%d data=%q", werr, tag, data)
		}
		if werr == nil {
			if out.Err != nil {
				t.Fatalf("nil error arrived as %v", out.Err)
			}
		} else if !errors.Is(out.Err, werr) {
			t.Fatalf("error %v arrived as %v", werr, out.Err)
		}
		if out.Submitted != in.Submitted || out.Done != in.Done || out.Slot != in.Slot {
			t.Fatalf("%v: timing/slot mismatch: %+v vs %+v", werr, out, in)
		}
	}

	other := errors.New("media caught fire")
	var f frameBuf
	f.start(frameCompletions)
	encodeCompletion(&f, 1, &hostif.Completion{Op: hostif.OpWrite, Result: hostif.Result{Err: other}}, nil)
	d := decoder{b: f.finish()[headerBytes:]}
	var out hostif.Completion
	if _, _, err := decodeCompletion(&d, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var re *RemoteError
	if !errors.As(out.Err, &re) || re.Msg != other.Error() {
		t.Fatalf("non-canonical error arrived as %v", out.Err)
	}
}

// TestDecodeCompletionTruncation: every strict prefix of a completion
// entry fails cleanly.
func TestDecodeCompletionTruncation(t *testing.T) {
	var f frameBuf
	f.start(frameCompletions)
	encodeCompletion(&f, 2, &hostif.Completion{Op: hostif.OpRead, Result: hostif.Result{Err: hostif.ErrBadNSID}}, []byte{9, 9})
	payload := append([]byte(nil), f.finish()[headerBytes:]...)
	for n := 0; n < len(payload); n++ {
		d := decoder{b: payload[:n]}
		var c hostif.Completion
		if _, _, err := decodeCompletion(&d, &c); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("prefix %d: got %v, want %v", n, err, ErrBadPayload)
		}
	}
}

// FuzzReadFrame: arbitrary bytes through the frame reader must never
// panic, must either fail or yield a frame whose CRC genuinely covers
// the returned payload, and must parse the same however they arrive
// (readFrameBytes).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(sampleFrame())
	trunc := sampleFrame()
	f.Add(trunc[:len(trunc)-2])
	bad := sampleFrame()
	bad[headerBytes] ^= 0xFF
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		ftype, payload, err := readFrameBytes(t, data)
		if err == nil && (ftype < 1 || ftype > frameTypeMax) {
			t.Fatalf("accepted out-of-range frame type %d", ftype)
		}
		if err == nil && len(data) >= headerBytes &&
			crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8:12]) {
			t.Fatalf("accepted a payload its CRC does not cover")
		}
	})
}

// FuzzDecodeCommand: arbitrary payloads through the command decoder
// must never panic.
func FuzzDecodeCommand(f *testing.F) {
	var fb frameBuf
	fb.start(frameRing)
	encodeCommand(&fb, 1, 0, &hostif.Command{Op: hostif.OpWrite, Data: []byte("x")})
	f.Add(append([]byte(nil), fb.finish()[headerBytes:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{b: data}
		var cmd hostif.Command
		seq, _, dstLen, err := decodeCommand(&d, &cmd)
		if err == nil && (dstLen < 0 || dstLen > maxFrameBytes) {
			t.Fatalf("accepted dstLen %d (seq %d)", dstLen, seq)
		}
	})
}

// FuzzDecodeCompletion: arbitrary payloads through the completion
// decoder must never panic.
func FuzzDecodeCompletion(f *testing.F) {
	var fb frameBuf
	fb.start(frameCompletions)
	encodeCompletion(&fb, 1, &hostif.Completion{Op: hostif.OpRead}, []byte("y"))
	f.Add(append([]byte(nil), fb.finish()[headerBytes:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{b: data}
		var c hostif.Completion
		_, _, _ = decodeCompletion(&d, &c)
	})
}

// TestFrameReaderResetDropsLeftovers: what a dead connection left in
// the buffer — here half a frame — must not prefix the stream the
// reader is reset onto.
func TestFrameReaderResetDropsLeftovers(t *testing.T) {
	frame := sampleFrame()
	fr := &frameReader{r: bytes.NewReader(append(sampleFrame(), frame[:len(frame)/2]...))}
	if _, _, err := fr.readFrame(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, _, err := fr.readFrame(); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("torn second frame: %v, want %v", err, ErrTruncatedFrame)
	}
	fr.reset(bytes.NewReader(frame))
	ftype, payload, err := fr.readFrame()
	if err != nil || ftype != frameRing || !bytes.Equal(payload, frame[headerBytes:]) {
		t.Fatalf("frame after reset: type %d, err %v", ftype, err)
	}
}
