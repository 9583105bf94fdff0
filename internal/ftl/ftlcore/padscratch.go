package ftlcore

// PadScratch is a reusable buffer for payloads that must be zero-padded
// up to a ws_min unit before they are appended to media (a sub-unit
// OX-Block write, the WAL's sync unit). It keeps every byte past the
// last payload zero, so padding a payload clears only what the previous,
// longer payload left behind — nothing at all in the steady state of
// equal-sized writes — instead of allocating and clearing a whole unit
// per call. The returned slice is valid until the next Fill; media
// appends copy it, so callers may reuse the scratch at once. Not safe
// for concurrent use: owners guard it with their own lock.
type PadScratch struct {
	buf   []byte
	dirty int // buf[dirty:] is all zeros
}

// Fill returns n bytes: data followed by zeros (n ≥ len(data)).
func (p *PadScratch) Fill(data []byte, n int) []byte {
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
		p.dirty = 0
	}
	p.buf = p.buf[:cap(p.buf)]
	copy(p.buf, data)
	if len(data) < p.dirty {
		clear(p.buf[len(data):p.dirty])
	}
	p.dirty = len(data)
	return p.buf[:n]
}
