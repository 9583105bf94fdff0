//go:build amd64 && !race

package nand

import "unsafe"

// streamMinLen is the shortest copy storeCopy streams: one 4 KB sector.
const streamMinLen = 4096

// storeCopy is copy(dst, src) written with streaming (non-temporal)
// stores. A normal store reads each destination cache line before
// overwriting it; a streaming store writes the line without reading it
// and without keeping it in cache, which halves the memory traffic of
// a copy into memory that is not in cache, and is slower into memory
// that is. It streams when dst is 16-byte aligned and the length is a
// multiple of 64 of at least streamMinLen, and otherwise calls copy.
// It copies forward, so dst must not overlap src at a higher address.
// Streaming stores are weakly ordered: a caller makes them visible to
// other threads with storeFence, once after a batch of copies.
func storeCopy(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n < streamMinLen || n%64 != 0 || uintptr(unsafe.Pointer(unsafe.SliceData(dst)))%16 != 0 {
		return copy(dst, src)
	}
	streamCopy(dst[:n], src[:n])
	return n
}

// streamCopy copies len(dst) bytes, a positive multiple of 64, from src
// into the 16-byte-aligned dst with MOVNTO stores, unfenced.
//
//go:noescape
func streamCopy(dst, src []byte)

// storeFence orders every streaming store made before it (SFENCE) before
// whatever the caller does next, such as publishing the sectors it
// filled under a lock.
func storeFence()
