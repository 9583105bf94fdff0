//go:build !amd64 || race

package nand

// storeCopy is copy(dst, src). The streaming kernel exists on amd64
// only, and under -race this version keeps sector writes visible to the
// race detector, which does not see stores made in assembly.
func storeCopy(dst, src []byte) int { return copy(dst, src) }

// storeFence has nothing to order: storeCopy made plain stores.
func storeFence() {}
