//go:build amd64 && !race

#include "textflag.h"

// func streamCopy(dst, src []byte)
//
// Copies len(dst) bytes, a positive multiple of 64, from src to the
// 16-byte-aligned dst: unaligned 16-byte loads, non-temporal 16-byte
// stores, 64 bytes per iteration. No fence: a caller that copies many
// sectors fences once, with storeFence.
TEXT ·streamCopy(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX

loop:
	MOVOU  0(SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVNTO X0, 0(DI)
	MOVNTO X1, 16(DI)
	MOVNTO X2, 32(DI)
	MOVNTO X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop
	RET

// func storeFence()
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET
