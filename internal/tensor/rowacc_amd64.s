//go:build !race

#include "textflag.h"

// ACC adds one entry's products to the four floats held in acc: load four
// floats of the gathered input row at off(AX), MULPS by the broadcast value
// in X15, then ADDPS with the product as the destination, the operand order
// of the compiled Go loop's product+accumulator (it decides the payload
// when two NaNs meet). X8 holds the product.
#define ACC(off, acc) \
	MOVUPS off(AX), X8 \
	MULPS  X15, X8     \
	ADDPS  acc, X8     \
	MOVAPS X8, acc

// ROW leaves in AX the address of the current chunk of entry BX's input
// row, in SI + idx[BX]·4f, and in X15 vals[BX] in every lane.
#define ROW \
	MOVLQSX (R10)(BX*4), AX \
	IMULQ   R13, AX         \
	ADDQ    SI, AX          \
	MOVSS   (R9)(BX*4), X15 \
	SHUFPS  $0, X15, X15

// func rowAccPacked(out, vals []float32, idx []int32, in []float32, f int) int64
//
// Adds Σ_p vals[p]·in[idx[p]·f+j] onto out[j] for j < f and returns rowOK,
// or returns the first index outside [0, len(in)/f) having written
// nothing: every index is checked, unsigned, before any input row is
// read. The entries are then walked once per column chunk of out — 32,
// 16, 4 and 1 floats wide, the widest that fits first — with the chunk
// loaded from out into the accumulators X0–X7, carried across all entries
// and stored once. Per element that is one MULPS then one ADDPS per entry,
// in entry order: the bits of rowAccLoop. Unaligned loads and stores
// throughout; slices start anywhere.
TEXT ·rowAccPacked(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ vals_base+24(FP), R9
	MOVQ idx_base+48(FP), R10
	MOVQ idx_len+56(FP), R11
	MOVQ in_base+72(FP), SI
	MOVQ f+96(FP), R12
	MOVQ $0x100000000, AX // rowOK
	MOVQ AX, ret+104(FP)
	TESTQ R12, R12
	JZ    done
	LEAQ  (R12*4), R13

	// Indices against rows = len(in)/f, as unsigned 64-bit values (MOVLQSX
	// sign-extends, so a negative index is huge).
	MOVQ in_len+80(FP), AX
	XORL DX, DX
	DIVQ R12
	XORL BX, BX

check:
	CMPQ    BX, R11
	JGE     chunk32
	MOVLQSX (R10)(BX*4), CX
	CMPQ    CX, AX
	JAE     bad
	INCQ    BX
	JMP     check

chunk32:
	CMPQ   R12, $32
	JLT    chunk16
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	XORL   BX, BX
	CMPQ   BX, R11
	JGE    store32

	PCALIGN $32
loop32:
	ROW
	ACC(0, X0)
	ACC(16, X1)
	ACC(32, X2)
	ACC(48, X3)
	ACC(64, X4)
	ACC(80, X5)
	ACC(96, X6)
	ACC(112, X7)
	INCQ BX
	CMPQ BX, R11
	JLT  loop32

store32:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $32, R12
	JMP    chunk32

chunk16:
	CMPQ   R12, $16
	JLT    chunk4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	XORL   BX, BX
	CMPQ   BX, R11
	JGE    store16

	PCALIGN $32
loop16:
	ROW
	ACC(0, X0)
	ACC(16, X1)
	ACC(32, X2)
	ACC(48, X3)
	INCQ BX
	CMPQ BX, R11
	JLT  loop16

store16:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, R12

chunk4:
	CMPQ   R12, $4
	JLT    chunk1
	MOVUPS (DI), X0
	XORL   BX, BX
	CMPQ   BX, R11
	JGE    store4

loop4:
	ROW
	ACC(0, X0)
	INCQ BX
	CMPQ BX, R11
	JLT  loop4

store4:
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, R12
	JMP    chunk4

chunk1:
	TESTQ R12, R12
	JZ    done
	MOVSS (DI), X0
	XORL  BX, BX
	CMPQ  BX, R11
	JGE   store1

loop1:
	MOVLQSX (R10)(BX*4), AX
	IMULQ   R13, AX
	MOVSS   (SI)(AX*1), X8
	MULSS   (R9)(BX*4), X8
	ADDSS   X0, X8
	MOVAPS  X8, X0
	INCQ    BX
	CMPQ    BX, R11
	JLT     loop1

store1:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  R12
	JMP   chunk1

bad:
	MOVQ CX, ret+104(FP)

done:
	RET
