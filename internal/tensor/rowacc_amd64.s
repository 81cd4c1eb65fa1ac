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
// row, in SI + idx[BX]·4f, and in X15 vals[BX] in every lane; or, if
// idx[BX] has no row in in (unsigned against CX, so a negative index is
// huge), leaves before the chunk is stored, with the index in AX.
#define ROW \
	MOVLQSX (R10)(BX*4), AX \
	CMPQ    AX, CX          \
	JAE     bad             \
	IMULQ   R13, AX         \
	ADDQ    SI, AX          \
	MOVSS   (R9)(BX*4), X15 \
	SHUFPS  $0, X15, X15

// func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int) int64
//
// For each row r < len(ptr)-1 (one row of every entry if ptr is empty),
// adds Σ_p vals[p]·in[idx[p]·f+j] over p in [ptr[r], ptr[r+1]) onto
// out[r·f+j] for j < f, and returns rowOK.
//
// First the run is checked against its operands — ptr ascending from 0,
// its last offset within idx and vals, rows·f within out — and rowBadRun
// returned, having read nothing, if it does not fit. Then each row's
// entries are walked once per column chunk of its output — 32, 16, 8, 4,
// 2 and 1 floats wide, the widest that fits first — with the chunk loaded
// into the accumulators X0–X7, carried across all entries and stored
// once. Per element that is one MULPS (MULSS) then one ADDPS (ADDSS) per
// entry, in entry order: the bits of rowAccLoop. The 2-float chunk loads
// and stores with MOVSD; its lanes 2–3 are never stored. Unaligned loads
// and stores throughout; slices start anywhere.
//
// Every index is checked, unsigned, against len(in)/f (one DIVQ per
// call) before its input row is loaded. The first chunk's pass over a
// row meets every index of the row and stores nothing until it ends, so
// a bad index is returned with the rows before its row done and its row
// untouched.
//
// Registers across the row loop: R8 &ptr[r], R9 &vals[ptr[r]],
// R10 &idx[ptr[r]], R11 the row's entry count, R13 4f, DX the row of out.
// Per chunk: DI and SI the chunk of out and its offset into in, R12 the
// width left.
TEXT ·rowAccPacked(SB), NOSPLIT, $24-136
	MOVQ ptr_base+72(FP), R8
	MOVQ ptr_len+80(FP), CX
	TESTQ CX, CX
	JNZ  runs
	// An empty ptr is the run {0, len(idx)}, built in the frame.
	MOVQ $0, p0-24(SP)
	MOVQ idx_len+56(FP), AX
	MOVQ AX, p1-16(SP)
	LEAQ p0-24(SP), R8
	MOVQ $2, CX

runs:
	// DX = &ptr[last]. Offsets ascend from ptr[0] >= 0 to at most len(idx)
	// and len(vals).
	LEAQ  -8(R8)(CX*8), DX
	MOVQ  DX, end-8(SP)
	MOVQ  (R8), AX
	TESTQ AX, AX
	JS    badrun
	MOVQ  R8, BX

ascend:
	CMPQ BX, DX
	JAE  ascended
	MOVQ 8(BX), CX
	CMPQ CX, AX
	JLT  badrun
	MOVQ CX, AX
	ADDQ $8, BX
	JMP  ascend

ascended:
	CMPQ AX, idx_len+56(FP)
	JGT  badrun
	CMPQ AX, vals_len+32(FP)
	JGT  badrun

	// rows·f, unsigned and without overflow, within len(out).
	MOVQ DX, AX
	SUBQ R8, AX
	SHRQ $3, AX
	MOVQ f+120(FP), R12
	MULQ R12
	JCS  badrun
	CMPQ AX, out_len+8(FP)
	JHI  badrun

	MOVQ  $0x100000000, AX // rowOK
	MOVQ  AX, ret+128(FP)
	TESTQ R12, R12
	JZ    done
	LEAQ  (R12*4), R13

	// Indices are checked against inRows = len(in)/f as unsigned 64-bit
	// values (MOVLQSX sign-extends, so a negative index is huge).
	MOVQ in_len+104(FP), AX
	XORL DX, DX
	DIVQ R12
	MOVQ AX, CX

	MOVQ (R8), AX
	MOVQ vals_base+24(FP), R9
	LEAQ (R9)(AX*4), R9
	MOVQ idx_base+48(FP), R10
	LEAQ (R10)(AX*4), R10
	MOVQ out_base+0(FP), DX

row:
	CMPQ R8, end-8(SP)
	JAE  done
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8

	// An empty row adds nothing; its chunks are neither loaded nor stored.
	TESTQ R11, R11
	JZ    nextrow
	MOVQ  DX, DI
	MOVQ  in_base+96(FP), SI
	MOVQ  f+120(FP), R12

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

	// Below 32 floats each narrower chunk fits at most once.
chunk16:
	CMPQ   R12, $16
	JLT    chunk8
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	XORL   BX, BX

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

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, R12

chunk8:
	CMPQ   R12, $8
	JLT    chunk4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	XORL   BX, BX

loop8:
	ROW
	ACC(0, X0)
	ACC(16, X1)
	INCQ BX
	CMPQ BX, R11
	JLT  loop8

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, R12

chunk4:
	CMPQ   R12, $4
	JLT    chunk2
	MOVUPS (DI), X0
	XORL   BX, BX

loop4:
	ROW
	ACC(0, X0)
	INCQ BX
	CMPQ BX, R11
	JLT  loop4

	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, R12

chunk2:
	CMPQ  R12, $2
	JLT   chunk1
	MOVSD (DI), X0
	XORL  BX, BX

loop2:
	ROW
	MOVSD (AX), X8
	MULPS X15, X8
	ADDPS X0, X8
	MOVAPS X8, X0
	INCQ  BX
	CMPQ  BX, R11
	JLT   loop2

	MOVSD X0, (DI)
	ADDQ  $8, DI
	ADDQ  $8, SI
	SUBQ  $2, R12

chunk1:
	TESTQ R12, R12
	JZ    nextrow
	MOVSS (DI), X0
	XORL  BX, BX

loop1:
	MOVLQSX (R10)(BX*4), AX
	CMPQ    AX, CX
	JAE     bad
	IMULQ   R13, AX
	MOVSS   (SI)(AX*1), X8
	MULSS   (R9)(BX*4), X8
	ADDSS   X0, X8
	MOVAPS  X8, X0
	INCQ    BX
	CMPQ    BX, R11
	JLT     loop1

	MOVSS X0, (DI)

nextrow:
	LEAQ (R9)(R11*4), R9
	LEAQ (R10)(R11*4), R10
	ADDQ R13, DX
	JMP  row

badrun:
	MOVQ $0x200000000, AX // rowBadRun
	MOVQ AX, ret+128(FP)
	RET

bad:
	MOVQ AX, ret+128(FP)

done:
	RET
