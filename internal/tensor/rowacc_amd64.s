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

// VACC is ACC eight floats wide in VEX form (AVX, no FMA): the input
// chunk into Y8, VMULPS with the input element as the first source, then
// VADDPS with the product as the first source. Three operands need no
// copy, and the roundings and operand order are ACC's.
#define VACC(off, acc) \
	VMOVUPS off(AX), Y8 \
	VMULPS  Y15, Y8, Y8 \
	VADDPS  acc, Y8, acc

// ZACC is VACC sixteen floats wide in EVEX form (AVX-512F): Z8 and Z15
// for Y8 and Y15, no mask, no embedded rounding, the same operand order.
#define ZACC(off, acc) \
	VMOVUPS off(AX), Z8 \
	VMULPS  Z15, Z8, Z8 \
	VADDPS  acc, Z8, acc

// MACC is VACC or ZACC on the masked last accumulator of a set-form pass,
// with t (X8, Y8 or Z8) for the input chunk and bc (X15, Y15 or Z15) for
// the value: the input lanes K1 leaves out are loaded as +0 (and never
// fault), and the accumulator's lanes past the row are never stored.
#define MACC(off, acc, t, bc) \
	VMOVUPS.Z off(AX), K1, t \
	VMULPS    bc, t, t       \
	VADDPS    acc, t, acc

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

// VROW is ROW for the VEX and EVEX chunks: vals[BX] broadcast into all of
// bc (Y15 or Z15), and a bad index leaves through badvex, which clears the
// upper halves.
#define VROW(bc) \
	MOVLQSX      (R10)(BX*4), AX \
	CMPQ         AX, CX          \
	JAE          badvex          \
	IMULQ        R13, AX         \
	ADDQ         SI, AX          \
	VBROADCASTSS (R9)(BX*4), bc

// func hasAVX() bool
//
// Reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS saves
// YMM state: OSXSAVE (bit 27) set and XCR0's SSE and AVX bits (XGETBV(0)
// & 6) both on.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)

noavx:
	RET

// func hasAVX512() bool
//
// Reports whether the CPU has AVX512F and AVX512VL (CPUID.(7,0):EBX bits
// 16 and 31, leaf 7 within CPUID.0's maximum) and the OS saves their
// state: OSXSAVE (CPUID.1:ECX bit 27) set and XCR0's SSE, AVX, opmask,
// ZMM_Hi256 and Hi16_ZMM bits (XGETBV(0) & 0xE6) all on. VL is what lets
// the set form mask XMM and YMM accumulators; a CPU with AVX512F but not
// VL (the Xeon Phi parts) reports false and takes the VEX tier throughout.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  noavx512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80010000, BX
	CMPL BX, $0x80010000
	JNE  noavx512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noavx512
	MOVB $1, ret+0(FP)

noavx512:
	RET

// func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) int64
//
// For each row r < len(ptr)-1 (one row of every entry if ptr is empty),
// adds Σ_p vals[p]·in[idx[p]·f+j] over p in [ptr[r], ptr[r+1]) onto
// out[r·f+j] for j < f (the add form), or, when set is true, stores that
// sum taken from +0 there without reading out (the set form), and returns
// rowOK.
//
// First the run is checked against its operands — ptr ascending from 0,
// its last offset within idx and vals, rows·f within out — and rowBadRun
// returned, having read nothing, if it does not fit. Then each row's
// entries are walked once per column chunk of its output — 32, 16, 8, 4,
// 2 and 1 floats wide, the widest that fits first — with the chunk loaded
// into the accumulators X0–X7 (zeroed instead in the set form), carried
// across all entries and stored once. Rows of 32 floats or more take
// wider chunks where the probes allow: when useEVEX is set (the CPU has
// AVX-512F and VL and the OS saves ZMM state), 128-float chunks in Z0–Z7,
// then at most one 64-float chunk in Z0–Z3 and one 32-float chunk in
// Z0–Z1; else, when useVEX is set (AVX, YMM state saved), 64- and
// 32-float chunks in Y0–Y7.
//
// With useEVEX the set form runs every row of 3 to 48 floats in one pass
// (one XMM accumulator up to 4 floats, one YMM up to 8, two YMM up to 15,
// then ⌈f/16⌉ ZMM). The last accumulator of a pass is masked by K1 unless
// it is full: its loads zero the lanes past the row without touching them
// and its store leaves them alone. Rows of 1 and 2 floats, whose SSE2
// chunk is one pass already, and rows wider than 48 floats take the
// chunks above from zeroed accumulators. The add form never takes the
// masked pass: a masked store does not forward to the next row's
// overlapping load of out.
//
// VZEROUPPER comes before the SSE2 chunks and on every exit from the wide
// ones; only Z0–Z15 are written, so it leaves no upper state dirty. Per
// element that is one MULPS (VMULPS, MULSS) then one ADDPS (VADDPS, ADDSS)
// per entry, in entry order, with the same operands first: the bits of
// rowAccLoop. The 2-float chunk loads and stores with MOVSD; its lanes 2–3
// are never stored. Unaligned loads and stores throughout; slices start
// anywhere. An empty row is skipped by the add form and set to +0 by the
// set form.
//
// Every index is checked, unsigned, against len(in)/f (one DIVQ per
// call) before its input row is loaded. The first chunk's pass over a
// row meets every index of the row and stores nothing until it ends, so
// a bad index is returned with the rows before its row done and its row
// untouched by the add form; the set form then sets its row and every row
// after it in the run to +0.
//
// Registers across the row loop: R8 &ptr[r], R9 &vals[ptr[r]],
// R10 &idx[ptr[r]], R11 the row's entry count, R13 4f, DX the row of out,
// K1 the masked pass's lanes. Per chunk: DI and SI the chunk of out and
// its offset into in, R12 the width left.
TEXT ·rowAccPacked(SB), NOSPLIT, $24-144
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
	MOVQ  AX, ret+136(FP)
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

	// With AVX-512 the set form runs rows of 3 to 48 floats in one masked
	// pass each, in a row loop of their own per width class, with SI
	// holding in throughout. K1 keeps the lanes of the pass's last
	// accumulator, the same for every row: (f−1) mod 8 + 1 of them for
	// rows of up to 16 floats (XMM and YMM accumulators), else
	// (f−1) mod 16 + 1 (ZMM), as 2^lanes − 1.
	CMPB set+128(FP), $0
	JEQ  row
	CMPB ·useEVEX(SB), $0
	JEQ  row
	CMPQ R12, $2
	JLE  row
	CMPQ R12, $48
	JGT  row
	LEAQ  -1(R12), AX
	MOVL  $7, BX
	CMPQ  R12, $16
	JLE   lanes
	MOVL  $15, BX

lanes:
	ANDL  BX, AX
	INCL  AX
	XORL  BX, BX
	BTSL  AX, BX
	DECL  BX
	KMOVW BX, K1
	MOVQ  in_base+96(FP), SI
	CMPQ R12, $4
	JLE  nrowx
	CMPQ R12, $8
	JLE  nrowy
	CMPQ R12, $16
	JLT  nrowy2
	JEQ  nrow1
	CMPQ R12, $32
	JLE  nrow2
	JMP  nrow3

row:
	CMPQ R8, end-8(SP)
	JAE  done
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	MOVQ DX, DI
	MOVQ in_base+96(FP), SI
	MOVQ f+120(FP), R12

	// An empty row adds nothing: the add form neither loads nor stores it.
	TESTQ R11, R11
	JZ    emptyrow

	// Rows of 32 floats or more take the EVEX chunks when the probe found
	// AVX-512F, else the VEX chunks when it found AVX; narrower rows never
	// look.
	CMPQ R12, $32
	JLT  chunk16
	CMPB ·useEVEX(SB), $0
	JNE  chunk128z
	CMPB ·useVEX(SB), $0
	JNE  chunk64v

chunk32:
	CMPQ   R12, $32
	JLT    chunk16
	CMPB   set+128(FP), $0
	JNE    zero32
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	JMP    start32

zero32:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

start32:
	XORL BX, BX

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
	CMPB   set+128(FP), $0
	JNE    zero16
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	JMP    start16

zero16:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

start16:
	XORL BX, BX

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
	CMPB   set+128(FP), $0
	JNE    zero8
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	JMP    start8

zero8:
	XORPS X0, X0
	XORPS X1, X1

start8:
	XORL BX, BX

	PCALIGN $32
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
	XORPS  X0, X0
	CMPB   set+128(FP), $0
	JNE    start4
	MOVUPS (DI), X0

start4:
	XORL BX, BX

	PCALIGN $32
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
	XORPS X0, X0
	CMPB  set+128(FP), $0
	JNE   start2
	MOVSD (DI), X0

start2:
	XORL BX, BX

	PCALIGN $32
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
	XORPS X0, X0
	CMPB  set+128(FP), $0
	JNE   start1
	MOVSS (DI), X0

start1:
	XORL BX, BX

	PCALIGN $32
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

	// An empty row of the set form, and on a bad index its row and the
	// rows after it, are R12 bytes of +0 stored at DI.
emptyrow:
	CMPB set+128(FP), $0
	JEQ  nextrow
	MOVQ R13, R12

zerofill:
	XORPS X0, X0

zerofill16:
	CMPQ   R12, $16
	JLT    zerofill4
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	SUBQ   $16, R12
	JMP    zerofill16

zerofill4:
	TESTQ R12, R12
	JZ    nextrow
	MOVSS X0, (DI)
	ADDQ  $4, DI
	SUBQ  $4, R12
	JMP   zerofill4

	// The VEX chunks: 64 floats in Y0–Y7 as often as they fit, then 32 in
	// Y0–Y3 at most once, then the SSE2 chunks from 16 down, after
	// VZEROUPPER (legacy SSE after dirty upper halves stalls).
chunk64v:
	CMPQ    R12, $64
	JLT     chunk32v
	CMPB    set+128(FP), $0
	JNE     zero64v
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	JMP     start64v

zero64v:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

start64v:
	XORL BX, BX

	PCALIGN $32
loop64v:
	VROW(Y15)
	VACC(0, Y0)
	VACC(32, Y1)
	VACC(64, Y2)
	VACC(96, Y3)
	VACC(128, Y4)
	VACC(160, Y5)
	VACC(192, Y6)
	VACC(224, Y7)
	INCQ BX
	CMPQ BX, R11
	JLT  loop64v

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $64, R12
	JMP     chunk64v

chunk32v:
	CMPQ    R12, $32
	JLT     vexdone
	CMPB    set+128(FP), $0
	JNE     zero32v
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	JMP     start32v

zero32v:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

start32v:
	XORL BX, BX

	PCALIGN $32
loop32v:
	VROW(Y15)
	VACC(0, Y0)
	VACC(32, Y1)
	VACC(64, Y2)
	VACC(96, Y3)
	INCQ BX
	CMPQ BX, R11
	JLT  loop32v

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, R12

vexdone:
	VZEROUPPER
	JMP chunk16

	// The EVEX chunks: 128 floats in Z0–Z7 as often as they fit, then 64
	// in Z0–Z3 and 32 in Z0–Z1 at most once each, then the SSE2 chunks from
	// 16 down, after VZEROUPPER as for the VEX ones.
chunk128z:
	CMPQ    R12, $128
	JLT     chunk64z
	CMPB    set+128(FP), $0
	JNE     zero128z
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS 256(DI), Z4
	VMOVUPS 320(DI), Z5
	VMOVUPS 384(DI), Z6
	VMOVUPS 448(DI), Z7
	JMP     start128z

zero128z:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

start128z:
	XORL BX, BX

	PCALIGN $32
loop128z:
	VROW(Z15)
	ZACC(0, Z0)
	ZACC(64, Z1)
	ZACC(128, Z2)
	ZACC(192, Z3)
	ZACC(256, Z4)
	ZACC(320, Z5)
	ZACC(384, Z6)
	ZACC(448, Z7)
	INCQ BX
	CMPQ BX, R11
	JLT  loop128z

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $512, SI
	SUBQ    $128, R12
	JMP     chunk128z

chunk64z:
	CMPQ    R12, $64
	JLT     chunk32z
	CMPB    set+128(FP), $0
	JNE     zero64z
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	JMP     start64z

zero64z:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3

start64z:
	XORL BX, BX

	PCALIGN $32
loop64z:
	VROW(Z15)
	ZACC(0, Z0)
	ZACC(64, Z1)
	ZACC(128, Z2)
	ZACC(192, Z3)
	INCQ BX
	CMPQ BX, R11
	JLT  loop64z

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $64, R12

chunk32z:
	CMPQ    R12, $32
	JLT     vexdone
	CMPB    set+128(FP), $0
	JNE     zero32z
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	JMP     start32z

zero32z:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1

start32z:
	XORL BX, BX

	PCALIGN $32
loop32z:
	VROW(Z15)
	ZACC(0, Z0)
	ZACC(64, Z1)
	INCQ BX
	CMPQ BX, R11
	JLT  loop32z

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, R12
	JMP     vexdone

	// The set form's rows of 3 to 48 floats with AVX-512: every row of the
	// run in one pass over its accumulators from +0, stored at DX, the last
	// one masked by K1 but at 16 floats: one XMM (3–4 floats), one YMM
	// (5–8), two YMM (9–15), one ZMM (16), two ZMM (17–32), three ZMM
	// (33–48). An empty row stores the +0 it starts from.
nrow1:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VPXORD Z0, Z0, Z0
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstore1

	PCALIGN $32
nloop1:
	VROW(Z15)
	ZACC(0, Z0)
	INCQ BX
	CMPQ BX, R11
	JLT  nloop1

nstore1:
	VMOVUPS Z0, (DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrow1

nrow2:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstore2

	PCALIGN $32
nloop2:
	VROW(Z15)
	ZACC(0, Z0)
	MACC(64, Z1, Z8, Z15)
	INCQ BX
	CMPQ BX, R11
	JLT  nloop2

nstore2:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, K1, 64(DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrow2

nrow3:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstore3

	PCALIGN $32
nloop3:
	VROW(Z15)
	ZACC(0, Z0)
	ZACC(64, Z1)
	MACC(128, Z2, Z8, Z15)
	INCQ BX
	CMPQ BX, R11
	JLT  nloop3

nstore3:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, K1, 128(DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrow3

nrowx:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VXORPS X0, X0, X0
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstorex

	PCALIGN $32
nloopx:
	VROW(X15)
	MACC(0, X0, X8, X15)
	INCQ BX
	CMPQ BX, R11
	JLT  nloopx

nstorex:
	VMOVUPS X0, K1, (DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrowx

nrowy:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VXORPS Y0, Y0, Y0
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstorey

	PCALIGN $32
nloopy:
	VROW(Y15)
	MACC(0, Y0, Y8, Y15)
	INCQ BX
	CMPQ BX, R11
	JLT  nloopy

nstorey:
	VMOVUPS Y0, K1, (DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrowy

nrowy2:
	CMPQ R8, end-8(SP)
	JAE  ndone
	MOVQ 8(R8), R11
	SUBQ (R8), R11
	ADDQ $8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORL   BX, BX
	TESTQ  R11, R11
	JZ     nstorey2

	PCALIGN $32
nloopy2:
	VROW(Y15)
	VACC(0, Y0)
	MACC(32, Y1, Y8, Y15)
	INCQ BX
	CMPQ BX, R11
	JLT  nloopy2

nstorey2:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, K1, 32(DX)
	LEAQ    (R9)(R11*4), R9
	LEAQ    (R10)(R11*4), R10
	ADDQ    R13, DX
	JMP     nrowy2

ndone:
	VZEROUPPER
	RET

badrun:
	MOVQ $0x200000000, AX // rowBadRun
	MOVQ AX, ret+136(FP)
	RET

badvex:
	VZEROUPPER

bad:
	MOVQ AX, ret+136(FP)
	CMPB set+128(FP), $0
	JEQ  done

	// The set form sets the bad index's row and the rest of the run to +0
	// (4f bytes a row from DX), then leaves through the row loop.
	MOVQ  end-8(SP), R12
	SUBQ  R8, R12
	SHRQ  $3, R12
	INCQ  R12
	IMULQ R13, R12
	MOVQ  DX, DI
	MOVQ  end-8(SP), R8
	JMP   zerofill

done:
	RET
