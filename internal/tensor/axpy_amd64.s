//go:build !race

#include "textflag.h"

// func axpyPacked(s float32, x, y []float32)
//
// y[j] += s*x[j] for j < len(x): MULPS then ADDPS, one rounding each, so
// every lane matches the scalar MULSS/ADDSS sequence the compiler emits for
// AxpyLoop (same destination operands too: x*s, then product+y, which is
// what decides the payload when two NaNs meet). Unaligned loads and stores
// throughout; slices start anywhere.
TEXT ·axpyPacked(SB), NOSPLIT, $0-56
	MOVSS  s+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   tail4

	PCALIGN $32
loop16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    loop16

tail4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail1

loop4:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   BX
	JNZ    loop4

tail1:
	ANDQ $3, CX
	JZ   done

loop1:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X5, X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   loop1

done:
	RET
