#include "textflag.h"

// The AVX2 body of the per-point kernel (kernel.go has the rule it
// keeps). Lane j of a vector holds slot j, so every slot still sees one
// unfused multiply then one add per point, in row order. Operand order
// is part of the contract: on x86 a NaN result carries the payload of
// the first NaN source, which Go's assembler writes second (src2, src1,
// dst), and each line below matches what the compiler emits for the Go
// body:
//
//	VADDPD x, l, l      l + x, accumulator first   (l[a] += v)
//	VMULPD xr, xc, p    xc * xr, column value first
//	VADDPD q, p, p      p + q, product first       (ADDSD q(mem), p)
//	VMINPD mn, v, out   v < mn ? v : mn            (if v < mn { mn = v })
//	VMAXPD mx, v, out   v > mx ? v : mx
//
// No instruction here is a fused multiply-add and none may ever be.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func updateAVX2(l, mn, mx, q, xr, xc *float64, rw, cw, mode int)
//
// q is rw×cw row-major. mode is the MatrixType: 0 lower triangle
// (rw == cw, xr == xc), 1 diagonal, anything else all rw×cw slots.
// Reads and writes stay inside [0, rw) of l/mn/mx/xr, [0, cw) of xc and
// [0, rw·cw) of q.
TEXT ·updateAVX2(SB), NOSPLIT, $0-72
	MOVQ l+0(FP), AX
	MOVQ mn+8(FP), BX
	MOVQ mx+16(FP), CX
	MOVQ xr+32(FP), SI
	MOVQ rw+48(FP), R8
	MOVQ R8, R9
	ANDQ $~3, R9
	XORQ DX, DX

lmm4:
	CMPQ    DX, R9
	JGE     lmm1
	VMOVUPD (SI)(DX*8), Y0
	VMOVUPD (AX)(DX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (AX)(DX*8)
	VMINPD  (BX)(DX*8), Y0, Y2
	VMOVUPD Y2, (BX)(DX*8)
	VMAXPD  (CX)(DX*8), Y0, Y3
	VMOVUPD Y3, (CX)(DX*8)
	ADDQ    $4, DX
	JMP     lmm4

lmm1:
	CMPQ   DX, R8
	JGE    quad
	VMOVSD (SI)(DX*8), X0
	VMOVSD (AX)(DX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (AX)(DX*8)
	VMINSD (BX)(DX*8), X0, X2
	VMOVSD X2, (BX)(DX*8)
	VMAXSD (CX)(DX*8), X0, X3
	VMOVSD X3, (CX)(DX*8)
	INCQ   DX
	JMP    lmm1

quad:
	// DI row pointer, R10 row stride in bytes, R11 xc, R12 row index a,
	// R13 mode, R9 cw, DX column index b, R8 column limit.
	MOVQ q+24(FP), DI
	MOVQ xc+40(FP), R11
	MOVQ cw+56(FP), R9
	MOVQ mode+64(FP), R13
	MOVQ R9, R10
	SHLQ $3, R10
	XORQ R12, R12
	CMPQ R13, $1
	JEQ  diag

tile:
	// Four rows a..a+3 at DI, AX, BX, CX; their x values broadcast in Y4..Y7.
	LEAQ         4(R12), AX
	CMPQ         AX, rw+48(FP)
	JGT          rows1
	VBROADCASTSD (SI)(R12*8), Y4
	VBROADCASTSD 8(SI)(R12*8), Y5
	VBROADCASTSD 16(SI)(R12*8), Y6
	VBROADCASTSD 24(SI)(R12*8), Y7
	LEAQ         (DI)(R10*1), AX
	LEAQ         (AX)(R10*1), BX
	LEAQ         (BX)(R10*1), CX

	// Whole vectors of columns: 0..a-1 (a multiple of 4) under the
	// triangle, 0..cw&^3-1 otherwise.
	MOVQ  R12, R8
	TESTQ R13, R13
	JEQ   tilecols
	MOVQ  R9, R8
	ANDQ  $~3, R8

tilecols:
	XORQ DX, DX

tile4:
	CMPQ    DX, R8
	JGE     tile4done
	VMOVUPD (R11)(DX*8), Y0
	VMULPD  Y4, Y0, Y1
	VMULPD  Y5, Y0, Y2
	VMULPD  Y6, Y0, Y3
	VMULPD  Y7, Y0, Y0
	VADDPD  (DI)(DX*8), Y1, Y1
	VADDPD  (AX)(DX*8), Y2, Y2
	VADDPD  (BX)(DX*8), Y3, Y3
	VADDPD  (CX)(DX*8), Y0, Y0
	VMOVUPD Y1, (DI)(DX*8)
	VMOVUPD Y2, (AX)(DX*8)
	VMOVUPD Y3, (BX)(DX*8)
	VMOVUPD Y0, (CX)(DX*8)
	ADDQ    $4, DX
	JMP     tile4

tile4done:
	TESTQ R13, R13
	JNE   tiletail

	// The 4×4 block on the diagonal (columns a..a+3, DX == a): row k
	// keeps lanes 0..k of q + xc·x[a+k] and its own value in the lanes
	// above the diagonal, which the triangle does not maintain.
	VMOVUPD  (R11)(DX*8), Y0
	VMOVUPD  (DI)(DX*8), Y8
	VMULPD   Y4, Y0, Y1
	VADDPD   Y8, Y1, Y1
	VBLENDPD $1, Y1, Y8, Y1
	VMOVUPD  Y1, (DI)(DX*8)
	VMOVUPD  (AX)(DX*8), Y8
	VMULPD   Y5, Y0, Y2
	VADDPD   Y8, Y2, Y2
	VBLENDPD $3, Y2, Y8, Y2
	VMOVUPD  Y2, (AX)(DX*8)
	VMOVUPD  (BX)(DX*8), Y8
	VMULPD   Y6, Y0, Y3
	VADDPD   Y8, Y3, Y3
	VBLENDPD $7, Y3, Y8, Y3
	VMOVUPD  Y3, (BX)(DX*8)
	VMULPD   Y7, Y0, Y0
	VADDPD   (CX)(DX*8), Y0, Y0
	VMOVUPD  Y0, (CX)(DX*8)
	JMP      tilenext

tiletail:
	// Columns cw&^3..cw-1, one at a time.
	CMPQ   DX, R9
	JGE    tilenext
	VMOVSD (R11)(DX*8), X0
	VMULSD X4, X0, X1
	VMULSD X5, X0, X2
	VMULSD X6, X0, X3
	VMULSD X7, X0, X0
	VADDSD (DI)(DX*8), X1, X1
	VADDSD (AX)(DX*8), X2, X2
	VADDSD (BX)(DX*8), X3, X3
	VADDSD (CX)(DX*8), X0, X0
	VMOVSD X1, (DI)(DX*8)
	VMOVSD X2, (AX)(DX*8)
	VMOVSD X3, (BX)(DX*8)
	VMOVSD X0, (CX)(DX*8)
	INCQ   DX
	JMP    tiletail

tilenext:
	ADDQ $4, R12
	LEAQ (CX)(R10*1), DI
	JMP  tile

rows1:
	// The last rw%4 rows, one at a time: a+1 columns under the
	// triangle, cw otherwise.
	CMPQ         R12, rw+48(FP)
	JGE          done
	VBROADCASTSD (SI)(R12*8), Y4
	LEAQ         1(R12), R8
	TESTQ        R13, R13
	JEQ          row1cols
	MOVQ         R9, R8

row1cols:
	XORQ DX, DX

row4:
	LEAQ    4(DX), AX
	CMPQ    AX, R8
	JGT     row1
	VMOVUPD (R11)(DX*8), Y0
	VMULPD  Y4, Y0, Y1
	VADDPD  (DI)(DX*8), Y1, Y1
	VMOVUPD Y1, (DI)(DX*8)
	MOVQ    AX, DX
	JMP     row4

row1:
	CMPQ   DX, R8
	JGE    row1next
	VMOVSD (R11)(DX*8), X0
	VMULSD X4, X0, X1
	VADDSD (DI)(DX*8), X1, X1
	VMOVSD X1, (DI)(DX*8)
	INCQ   DX
	JMP    row1

row1next:
	INCQ R12
	ADDQ R10, DI
	JMP  rows1

diag:
	// Qaa += x[a]·x[a], a stride of cw+1 slots apart, four at a time.
	ADDQ $8, R10
	MOVQ rw+48(FP), R8
	LEAQ (DI)(R10*1), AX
	LEAQ (AX)(R10*1), BX
	LEAQ (BX)(R10*1), CX
	SHLQ $2, R10

diag4:
	LEAQ   4(R12), DX
	CMPQ   DX, R8
	JGT    diag1
	VMOVSD (SI)(R12*8), X0
	VMOVSD 8(SI)(R12*8), X1
	VMOVSD 16(SI)(R12*8), X2
	VMOVSD 24(SI)(R12*8), X3
	VMULSD X0, X0, X0
	VMULSD X1, X1, X1
	VMULSD X2, X2, X2
	VMULSD X3, X3, X3
	VADDSD (DI), X0, X0
	VADDSD (AX), X1, X1
	VADDSD (BX), X2, X2
	VADDSD (CX), X3, X3
	VMOVSD X0, (DI)
	VMOVSD X1, (AX)
	VMOVSD X2, (BX)
	VMOVSD X3, (CX)
	ADDQ   R10, DI
	ADDQ   R10, AX
	ADDQ   R10, BX
	ADDQ   R10, CX
	MOVQ   DX, R12
	JMP    diag4

diag1:
	SHRQ $2, R10

diag1loop:
	CMPQ   R12, R8
	JGE    done
	VMOVSD (SI)(R12*8), X0
	VMULSD X0, X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   R10, DI
	INCQ   R12
	JMP    diag1loop

done:
	VZEROUPPER
	RET
