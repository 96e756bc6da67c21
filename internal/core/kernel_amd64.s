#include "textflag.h"

// The AVX2 body of the tile kernel (kernel.go has the rule it keeps).
// Lane j of a vector holds slot j, and a block of slots stays in
// registers while the tile's points pass through it, so every slot
// still sees one unfused multiply then one add per point, in row order.
// Operand order is part of the contract: on x86 a NaN result carries
// the payload of the first NaN source, which Go's assembler writes
// second (src2, src1, dst), and each line below matches what the
// compiler emits for the Go body:
//
//	VADDPD x, l, l      l + x, accumulator first   (l[a] += v)
//	VMULPD xr, xc, p    xc * xr, column value first
//	VADDPD q, p, q      p + q, product first       (ADDSD q(mem), p)
//	VMINPD mn, v, mn    v < mn ? v : mn            (if v < mn { mn = v })
//	VMAXPD mx, v, mx    v > mx ? v : mx
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

// func updateAVX2(l, mn, mx, q, xr, xc *float64, rw, cw, stride, k, mode int)
//
// Folds k ≥ 1 points in row order. Point i's rw row values start at
// xr + i·stride and its cw column values at xc + i·stride (strides in
// float64s); q is rw×cw row-major. mode is the MatrixType: 0 lower
// triangle (rw == cw, xr == xc), 1 diagonal, anything else all rw×cw
// slots. Reads stay inside [0, (k-1)·stride + rw) of xr and
// [0, (k-1)·stride + cw) of xc; reads and writes inside [0, rw) of
// l/mn/mx and [0, rw·cw) of q.
//
// Every loop over the points ("…pt") walks one byte offset up to
// k·stride·8 while a block of slots — four of L/min/max, a 4×8 or 4×4
// block of Q, four scalars of Q — stays in registers; the block is
// loaded before the first point and stored after the last. The first
// point is folded in line and the rest ("…more") out of line, so a tile
// of one point runs straight through, as the per-point fold did.
TEXT ·updateAVX2(SB), NOSPLIT, $0-88
	MOVQ  l+0(FP), AX
	MOVQ  mn+8(FP), BX
	MOVQ  mx+16(FP), CX
	MOVQ  xr+32(FP), SI
	MOVQ  rw+48(FP), R8
	MOVQ  stride+64(FP), R12
	SHLQ  $3, R12
	MOVQ  k+72(FP), R10
	IMULQ R12, R10
	MOVQ  R8, R9
	ANDQ  $~3, R9
	XORQ  DX, DX

	// R12 tile stride in bytes, R10 its end k·stride·8, R13 &xr[a] of
	// the first point, R11 the point offset. The first point's min and
	// max read the stored ones straight from memory.
lmm4:
	CMPQ    DX, R9
	JGE     lmm1
	VMOVUPD (SI)(DX*8), Y0
	VMOVUPD (AX)(DX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMINPD  (BX)(DX*8), Y0, Y2
	VMAXPD  (CX)(DX*8), Y0, Y3
	CMPQ    R12, R10
	JLT     lmm4more

lmm4store:
	VMOVUPD Y1, (AX)(DX*8)
	VMOVUPD Y2, (BX)(DX*8)
	VMOVUPD Y3, (CX)(DX*8)
	ADDQ    $4, DX
	JMP     lmm4

lmm4more:
	LEAQ (SI)(DX*8), R13
	MOVQ R12, R11

lmm4pt:
	VMOVUPD (R13)(R11*1), Y0
	VADDPD  Y0, Y1, Y1
	VMINPD  Y2, Y0, Y2
	VMAXPD  Y3, Y0, Y3
	ADDQ    R12, R11
	CMPQ    R11, R10
	JLT     lmm4pt
	JMP     lmm4store

lmm1:
	CMPQ   DX, R8
	JGE    quad
	VMOVSD (SI)(DX*8), X0
	VMOVSD (AX)(DX*8), X1
	VADDSD X0, X1, X1
	VMINSD (BX)(DX*8), X0, X2
	VMAXSD (CX)(DX*8), X0, X3
	CMPQ   R12, R10
	JLT    lmm1more

lmm1store:
	VMOVSD X1, (AX)(DX*8)
	VMOVSD X2, (BX)(DX*8)
	VMOVSD X3, (CX)(DX*8)
	INCQ   DX
	JMP    lmm1

lmm1more:
	LEAQ (SI)(DX*8), R13
	MOVQ R12, R11

lmm1pt:
	VMOVSD (R13)(R11*1), X0
	VADDSD X0, X1, X1
	VMINSD X2, X0, X2
	VMAXSD X3, X0, X3
	ADDQ   R12, R11
	CMPQ   R11, R10
	JLT    lmm1pt
	JMP    lmm1store

quad:
	// From here: SI &xr[a] of the first point, R11 xc, DI AX BX CX
	// &q[a·cw] and the next three rows, R10 q's row stride in bytes,
	// R12 the tile stride in bytes, R9 its end, R13 row index a, R8 the
	// end of the row group's columns, DX column index b, and in the
	// loops over the points R14 the point offset and R15 &xc[b].
	MOVQ R10, R9
	MOVQ q+24(FP), DI
	MOVQ xc+40(FP), R11
	MOVQ cw+56(FP), R10
	SHLQ $3, R10
	XORQ R13, R13
	CMPQ mode+80(FP), $1
	JEQ  diag

group:
	// Rows a..a+3, the first point's values for them broadcast in
	// Y4..Y7 for the whole group; every later point's are broadcast in
	// the loops, one at a time. Columns 0..a+3 under the triangle, the
	// last four the block on the diagonal; 0..cw-1 otherwise. They go
	// in 4×8 blocks, then a 4×4 block, then (not under the triangle,
	// whose end a+4 is a multiple of four) single columns.
	LEAQ         4(R13), R8
	CMPQ         R8, rw+48(FP)
	JGT          rows1
	LEAQ         (DI)(R10*1), AX
	LEAQ         (AX)(R10*1), BX
	LEAQ         (BX)(R10*1), CX
	VBROADCASTSD (SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7
	CMPQ         mode+80(FP), $0
	JEQ          g8start
	MOVQ         cw+56(FP), R8

g8start:
	XORQ DX, DX

g8:
	// A 4×8 block of q in Y8..Y15, two vectors per row.
	LEAQ    8(DX), R14
	CMPQ    R14, R8
	JGT     g4
	VMOVUPD (DI)(DX*8), Y8
	VMOVUPD 32(DI)(DX*8), Y9
	VMOVUPD (AX)(DX*8), Y10
	VMOVUPD 32(AX)(DX*8), Y11
	VMOVUPD (BX)(DX*8), Y12
	VMOVUPD 32(BX)(DX*8), Y13
	VMOVUPD (CX)(DX*8), Y14
	VMOVUPD 32(CX)(DX*8), Y15
	LEAQ    (R11)(DX*8), R15
	VMOVUPD (R15), Y0
	VMOVUPD 32(R15), Y1
	VMULPD  Y4, Y0, Y2
	VMULPD  Y4, Y1, Y3
	VADDPD  Y8, Y2, Y8
	VADDPD  Y9, Y3, Y9
	VMULPD  Y5, Y0, Y2
	VMULPD  Y5, Y1, Y3
	VADDPD  Y10, Y2, Y10
	VADDPD  Y11, Y3, Y11
	VMULPD  Y6, Y0, Y2
	VMULPD  Y6, Y1, Y3
	VADDPD  Y12, Y2, Y12
	VADDPD  Y13, Y3, Y13
	VMULPD  Y7, Y0, Y2
	VMULPD  Y7, Y1, Y3
	VADDPD  Y14, Y2, Y14
	VADDPD  Y15, Y3, Y15
	CMPQ    R12, R9
	JLT     g8more

g8done:
	// The group's last block under the triangle holds the diagonal
	// block in its right half.
	LEAQ 8(DX), R14
	CMPQ R14, R8
	JNE  g8store
	CMPQ mode+80(FP), $0
	JNE  g8store
	VMOVUPD  32(DI)(DX*8), Y0
	VBLENDPD $1, Y9, Y0, Y9
	VMOVUPD  32(AX)(DX*8), Y1
	VBLENDPD $3, Y11, Y1, Y11
	VMOVUPD  32(BX)(DX*8), Y2
	VBLENDPD $7, Y13, Y2, Y13

g8store:
	VMOVUPD Y8, (DI)(DX*8)
	VMOVUPD Y9, 32(DI)(DX*8)
	VMOVUPD Y10, (AX)(DX*8)
	VMOVUPD Y11, 32(AX)(DX*8)
	VMOVUPD Y12, (BX)(DX*8)
	VMOVUPD Y13, 32(BX)(DX*8)
	VMOVUPD Y14, (CX)(DX*8)
	VMOVUPD Y15, 32(CX)(DX*8)
	ADDQ    $8, DX
	JMP     g8

g8more:
	MOVQ R12, R14

g8pt:
	VMOVUPD      (R15)(R14*1), Y0
	VMOVUPD      32(R15)(R14*1), Y1
	VBROADCASTSD (SI)(R14*1), Y3
	VMULPD       Y3, Y0, Y2
	VMULPD       Y3, Y1, Y3
	VADDPD       Y8, Y2, Y8
	VADDPD       Y9, Y3, Y9
	VBROADCASTSD 8(SI)(R14*1), Y3
	VMULPD       Y3, Y0, Y2
	VMULPD       Y3, Y1, Y3
	VADDPD       Y10, Y2, Y10
	VADDPD       Y11, Y3, Y11
	VBROADCASTSD 16(SI)(R14*1), Y3
	VMULPD       Y3, Y0, Y2
	VMULPD       Y3, Y1, Y3
	VADDPD       Y12, Y2, Y12
	VADDPD       Y13, Y3, Y13
	VBROADCASTSD 24(SI)(R14*1), Y3
	VMULPD       Y3, Y0, Y2
	VMULPD       Y3, Y1, Y3
	VADDPD       Y14, Y2, Y14
	VADDPD       Y15, Y3, Y15
	ADDQ         R12, R14
	CMPQ         R14, R9
	JLT          g8pt
	JMP          g8done

g4:
	// A 4×4 block in Y8..Y11.
	LEAQ    4(DX), R14
	CMPQ    R14, R8
	JGT     gtail
	VMOVUPD (DI)(DX*8), Y8
	VMOVUPD (AX)(DX*8), Y9
	VMOVUPD (BX)(DX*8), Y10
	VMOVUPD (CX)(DX*8), Y11
	LEAQ    (R11)(DX*8), R15
	VMOVUPD (R15), Y0
	VMULPD  Y4, Y0, Y1
	VMULPD  Y5, Y0, Y2
	VMULPD  Y6, Y0, Y3
	VMULPD  Y7, Y0, Y0
	VADDPD  Y8, Y1, Y8
	VADDPD  Y9, Y2, Y9
	VADDPD  Y10, Y3, Y10
	VADDPD  Y11, Y0, Y11
	CMPQ    R12, R9
	JLT     g4more

g4done:
	// Under the triangle this is the diagonal block.
	LEAQ     4(DX), R14
	CMPQ     R14, R8
	JNE      g4store
	CMPQ     mode+80(FP), $0
	JNE      g4store
	VMOVUPD  (DI)(DX*8), Y0
	VBLENDPD $1, Y8, Y0, Y8
	VMOVUPD  (AX)(DX*8), Y1
	VBLENDPD $3, Y9, Y1, Y9
	VMOVUPD  (BX)(DX*8), Y2
	VBLENDPD $7, Y10, Y2, Y10

g4store:
	VMOVUPD Y8, (DI)(DX*8)
	VMOVUPD Y9, (AX)(DX*8)
	VMOVUPD Y10, (BX)(DX*8)
	VMOVUPD Y11, (CX)(DX*8)
	ADDQ    $4, DX

gtail:
	// Columns cw&^3..cw-1, one at a time, in X8..X11.
	CMPQ   DX, R8
	JGE    gnext
	VMOVSD (DI)(DX*8), X8
	VMOVSD (AX)(DX*8), X9
	VMOVSD (BX)(DX*8), X10
	VMOVSD (CX)(DX*8), X11
	LEAQ   (R11)(DX*8), R15
	XORQ   R14, R14

gtailpt:
	VMOVSD (R15)(R14*1), X0
	VMOVSD (SI)(R14*1), X4
	VMOVSD 8(SI)(R14*1), X5
	VMOVSD 16(SI)(R14*1), X6
	VMOVSD 24(SI)(R14*1), X7
	VMULSD X4, X0, X1
	VMULSD X5, X0, X2
	VMULSD X6, X0, X3
	VMULSD X7, X0, X0
	VADDSD X8, X1, X8
	VADDSD X9, X2, X9
	VADDSD X10, X3, X10
	VADDSD X11, X0, X11
	ADDQ   R12, R14
	CMPQ   R14, R9
	JLT    gtailpt
	VMOVSD X8, (DI)(DX*8)
	VMOVSD X9, (AX)(DX*8)
	VMOVSD X10, (BX)(DX*8)
	VMOVSD X11, (CX)(DX*8)
	INCQ   DX
	JMP    gtail

g4more:
	MOVQ R12, R14

g4pt:
	VMOVUPD      (R15)(R14*1), Y0
	VBROADCASTSD (SI)(R14*1), Y1
	VBROADCASTSD 8(SI)(R14*1), Y2
	VBROADCASTSD 16(SI)(R14*1), Y3
	VMULPD       Y1, Y0, Y1
	VMULPD       Y2, Y0, Y2
	VMULPD       Y3, Y0, Y3
	VADDPD       Y8, Y1, Y8
	VADDPD       Y9, Y2, Y9
	VADDPD       Y10, Y3, Y10
	VBROADCASTSD 24(SI)(R14*1), Y1
	VMULPD       Y1, Y0, Y1
	VADDPD       Y11, Y1, Y11
	ADDQ         R12, R14
	CMPQ         R14, R9
	JLT          g4pt
	JMP          g4done

gnext:
	ADDQ $4, R13
	LEAQ (DI)(R10*4), DI
	ADDQ $32, SI
	JMP  group

rows1:
	// The last rw%4 rows, one at a time: a+1 columns under the
	// triangle, cw otherwise; a vector of columns in Y8, then single
	// columns in X8.
	CMPQ R13, rw+48(FP)
	JGE  done
	LEAQ 1(R13), R8
	CMPQ mode+80(FP), $0
	JEQ  r4start
	MOVQ cw+56(FP), R8

r4start:
	XORQ DX, DX

r4:
	LEAQ    4(DX), R14
	CMPQ    R14, R8
	JGT     r1
	VMOVUPD (DI)(DX*8), Y8
	LEAQ    (R11)(DX*8), R15
	XORQ    R14, R14

r4pt:
	VMOVUPD      (R15)(R14*1), Y0
	VBROADCASTSD (SI)(R14*1), Y4
	VMULPD       Y4, Y0, Y1
	VADDPD       Y8, Y1, Y8
	ADDQ         R12, R14
	CMPQ         R14, R9
	JLT          r4pt
	VMOVUPD      Y8, (DI)(DX*8)
	ADDQ         $4, DX
	JMP          r4

r1:
	CMPQ   DX, R8
	JGE    rnext
	VMOVSD (DI)(DX*8), X8
	LEAQ   (R11)(DX*8), R15
	XORQ   R14, R14

r1pt:
	VMOVSD (R15)(R14*1), X0
	VMOVSD (SI)(R14*1), X4
	VMULSD X4, X0, X1
	VADDSD X8, X1, X8
	ADDQ   R12, R14
	CMPQ   R14, R9
	JLT    r1pt
	VMOVSD X8, (DI)(DX*8)
	INCQ   DX
	JMP    r1

rnext:
	INCQ R13
	ADDQ R10, DI
	ADDQ $8, SI
	JMP  rows1

diag:
	// Qaa += x[a]·x[a], a stride of cw+1 slots apart: four slots at a
	// time in X8..X11, then one at a time. The first point's sums read
	// the stored ones straight from memory.
	ADDQ $8, R10
	MOVQ rw+48(FP), R8

diag4:
	LEAQ   4(R13), DX
	CMPQ   DX, R8
	JGT    diag1
	LEAQ   (DI)(R10*1), AX
	LEAQ   (AX)(R10*1), BX
	LEAQ   (BX)(R10*1), CX
	VMOVSD (SI), X0
	VMOVSD 8(SI), X1
	VMOVSD 16(SI), X2
	VMOVSD 24(SI), X3
	VMULSD X0, X0, X0
	VMULSD X1, X1, X1
	VMULSD X2, X2, X2
	VMULSD X3, X3, X3
	VADDSD (DI), X0, X8
	VADDSD (AX), X1, X9
	VADDSD (BX), X2, X10
	VADDSD (CX), X3, X11
	CMPQ   R12, R9
	JLT    diag4more

diag4store:
	VMOVSD X8, (DI)
	VMOVSD X9, (AX)
	VMOVSD X10, (BX)
	VMOVSD X11, (CX)
	LEAQ   (DI)(R10*4), DI
	ADDQ   $32, SI
	ADDQ   $4, R13
	JMP    diag4

diag4more:
	MOVQ R12, DX

diag4pt:
	VMOVSD (SI)(DX*1), X0
	VMOVSD 8(SI)(DX*1), X1
	VMOVSD 16(SI)(DX*1), X2
	VMOVSD 24(SI)(DX*1), X3
	VMULSD X0, X0, X0
	VMULSD X1, X1, X1
	VMULSD X2, X2, X2
	VMULSD X3, X3, X3
	VADDSD X8, X0, X8
	VADDSD X9, X1, X9
	VADDSD X10, X2, X10
	VADDSD X11, X3, X11
	ADDQ   R12, DX
	CMPQ   DX, R9
	JLT    diag4pt
	JMP    diag4store

diag1:
	CMPQ   R13, R8
	JGE    done
	VMOVSD (DI), X8
	XORQ   DX, DX

diag1pt:
	VMOVSD (SI)(DX*1), X0
	VMULSD X0, X0, X0
	VADDSD X8, X0, X8
	ADDQ   R12, DX
	CMPQ   DX, R9
	JLT    diag1pt
	VMOVSD X8, (DI)
	ADDQ   R10, DI
	ADDQ   $8, SI
	INCQ   R13
	JMP    diag1

done:
	VZEROUPPER
	RET
