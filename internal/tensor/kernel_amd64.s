//go:build amd64

#include "textflag.h"

// func fmaKernel4x8(a0, a1, a2, a3, bp, c *float64, kc int, acc bool)
//
// Computes the 4×8 micro-tile c[r][j] = Σ_p a{r}[p] * bp[p*8+j] for
// p in [0, kc), overwriting c. With acc the accumulators start from c's
// values instead of zero, so a chain of multiply-adds carries on from an
// earlier call bit for bit. The eight accumulators (Y4..Y11) stay in
// registers across the whole k-loop; each iteration streams 8 packed B
// values (two YMM loads) and broadcasts one A value per row, issuing
// 8 FMAs = 64 double FLOPs.
TEXT ·fmaKernel4x8(SB), NOSPLIT, $0-57
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ bp+32(FP), R12
	MOVQ c+40(FP), R13
	MOVQ kc+48(FP), CX
	MOVBQZX acc+56(FP), AX

	TESTQ AX, AX
	JNZ   load

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	JMP    loop

load:
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD 64(R13), Y6
	VMOVUPD 96(R13), Y7
	VMOVUPD 128(R13), Y8
	VMOVUPD 160(R13), Y9
	VMOVUPD 192(R13), Y10
	VMOVUPD 224(R13), Y11

loop:
	VMOVUPD (R12), Y0            // b[0:4]
	VMOVUPD 32(R12), Y1          // b[4:8]

	VBROADCASTSD (R8), Y2        // a0[p]
	VBROADCASTSD (R9), Y3        // a1[p]
	VFMADD231PD Y0, Y2, Y4
	VFMADD231PD Y1, Y2, Y5
	VFMADD231PD Y0, Y3, Y6
	VFMADD231PD Y1, Y3, Y7

	VBROADCASTSD (R10), Y2       // a2[p]
	VBROADCASTSD (R11), Y3       // a3[p]
	VFMADD231PD Y0, Y2, Y8
	VFMADD231PD Y1, Y2, Y9
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y1, Y3, Y11

	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $64, R12
	DECQ CX
	JNZ  loop

	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, 64(R13)
	VMOVUPD Y7, 96(R13)
	VMOVUPD Y8, 128(R13)
	VMOVUPD Y9, 160(R13)
	VMOVUPD Y10, 192(R13)
	VMOVUPD Y11, 224(R13)
	VZEROUPPER
	RET

// func fmaAxpy(dst, src *float64, alpha float64, n int)
//
// dst[i] += alpha * src[i] for i in [0, n). The 8-wide body issues two
// YMM load/FMA/store triples per iteration; the remainder runs scalar
// FMA so every lane rounds once, like the main loop.
TEXT ·fmaAxpy(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y0
	MOVQ         n+24(FP), CX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   tail

loop8:
	VMOVUPD      (SI), Y1
	VMOVUPD      32(SI), Y2
	VFMADD213PD  (DI), Y0, Y1
	VFMADD213PD  32(DI), Y0, Y2
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	ADDQ         $64, SI
	ADDQ         $64, DI
	DECQ         BX
	JNZ          loop8

tail:
	ANDQ $7, CX
	JZ   done

tailloop:
	VMOVSD       (SI), X1
	VFMADD213SD  (DI), X0, X1
	VMOVSD       X1, (DI)
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          tailloop

done:
	VZEROUPPER
	RET

// func avxRelu(dst, src *float64, n int)
//
// dst[i] = max(src[i], 0) for i in [0, n); n must be a positive multiple
// of 4. VMAXPD with src as the first source returns the zero operand when
// src is NaN, matching the scalar `v > 0` gate.
TEXT ·avxRelu(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $2, CX
	VXORPD Y0, Y0, Y0

relulp:
	VMOVUPD (SI), Y1
	VMAXPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     relulp

	VZEROUPPER
	RET

// func avxReluGate(dst, y, grad *float64, n int)
//
// dst[i] = g[i] where y[i] > 0, else 0, for i in [0, n); n must be a
// positive multiple of 4. The compare uses predicate GT_OQ, so NaN y
// lanes gate to zero like the scalar comparison.
TEXT ·avxReluGate(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   y+8(FP), SI
	MOVQ   grad+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $2, CX
	VXORPD Y0, Y0, Y0

gatelp:
	VMOVUPD (SI), Y1
	VCMPPD  $30, Y0, Y1, Y2      // Y2 = (y > 0) lane mask (GT_OQ)
	VANDPD  (DX), Y2, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gatelp

	VZEROUPPER
	RET

// func fmaKernel6x16(a0, a1, a2, a3, a4, a5, bp, c *float32, kc int)
//
// The widened float32 micro-tile: c[r][j] = Σ_p a{r}[p] * bp[p*16+j] for
// p in [0, kc), overwriting c. Each k step streams 16 packed B values
// (two YMM loads) and broadcasts one A value per row, issuing 12 FMAs =
// 192 single FLOPs with 8 float32 lanes per register.
//
// The tile is 6×16 rather than mirroring the f64 kernel's 4-row shape
// because of the FMA latency×throughput product: with 2 FMA ports and
// ~4-cycle latency the scheduler needs more than 8 independent
// accumulator chains to keep both ports saturated, and a 4-row f32 tile
// has exactly 8 — inheriting the f64 kernel's port stall and capping the
// tier below 2x. Twelve accumulators (Y4..Y15) give the scheduler slack.
// The body is also unrolled 2× with offset addressing so pointer bumps
// and the loop branch amortize over two k steps.
//
// The k-summation order is identical to a rolled loop (p ascending), so
// unrolling changes nothing about which floats are added when —
// bit-reproducibility is untouched.

// FMASTEP32 is one k step at byte offset off into the packed B panel and
// byte offset aoff into the six A rows.
#define FMASTEP32(off, aoff) \
	VMOVUPS      off(R12), Y0       \
	VMOVUPS      (off+32)(R12), Y1  \
	VBROADCASTSS aoff(R8), Y2       \
	VBROADCASTSS aoff(R9), Y3       \
	VFMADD231PS  Y0, Y2, Y4         \
	VFMADD231PS  Y1, Y2, Y5         \
	VFMADD231PS  Y0, Y3, Y6         \
	VFMADD231PS  Y1, Y3, Y7         \
	VBROADCASTSS aoff(R10), Y2      \
	VBROADCASTSS aoff(R11), Y3      \
	VFMADD231PS  Y0, Y2, Y8         \
	VFMADD231PS  Y1, Y2, Y9         \
	VFMADD231PS  Y0, Y3, Y10        \
	VFMADD231PS  Y1, Y3, Y11        \
	VBROADCASTSS aoff(DX), Y2      \
	VBROADCASTSS aoff(SI), Y3      \
	VFMADD231PS  Y0, Y2, Y12        \
	VFMADD231PS  Y1, Y2, Y13        \
	VFMADD231PS  Y0, Y3, Y14        \
	VFMADD231PS  Y1, Y3, Y15

TEXT ·fmaKernel6x16(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ a4+32(FP), DX
	MOVQ a5+40(FP), SI
	MOVQ bp+48(FP), R12
	MOVQ c+56(FP), R13
	MOVQ kc+64(FP), CX

	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

	MOVQ CX, BX
	SHRQ $1, CX
	JZ   ktail32

kpair32:
	FMASTEP32(0, 0)
	FMASTEP32(64, 4)

	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, DX
	ADDQ $8, SI
	ADDQ $128, R12
	DECQ CX
	JNZ  kpair32

ktail32:
	ANDQ $1, BX
	JZ   kstore32

	FMASTEP32(0, 0)

kstore32:
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, 32(R13)
	VMOVUPS Y6, 64(R13)
	VMOVUPS Y7, 96(R13)
	VMOVUPS Y8, 128(R13)
	VMOVUPS Y9, 160(R13)
	VMOVUPS Y10, 192(R13)
	VMOVUPS Y11, 224(R13)
	VMOVUPS Y12, 256(R13)
	VMOVUPS Y13, 288(R13)
	VMOVUPS Y14, 320(R13)
	VMOVUPS Y15, 352(R13)
	VZEROUPPER
	RET

// func fmaAxpy32(dst, src *float32, alpha float32, n int)
//
// dst[i] += alpha * src[i] for i in [0, n). 16-wide body (two YMM
// triples), scalar-FMA remainder so every lane rounds once.
TEXT ·fmaAxpy32(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS alpha+16(FP), Y0
	MOVQ         n+24(FP), CX

	MOVQ CX, BX
	SHRQ $4, BX
	JZ   tail32

loop16:
	VMOVUPS      (SI), Y1
	VMOVUPS      32(SI), Y2
	VFMADD213PS  (DI), Y0, Y1
	VFMADD213PS  32(DI), Y0, Y2
	VMOVUPS      Y1, (DI)
	VMOVUPS      Y2, 32(DI)
	ADDQ         $64, SI
	ADDQ         $64, DI
	DECQ         BX
	JNZ          loop16

tail32:
	ANDQ $15, CX
	JZ   done32

tailloop32:
	VMOVSS       (SI), X1
	VFMADD213SS  (DI), X0, X1
	VMOVSS       X1, (DI)
	ADDQ         $4, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          tailloop32

done32:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
