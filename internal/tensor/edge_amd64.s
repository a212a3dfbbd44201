//go:build amd64

#include "textflag.h"

// The GEMM's edges: B-panel packing, tile stores, A's transpose-and-narrow
// and the fused momentum step, each the vector form of a portable Go loop
// (matmul.go, matmul32.go, tensor.go) that it matches bit for bit. Every
// conversion is a single IEEE rounding (VCVTPD2PS) or exact (VCVTPS2PD),
// like Go's float32() and float64() conversions; every add and multiply
// is the same single-rounding operation as the scalar loop's. The Go
// wrappers in kernel_amd64.go check bounds and hand these routines only
// whole panels, whole tiles and 4-aligned spans.

// TRANSPOSE4 transposes the 4×4 block of float64 held in rows s0..s3, in
// place, using t0..t3 as scratch: afterwards s{q} holds element q of every
// original row.
#define TRANSPOSE4(s0, s1, s2, s3, t0, t1, t2, t3) \
	VUNPCKLPD  s1, s0, t0        \
	VUNPCKHPD  s1, s0, t1        \
	VUNPCKLPD  s3, s2, t2        \
	VUNPCKHPD  s3, s2, t3        \
	VPERM2F128 $0x20, t2, t0, s0 \
	VPERM2F128 $0x20, t3, t1, s1 \
	VPERM2F128 $0x31, t2, t0, s2 \
	VPERM2F128 $0x31, t3, t1, s3

// func avxPackRows(dst, src *float64, ld, kcb int)
//
// Packs kcb rows of 8 contiguous float64, ld elements apart in src, into
// an 8-wide panel: dst[p*8+j] = src[p*ld+j]. kcb > 0.
TEXT ·avxPackRows(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), DX
	MOVQ kcb+24(FP), CX
	SHLQ $3, DX

prows64:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     prows64

	VZEROUPPER
	RET

// func avxPackCols(dst, src *float64, ld, kc4 int)
//
// Packs a transposed operand's 8-wide panel: column j of the panel is the
// contiguous run src[j*ld : j*ld+kc4], so dst[p*8+j] = src[j*ld+p]. Four
// columns at a time, four k steps at a time go through one in-register
// 4×4 transpose. kc4 is a positive multiple of 4.
TEXT ·avxPackCols(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), DX
	MOVQ kc4+24(FP), CX
	SHLQ $3, DX
	SHRQ $2, CX
	MOVQ $2, BX                  // two groups of four columns

pcols64group:
	MOVQ SI, R8
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DI, R12
	MOVQ CX, AX

pcols64:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 64(R12)
	VMOVUPD Y2, 128(R12)
	VMOVUPD Y3, 192(R12)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $256, R12
	DECQ    AX
	JNZ     pcols64

	LEAQ (SI)(DX*4), SI
	ADDQ $32, DI
	DECQ BX
	JNZ  pcols64group

	VZEROUPPER
	RET

// func avxPackRows32(dst *float32, src *float64, ld, kcb int)
//
// avxPackRows for the f32 tier's 16-wide panel, narrowing as it copies:
// dst[p*16+j] = float32(src[p*ld+j]). kcb > 0.
TEXT ·avxPackRows32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), DX
	MOVQ kcb+24(FP), CX
	SHLQ $3, DX

prows32:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VCVTPD2PSY 64(SI), X2
	VCVTPD2PSY 96(SI), X3
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	VMOVUPS    X2, 32(DI)
	VMOVUPS    X3, 48(DI)
	ADDQ       DX, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        prows32

	VZEROUPPER
	RET

// func avxPackCols32(dst *float32, src *float64, ld, kc4 int)
//
// avxPackCols for the f32 tier's 16-wide panel, narrowing each transposed
// row of four: dst[p*16+j] = float32(src[j*ld+p]). kc4 is a positive
// multiple of 4.
TEXT ·avxPackCols32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), DX
	MOVQ kc4+24(FP), CX
	SHLQ $3, DX
	SHRQ $2, CX
	MOVQ $4, BX                  // four groups of four columns

pcols32group:
	MOVQ SI, R8
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DI, R12
	MOVQ CX, AX

pcols32:
	VMOVUPD    (R8), Y0
	VMOVUPD    (R9), Y1
	VMOVUPD    (R10), Y2
	VMOVUPD    (R11), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VMOVUPS    X0, (R12)
	VMOVUPS    X1, 64(R12)
	VMOVUPS    X2, 128(R12)
	VMOVUPS    X3, 192(R12)
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $256, R12
	DECQ       AX
	JNZ        pcols32

	LEAQ (SI)(DX*4), SI
	ADDQ $16, DI
	DECQ BX
	JNZ  pcols32group

	VZEROUPPER
	RET

// func avxTransNarrow(dst *float32, src *float64, lds, ldd, k4 int)
//
// Transposes and narrows a strip four source columns wide: for r in [0, 4)
// and p in [0, k4), dst[r*ldd+p] = float32(src[p*lds+r]). k4 is a positive
// multiple of 4.
TEXT ·avxTransNarrow(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lds+16(FP), DX
	MOVQ ldd+24(FP), BX
	MOVQ k4+32(FP), CX
	SHLQ $3, DX
	SHLQ $2, BX
	SHRQ $2, CX

	MOVQ SI, R8                  // source rows p..p+3
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	SHLQ $2, DX                  // four source rows

	MOVQ DI, R12                 // destination rows 0..3
	LEAQ (DI)(BX*1), R13
	LEAQ (DI)(BX*2), AX
	LEAQ (R13)(BX*2), BX

tnarrow:
	VMOVUPD    (R8), Y0
	VMOVUPD    (R9), Y1
	VMOVUPD    (R10), Y2
	VMOVUPD    (R11), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VMOVUPS    X0, (R12)
	VMOVUPS    X1, (R13)
	VMOVUPS    X2, (AX)
	VMOVUPS    X3, (BX)
	ADDQ       DX, R8
	ADDQ       DX, R9
	ADDQ       DX, R10
	ADDQ       DX, R11
	ADDQ       $16, R12
	ADDQ       $16, R13
	ADDQ       $16, AX
	ADDQ       $16, BX
	DECQ       CX
	JNZ        tnarrow

	VZEROUPPER
	RET

// func avxStoreTile(dst, c, bias *float64, ld, rows, mode int)
//
// Lands rows × 8 of a 4×8 float64 tile (row stride 8) in dst (row stride
// ld), by mode: storeSet d = c, storeAdd d += c, storeRowBias d = c +
// bias[r], storeColBias d = c + bias[x]. rows > 0.
TEXT ·avxStoreTile(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ bias+16(FP), BX
	MOVQ ld+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ mode+40(FP), AX
	SHLQ $3, DX

	CMPQ AX, $1
	JEQ  st64add
	CMPQ AX, $2
	JEQ  st64row
	CMPQ AX, $3
	JEQ  st64col

st64set:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     st64set
	JMP     st64done

st64add:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     st64add
	JMP     st64done

st64row:
	VBROADCASTSD (BX), Y2
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VADDPD       Y2, Y0, Y0
	VADDPD       Y2, Y1, Y1
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         $8, BX
	ADDQ         $64, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          st64row
	JMP          st64done

st64col:
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3

st64colrow:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     st64colrow

st64done:
	VZEROUPPER
	RET

// WIDEN16 widens one 16-lane float32 tile row at SI into Y0..Y3.
#define WIDEN16 \
	VCVTPS2PD (SI), Y0   \
	VCVTPS2PD 16(SI), Y1 \
	VCVTPS2PD 32(SI), Y2 \
	VCVTPS2PD 48(SI), Y3

// STORE16 writes Y0..Y3 to the 16 float64 at DI and steps to the next
// tile row and destination row.
#define STORE16 \
	VMOVUPD Y0, (DI)   \
	VMOVUPD Y1, 32(DI) \
	VMOVUPD Y2, 64(DI) \
	VMOVUPD Y3, 96(DI) \
	ADDQ    $64, SI    \
	ADDQ    DX, DI

// func avxStoreTile32(dst *float64, c *float32, bias *float64, ld, rows, mode int)
//
// avxStoreTile for the f32 tier's 6×16 tile (row stride 16), widening each
// partial sum to float64 before the mode's add. rows > 0.
TEXT ·avxStoreTile32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ bias+16(FP), BX
	MOVQ ld+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ mode+40(FP), AX
	SHLQ $3, DX

	CMPQ AX, $1
	JEQ  st32add
	CMPQ AX, $2
	JEQ  st32row
	CMPQ AX, $3
	JEQ  st32col

st32set:
	WIDEN16
	STORE16
	DECQ CX
	JNZ  st32set
	JMP  st32done

st32add:
	WIDEN16
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
	STORE16
	DECQ   CX
	JNZ    st32add
	JMP    st32done

st32row:
	VBROADCASTSD (BX), Y4
	WIDEN16
	VADDPD       Y4, Y0, Y0
	VADDPD       Y4, Y1, Y1
	VADDPD       Y4, Y2, Y2
	VADDPD       Y4, Y3, Y3
	STORE16
	ADDQ         $8, BX
	DECQ         CX
	JNZ          st32row
	JMP          st32done

st32col:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	VMOVUPD 96(BX), Y7

st32colrow:
	WIDEN16
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	STORE16
	DECQ   CX
	JNZ    st32colrow

st32done:
	VZEROUPPER
	RET

// func avxMomentum(w, v, grad *float64, mu, alpha float64, n int)
//
// One momentum-SGD step over n elements: v = v·mu + grad, then w +=
// alpha·v with one fused multiply-add, in the rounding order of
// ScaleInPlace, AxpyInPlace(v, 1, grad) and AxpyInPlace(w, alpha, v). The
// operands keep fmaAxpy's roles (grad first in the add, as in its fused
// 1·grad + v; v first in the fused update), so even a NaN's payload
// propagates as in the three passes. The remainder runs the same
// operations on scalar lanes. n ≥ 0.
TEXT ·avxMomentum(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	VBROADCASTSD mu+24(FP), Y0
	VBROADCASTSD alpha+32(FP), Y1
	MOVQ         n+40(FP), CX

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   momtail

mom4:
	VMOVUPD     (SI), Y2
	VMULPD      Y0, Y2, Y2       // v·mu
	VMOVUPD     (DX), Y3
	VADDPD      Y2, Y3, Y2       // grad + v·mu
	VMOVUPD     Y2, (SI)
	VFMADD213PD (DI), Y1, Y2     // alpha·v + w
	VMOVUPD     Y2, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, DI
	DECQ        BX
	JNZ         mom4

momtail:
	ANDQ $3, CX
	JZ   momdone

mom1:
	VMOVSD      (SI), X2
	VMULSD      X0, X2, X2
	VMOVSD      (DX), X3
	VADDSD      X2, X3, X2
	VMOVSD      X2, (SI)
	VFMADD213SD (DI), X1, X2
	VMOVSD      X2, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DX
	ADDQ        $8, DI
	DECQ        CX
	JNZ         mom1

momdone:
	VZEROUPPER
	RET
