//go:build amd64

#include "textflag.h"

// func fmaSweep4x8(d, a0, a1, a2, a3, bp, bias *float64, o1, o2, o3, kc, nc, mode int)
//
// One 4-row tile row of a product's (kc, nc) block: for every 8-wide
// packed panel of bp (kc rows of 8, panel after panel), the 4×8 tile
// c[r][j] = Σ_p a{r}[p] * panel[p*8+j] over p in [0, kc), landed straight
// in d by mode. Row r of the tile lives at d + o{r}·8 (o0 = 0); a missing
// row of a remainder tile aliases the last valid one, both in its A row and
// in its offset, so it computes and stores that row's bits again. Modes:
// 0 d = c, 1 d = d + c, 2 d = c + bias[r], 3 d = c + bias[j] (bias advances
// a panel at a time), 4 chain: the accumulators start from d and d = c.
// A ragged last panel (nc mod 8 lanes) loads and stores through lane masks.
//
// The accumulators (Y4..Y11) carry one fused multiply-add chain per
// element in p order. Every instruction keeps fixed operand roles (A, B
// and the accumulator in the FMA; d, then the tile, in the add; the tile,
// then the bias, in a bias add), which fixes the NaN payload x86 returns
// where NaNs meet. Every load of dst lands before any store, so aliased
// rows read what valid ones read. kc ≥ 1, nc ≥ 1.

// KSTEP is one k step at byte offset boff into the packed panel and aoff
// into the A rows: 8 packed B values (two loads), one broadcast A value
// per row, 8 FMAs = 64 double FLOPs.
#define KSTEP(boff, aoff) \
	VMOVUPD      boff(R12), Y0      \
	VMOVUPD      (boff+32)(R12), Y1 \
	VBROADCASTSD aoff(R8), Y2       \
	VBROADCASTSD aoff(R9), Y3       \
	VFMADD231PD  Y0, Y2, Y4         \
	VFMADD231PD  Y1, Y2, Y5         \
	VFMADD231PD  Y0, Y3, Y6         \
	VFMADD231PD  Y1, Y3, Y7         \
	VBROADCASTSD aoff(R10), Y2      \
	VBROADCASTSD aoff(R11), Y3      \
	VFMADD231PD  Y0, Y2, Y8         \
	VFMADD231PD  Y1, Y2, Y9         \
	VFMADD231PD  Y0, Y3, Y10        \
	VFMADD231PD  Y1, Y3, Y11

// KLOOP runs the k-block two steps per iteration, then an odd last step,
// leaving R12 at the next panel. The steps run in p order, so the chains
// are those of a one-step loop.
#define KLOOP(pair, last, done) \
	SHRQ $1, CX         \
	JZ   last           \
pair:                   \
	KSTEP(0, 0)         \
	KSTEP(64, 8)        \
	ADDQ $16, R8        \
	ADDQ $16, R9        \
	ADDQ $16, R10       \
	ADDQ $16, R11       \
	ADDQ $128, R12      \
	DECQ CX             \
	JNZ  pair           \
last:                   \
	MOVQ kc+80(FP), CX  \
	ANDQ $1, CX         \
	JZ   done           \
	KSTEP(0, 0)         \
	ADDQ $64, R12       \
done:

// SWEEPSTART points R8..R11 at the A rows and CX at kc for a new panel.
#define SWEEPSTART \
	MOVQ a0+8(FP), R8   \
	MOVQ a1+16(FP), R9  \
	MOVQ a2+24(FP), R10 \
	MOVQ a3+32(FP), R11 \
	MOVQ kc+80(FP), CX

#define ZERO8 \
	VXORPD Y4, Y4, Y4    \
	VXORPD Y5, Y5, Y5    \
	VXORPD Y6, Y6, Y6    \
	VXORPD Y7, Y7, Y7    \
	VXORPD Y8, Y8, Y8    \
	VXORPD Y9, Y9, Y9    \
	VXORPD Y10, Y10, Y10 \
	VXORPD Y11, Y11, Y11

// The tile's eight halves in d: row 0 at DI, rows 1..3 DX, R13 and AX
// elements further on.
#define LOADFULL \
	VMOVUPD (DI), Y4           \
	VMOVUPD 32(DI), Y5         \
	VMOVUPD (DI)(DX*8), Y6     \
	VMOVUPD 32(DI)(DX*8), Y7   \
	VMOVUPD (DI)(R13*8), Y8    \
	VMOVUPD 32(DI)(R13*8), Y9  \
	VMOVUPD (DI)(AX*8), Y10    \
	VMOVUPD 32(DI)(AX*8), Y11

#define STOREFULL \
	VMOVUPD Y4, (DI)           \
	VMOVUPD Y5, 32(DI)         \
	VMOVUPD Y6, (DI)(DX*8)     \
	VMOVUPD Y7, 32(DI)(DX*8)   \
	VMOVUPD Y8, (DI)(R13*8)    \
	VMOVUPD Y9, 32(DI)(R13*8)  \
	VMOVUPD Y10, (DI)(AX*8)    \
	VMOVUPD Y11, 32(DI)(AX*8)

// The same under the lane masks Y12 (lanes 0..3) and Y13 (lanes 4..7):
// masked-off lanes are neither read nor written.
#define LOADMASK \
	VMASKMOVPD (DI), Y12, Y4          \
	VMASKMOVPD 32(DI), Y13, Y5        \
	VMASKMOVPD (DI)(DX*8), Y12, Y6    \
	VMASKMOVPD 32(DI)(DX*8), Y13, Y7  \
	VMASKMOVPD (DI)(R13*8), Y12, Y8   \
	VMASKMOVPD 32(DI)(R13*8), Y13, Y9 \
	VMASKMOVPD (DI)(AX*8), Y12, Y10   \
	VMASKMOVPD 32(DI)(AX*8), Y13, Y11

#define STOREMASK \
	VMASKMOVPD Y4, Y12, (DI)          \
	VMASKMOVPD Y5, Y13, 32(DI)        \
	VMASKMOVPD Y6, Y12, (DI)(DX*8)    \
	VMASKMOVPD Y7, Y13, 32(DI)(DX*8)  \
	VMASKMOVPD Y8, Y12, (DI)(R13*8)   \
	VMASKMOVPD Y9, Y13, 32(DI)(R13*8) \
	VMASKMOVPD Y10, Y12, (DI)(AX*8)   \
	VMASKMOVPD Y11, Y13, 32(DI)(AX*8)

// ADDFULL and ADDMASK set acc = d + acc for one half-row at mem, d loaded
// into Y14 first: d is the add's first source, as in the tile store's
// d += c.
#define ADDFULL(mem, acc) \
	VMOVUPD mem, Y14     \
	VADDPD  acc, Y14, acc

#define ADDMASK(mem, mask, acc) \
	VMASKMOVPD mem, mask, Y14 \
	VADDPD     acc, Y14, acc

// ROWBIAS adds each row's broadcast bias (four values at BX) with the
// accumulator as the first source, as in the tile store's c + bias[r].
#define ROWBIAS \
	VBROADCASTSD (BX), Y14     \
	VADDPD       Y14, Y4, Y4   \
	VADDPD       Y14, Y5, Y5   \
	VBROADCASTSD 8(BX), Y14    \
	VADDPD       Y14, Y6, Y6   \
	VADDPD       Y14, Y7, Y7   \
	VBROADCASTSD 16(BX), Y14   \
	VADDPD       Y14, Y8, Y8   \
	VADDPD       Y14, Y9, Y9   \
	VBROADCASTSD 24(BX), Y14   \
	VADDPD       Y14, Y10, Y10 \
	VADDPD       Y14, Y11, Y11

// COLBIAS adds the panel's column bias, held in Y14 and Y15, likewise.
#define COLBIAS \
	VADDPD Y14, Y4, Y4   \
	VADDPD Y15, Y5, Y5   \
	VADDPD Y14, Y6, Y6   \
	VADDPD Y15, Y7, Y7   \
	VADDPD Y14, Y8, Y8   \
	VADDPD Y15, Y9, Y9   \
	VADDPD Y14, Y10, Y10 \
	VADDPD Y15, Y11, Y11

// sweepmask<>+8·(8−w) is the lane mask of a w-lane panel: w all-ones
// quadwords, then zeros.
DATA sweepmask<>+0(SB)/8, $-1
DATA sweepmask<>+8(SB)/8, $-1
DATA sweepmask<>+16(SB)/8, $-1
DATA sweepmask<>+24(SB)/8, $-1
DATA sweepmask<>+32(SB)/8, $-1
DATA sweepmask<>+40(SB)/8, $-1
DATA sweepmask<>+48(SB)/8, $-1
DATA sweepmask<>+56(SB)/8, $-1
DATA sweepmask<>+64(SB)/8, $0
DATA sweepmask<>+72(SB)/8, $0
DATA sweepmask<>+80(SB)/8, $0
DATA sweepmask<>+88(SB)/8, $0
DATA sweepmask<>+96(SB)/8, $0
DATA sweepmask<>+104(SB)/8, $0
DATA sweepmask<>+112(SB)/8, $0
DATA sweepmask<>+120(SB)/8, $0
GLOBL sweepmask<>(SB), RODATA|NOPTR, $128

TEXT ·fmaSweep4x8(SB), NOSPLIT, $0-104
	MOVQ d+0(FP), DI
	MOVQ bp+40(FP), R12
	MOVQ bias+48(FP), BX
	MOVQ o1+56(FP), DX
	MOVQ o2+64(FP), R13
	MOVQ o3+72(FP), AX
	MOVQ nc+88(FP), SI
	SHRQ $3, SI                  // whole panels
	JZ   swragged

swpanel:
	SWEEPSTART
	CMPQ mode+96(FP), $4
	JEQ  swchain
	ZERO8
	JMP  swk

swchain:
	LOADFULL

swk:
	KLOOP(swkpair, swklast, swkdone)

	MOVQ mode+96(FP), CX
	CMPQ CX, $1
	JEQ  swadd
	CMPQ CX, $2
	JEQ  swrow
	CMPQ CX, $3
	JEQ  swcol
	STOREFULL                    // set and chain
	JMP  swnext

swadd:
	ADDFULL((DI), Y4)
	ADDFULL(32(DI), Y5)
	ADDFULL((DI)(DX*8), Y6)
	ADDFULL(32(DI)(DX*8), Y7)
	ADDFULL((DI)(R13*8), Y8)
	ADDFULL(32(DI)(R13*8), Y9)
	ADDFULL((DI)(AX*8), Y10)
	ADDFULL(32(DI)(AX*8), Y11)
	STOREFULL
	JMP swnext

swrow:
	ROWBIAS
	STOREFULL
	JMP swnext

swcol:
	VMOVUPD (BX), Y14
	VMOVUPD 32(BX), Y15
	COLBIAS
	STOREFULL
	ADDQ    $64, BX

swnext:
	ADDQ $64, DI
	DECQ SI
	JNZ  swpanel

swragged:
	MOVQ nc+88(FP), CX
	ANDQ $7, CX
	JZ   swdone
	NEGQ CX
	LEAQ sweepmask<>+64(SB), SI
	VMOVDQU (SI)(CX*8), Y12
	VMOVDQU 32(SI)(CX*8), Y13

	SWEEPSTART
	CMPQ mode+96(FP), $4
	JEQ  swmchain
	ZERO8
	JMP  swmk

swmchain:
	LOADMASK

swmk:
	KLOOP(swmkpair, swmklast, swmkdone)

	MOVQ mode+96(FP), CX
	CMPQ CX, $1
	JEQ  swmadd
	CMPQ CX, $2
	JEQ  swmrow
	CMPQ CX, $3
	JEQ  swmcol
	STOREMASK                    // set and chain
	JMP  swdone

swmadd:
	ADDMASK((DI), Y12, Y4)
	ADDMASK(32(DI), Y13, Y5)
	ADDMASK((DI)(DX*8), Y12, Y6)
	ADDMASK(32(DI)(DX*8), Y13, Y7)
	ADDMASK((DI)(R13*8), Y12, Y8)
	ADDMASK(32(DI)(R13*8), Y13, Y9)
	ADDMASK((DI)(AX*8), Y12, Y10)
	ADDMASK(32(DI)(AX*8), Y13, Y11)
	STOREMASK
	JMP swdone

swmrow:
	ROWBIAS
	STOREMASK
	JMP swdone

swmcol:
	VMASKMOVPD (BX), Y12, Y14
	VMASKMOVPD 32(BX), Y13, Y15
	COLBIAS
	STOREMASK

swdone:
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

// func fmaAddRows(dst, src *float64, ldd, lds, run, rows int)
//
// Adds rows runs of run values, lds apart in src, into dst, ldd apart:
// dst[r*ldd+i] = 1·src[r*lds+i] + dst[r*ldd+i], one fused multiply-add
// per element with fmaAxpy's operand roles, so every lane rounds (and
// propagates a NaN) as fmaAxpy(dst, src, 1, run) does row by row. Each run
// takes 8 lanes at a time, then 4, then scalars. src is only read. rows > 0.
TEXT ·fmaAddRows(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldd+16(FP), R8
	MOVQ lds+24(FP), R9
	MOVQ run+32(FP), R10
	MOVQ rows+40(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	MOVQ $0x3ff0000000000000, AX // 1.0
	MOVQ AX, X0
	VBROADCASTSD X0, Y0

addrow:
	MOVQ DI, R12
	MOVQ SI, R13
	MOVQ R10, CX
	SHRQ $3, CX
	JZ   addquad

add8:
	VMOVUPD     (R13), Y1
	VMOVUPD     32(R13), Y2
	VFMADD213PD (R12), Y0, Y1
	VFMADD213PD 32(R12), Y0, Y2
	VMOVUPD     Y1, (R12)
	VMOVUPD     Y2, 32(R12)
	ADDQ        $64, R13
	ADDQ        $64, R12
	DECQ        CX
	JNZ         add8

addquad:
	MOVQ R10, CX
	ANDQ $7, CX
	JZ   addnext
	CMPQ CX, $4
	JLT  add1
	VMOVUPD     (R13), Y1
	VFMADD213PD (R12), Y0, Y1
	VMOVUPD     Y1, (R12)
	ADDQ        $32, R13
	ADDQ        $32, R12
	SUBQ        $4, CX
	JZ          addnext

add1:
	VMOVSD      (R13), X1
	VFMADD213SD (R12), X0, X1
	VMOVSD      X1, (R12)
	ADDQ        $8, R13
	ADDQ        $8, R12
	DECQ        CX
	JNZ         add1

addnext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R11
	JNZ  addrow

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

// The f32 tier's tile-row sweeps. Both land one 6-row tile row of a
// product's (kc, nc) block in the float64 dst: for every 16-wide packed
// panel of bp (kc rows of 16 float32, panel after panel), the tile
// c[r][j] = Σ_p a_r[p] * panel[p*16+j] over p in [0, kc), accumulated in
// float32 from zero, then widened (VCVTPS2PD, exact) and stored by mode:
// 0 d = c, 1 d = c + d, 2 d = c + bias[r], 3 d = c + bias[j]. Row r of
// the tile is at d + r·ld; only the first rows rows are stored, so a
// remainder tile's missing A rows (aliased by the caller to its last valid
// one) cost multiply-adds and nothing else.
//
// Each element carries one fused multiply-add chain in p order, with A,
// then B, then the accumulator as the FMA's operands, and the widened tile
// is the first source of the store's add, d or the bias the second: the
// operand roles, and so the NaN payloads, of the 6×16 tile and widening
// store they replace. The two sweeps therefore write the same bits.
// a points at the six A row slices ([6][]float32: pointers 24 bytes
// apart). kc ≥ 1, nc ≥ 1, 1 ≤ rows ≤ 6.

// FMASTEP32 is one k step of the AVX2 sweep at byte offset off into the
// packed panel and aoff into the six A rows: 16 packed B values (two YMM
// loads), one broadcast A value per row, 12 FMAs = 192 single FLOPs.
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
	VBROADCASTSS aoff(DX), Y2       \
	VBROADCASTSS aoff(SI), Y3       \
	VFMADD231PS  Y0, Y2, Y12        \
	VFMADD231PS  Y1, Y2, Y13        \
	VFMADD231PS  Y0, Y3, Y14        \
	VFMADD231PS  Y1, Y3, Y15

// AROWS points R8..R11, DX and SI at the six A rows of the slice array
// at AX.
#define AROWS \
	MOVQ 0(AX), R8   \
	MOVQ 24(AX), R9  \
	MOVQ 48(AX), R10 \
	MOVQ 72(AX), R11 \
	MOVQ 96(AX), DX  \
	MOVQ 120(AX), SI

// WIDEN6 widens the AVX2 sweep's row in Y4 (lanes 0..7) and Y5 (lanes
// 8..15) into the float64 lanes Y0..Y3.
#define WIDEN6 \
	VEXTRACTF128 $1, Y4, X1 \
	VCVTPS2PD    X4, Y0     \
	VCVTPS2PD    X1, Y1     \
	VEXTRACTF128 $1, Y5, X3 \
	VCVTPS2PD    X5, Y2     \
	VCVTPS2PD    X3, Y3

// NEXTROW6 moves the AVX2 sweep's next row into Y4, Y5.
#define NEXTROW6 \
	VMOVAPS Y6, Y4   \
	VMOVAPS Y7, Y5   \
	VMOVAPS Y8, Y6   \
	VMOVAPS Y9, Y7   \
	VMOVAPS Y10, Y8  \
	VMOVAPS Y11, Y9  \
	VMOVAPS Y12, Y10 \
	VMOVAPS Y13, Y11 \
	VMOVAPS Y14, Y12 \
	VMOVAPS Y15, Y13

// MASKADD6 sets Y{acc} = Y{acc} + mem for the lanes of quarter off/32 of
// a ragged panel, mem read under the quarter's mask (SI + off).
#define MASKADD6(mem, off, acc) \
	VMOVDQU    off(SI), Y4   \
	VMASKMOVPD mem, Y4, Y5   \
	VADDPD     Y5, acc, acc

// sweepmask32<>+8·(16−w) is the lane mask of a w-lane panel's four
// quarters: w all-ones quadwords, then zeros.
DATA sweepmask32<>+0(SB)/8, $-1
DATA sweepmask32<>+8(SB)/8, $-1
DATA sweepmask32<>+16(SB)/8, $-1
DATA sweepmask32<>+24(SB)/8, $-1
DATA sweepmask32<>+32(SB)/8, $-1
DATA sweepmask32<>+40(SB)/8, $-1
DATA sweepmask32<>+48(SB)/8, $-1
DATA sweepmask32<>+56(SB)/8, $-1
DATA sweepmask32<>+64(SB)/8, $-1
DATA sweepmask32<>+72(SB)/8, $-1
DATA sweepmask32<>+80(SB)/8, $-1
DATA sweepmask32<>+88(SB)/8, $-1
DATA sweepmask32<>+96(SB)/8, $-1
DATA sweepmask32<>+104(SB)/8, $-1
DATA sweepmask32<>+112(SB)/8, $-1
DATA sweepmask32<>+120(SB)/8, $-1
DATA sweepmask32<>+128(SB)/8, $0
DATA sweepmask32<>+136(SB)/8, $0
DATA sweepmask32<>+144(SB)/8, $0
DATA sweepmask32<>+152(SB)/8, $0
DATA sweepmask32<>+160(SB)/8, $0
DATA sweepmask32<>+168(SB)/8, $0
DATA sweepmask32<>+176(SB)/8, $0
DATA sweepmask32<>+184(SB)/8, $0
DATA sweepmask32<>+192(SB)/8, $0
DATA sweepmask32<>+200(SB)/8, $0
DATA sweepmask32<>+208(SB)/8, $0
DATA sweepmask32<>+216(SB)/8, $0
DATA sweepmask32<>+224(SB)/8, $0
DATA sweepmask32<>+232(SB)/8, $0
DATA sweepmask32<>+240(SB)/8, $0
DATA sweepmask32<>+248(SB)/8, $0
GLOBL sweepmask32<>(SB), RODATA|NOPTR, $256

// func fmaSweep6x16(d *float64, a *[mr32][]float32, bp *float32, bias *float64, ld, kc, nc, rows, mode int)
//
// The AVX2 sweep: one 6×16 tile per panel in the twelve accumulators
// Y4..Y15, two k steps per loop iteration. Rows land one at a time from
// Y4, Y5 (the rest move down a row pair after each); a ragged last panel
// (nc mod 16 lanes) loads and stores through VMASKMOVPD lane masks.
// DI is the panel's byte offset into a dst row and into a column bias.
TEXT ·fmaSweep6x16(SB), NOSPLIT, $0-72
	MOVQ bp+16(FP), R12
	XORQ DI, DI

f6panel:
	MOVQ   a+8(FP), AX
	AROWS
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
	MOVQ   kc+40(FP), CX
	SHRQ   $1, CX
	JZ     f6klast

f6kpair:
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
	JNZ  f6kpair

f6klast:
	MOVQ kc+40(FP), CX
	ANDQ $1, CX
	JZ   f6store
	FMASTEP32(0, 0)
	ADDQ $64, R12                // R12 is at the next panel

f6store:
	MOVQ d+0(FP), R8
	MOVQ ld+32(FP), R9
	SHLQ $3, R9
	MOVQ rows+56(FP), R10
	MOVQ bias+24(FP), R11
	MOVQ mode+64(FP), BX
	MOVQ DI, CX
	SHRQ $3, CX
	MOVQ nc+48(FP), AX
	SUBQ CX, AX                  // lanes left in the block
	CMPQ AX, $16
	JLT  f6ragged

f6row:
	WIDEN6
	CMPQ BX, $1
	JEQ  f6add
	CMPQ BX, $2
	JEQ  f6rowbias
	CMPQ BX, $3
	JEQ  f6colbias
	JMP  f6put

f6add:
	VADDPD (R8)(DI*1), Y0, Y0
	VADDPD 32(R8)(DI*1), Y1, Y1
	VADDPD 64(R8)(DI*1), Y2, Y2
	VADDPD 96(R8)(DI*1), Y3, Y3
	JMP    f6put

f6rowbias:
	VBROADCASTSD (R11), Y4
	VADDPD       Y4, Y0, Y0
	VADDPD       Y4, Y1, Y1
	VADDPD       Y4, Y2, Y2
	VADDPD       Y4, Y3, Y3
	ADDQ         $8, R11
	JMP          f6put

f6colbias:
	VADDPD (R11)(DI*1), Y0, Y0
	VADDPD 32(R11)(DI*1), Y1, Y1
	VADDPD 64(R11)(DI*1), Y2, Y2
	VADDPD 96(R11)(DI*1), Y3, Y3

f6put:
	VMOVUPD Y0, (R8)(DI*1)
	VMOVUPD Y1, 32(R8)(DI*1)
	VMOVUPD Y2, 64(R8)(DI*1)
	VMOVUPD Y3, 96(R8)(DI*1)
	NEXTROW6
	ADDQ    R9, R8
	DECQ    R10
	JNZ     f6row

	ADDQ $128, DI
	MOVQ DI, CX
	SHRQ $3, CX
	CMPQ CX, nc+48(FP)
	JLT  f6panel
	JMP  f6done

f6ragged:
	LEAQ sweepmask32<>+128(SB), SI
	SHLQ $3, AX
	SUBQ AX, SI                  // SI = the mask of an AX/8-lane panel

f6mrow:
	WIDEN6
	CMPQ BX, $1
	JEQ  f6madd
	CMPQ BX, $2
	JEQ  f6mrowbias
	CMPQ BX, $3
	JEQ  f6mcolbias
	JMP  f6mput

f6madd:
	MASKADD6((R8)(DI*1), 0, Y0)
	MASKADD6(32(R8)(DI*1), 32, Y1)
	MASKADD6(64(R8)(DI*1), 64, Y2)
	MASKADD6(96(R8)(DI*1), 96, Y3)
	JMP f6mput

f6mrowbias:
	VBROADCASTSD (R11), Y4
	VADDPD       Y4, Y0, Y0
	VADDPD       Y4, Y1, Y1
	VADDPD       Y4, Y2, Y2
	VADDPD       Y4, Y3, Y3
	ADDQ         $8, R11
	JMP          f6mput

f6mcolbias:
	MASKADD6((R11)(DI*1), 0, Y0)
	MASKADD6(32(R11)(DI*1), 32, Y1)
	MASKADD6(64(R11)(DI*1), 64, Y2)
	MASKADD6(96(R11)(DI*1), 96, Y3)

f6mput:
	VMOVDQU    (SI), Y4
	VMASKMOVPD Y0, Y4, (R8)(DI*1)
	VMOVDQU    32(SI), Y4
	VMASKMOVPD Y1, Y4, 32(R8)(DI*1)
	VMOVDQU    64(SI), Y4
	VMASKMOVPD Y2, Y4, 64(R8)(DI*1)
	VMOVDQU    96(SI), Y4
	VMASKMOVPD Y3, Y4, 96(R8)(DI*1)
	NEXTROW6
	ADDQ       R9, R8
	DECQ       R10
	JNZ        f6mrow

f6done:
	VZEROUPPER
	RET

// Z8STEP is one k step of the AVX-512 sweep at byte offset off into both
// packed panels of a pair (the second BX bytes past the first) and aoff
// into the eight A rows (R8..R11, DX, SI, AX, R13): 32 packed B values
// (two ZMM loads), one broadcast A value per row, 16 FMAs = 512 single
// FLOPs. Row r's accumulators are Z(4+2r) (first panel) and Z(5+2r)
// (second).
#define Z8STEP(off, aoff) \
	VMOVUPS      off(R12), Z0        \
	VMOVUPS      off(R12)(BX*1), Z1  \
	VBROADCASTSS aoff(R8), Z2        \
	VBROADCASTSS aoff(R9), Z3        \
	VFMADD231PS  Z0, Z2, Z4          \
	VFMADD231PS  Z1, Z2, Z5          \
	VFMADD231PS  Z0, Z3, Z6          \
	VFMADD231PS  Z1, Z3, Z7          \
	VBROADCASTSS aoff(R10), Z2       \
	VBROADCASTSS aoff(R11), Z3       \
	VFMADD231PS  Z0, Z2, Z8          \
	VFMADD231PS  Z1, Z2, Z9          \
	VFMADD231PS  Z0, Z3, Z10         \
	VFMADD231PS  Z1, Z3, Z11         \
	VBROADCASTSS aoff(DX), Z2        \
	VBROADCASTSS aoff(SI), Z3        \
	VFMADD231PS  Z0, Z2, Z12         \
	VFMADD231PS  Z1, Z2, Z13         \
	VFMADD231PS  Z0, Z3, Z14         \
	VFMADD231PS  Z1, Z3, Z15         \
	VBROADCASTSS aoff(AX), Z2        \
	VBROADCASTSS aoff(R13), Z3       \
	VFMADD231PS  Z0, Z2, Z16         \
	VFMADD231PS  Z1, Z2, Z17         \
	VFMADD231PS  Z0, Z3, Z18         \
	VFMADD231PS  Z1, Z3, Z19

// WIDEN8 widens the row in Z4 and Z5 into the float64 lanes Z20..Z23.
#define WIDEN8 \
	VCVTPS2PD     Y4, Z20     \
	VEXTRACTF32X8 $1, Z4, Y21 \
	VCVTPS2PD     Y21, Z21    \
	VCVTPS2PD     Y5, Z22     \
	VEXTRACTF32X8 $1, Z5, Y23 \
	VCVTPS2PD     Y23, Z23

// NEXTROW8 moves the AVX-512 sweep's next row into Z4, Z5.
#define NEXTROW8 \
	VMOVAPS Z6, Z4   \
	VMOVAPS Z7, Z5   \
	VMOVAPS Z8, Z6   \
	VMOVAPS Z9, Z7   \
	VMOVAPS Z10, Z8  \
	VMOVAPS Z11, Z9  \
	VMOVAPS Z12, Z10 \
	VMOVAPS Z13, Z11 \
	VMOVAPS Z14, Z12 \
	VMOVAPS Z15, Z13 \
	VMOVAPS Z16, Z14 \
	VMOVAPS Z17, Z15 \
	VMOVAPS Z18, Z16 \
	VMOVAPS Z19, Z17

// func avx512Sweep8x32(d *float64, a *[mrA32][]float32, bp *float32, bias *float64, ld, kc, nc, rows, mode int)
//
// The AVX-512 sweep: the same 16-wide panels, two at a time, as an 8×32
// tile in the sixteen accumulators Z4..Z19, two k steps per loop
// iteration. A lone last panel runs as a pair whose second panel reads the
// first again (BX = 0) and stores nothing. Every dst and column-bias
// access goes through the opmasks K1..K4, one per eight columns of the
// pair, set from the lanes left in the block, so a ragged panel needs no
// separate path. DI is the pair's byte offset into a dst row and into a
// column bias. The pair's first panel lives in the frame (base), since
// the k loop holds every general register.
TEXT ·avx512Sweep8x32(SB), NOSPLIT, $8-72
	MOVQ bp+16(FP), AX
	MOVQ AX, base-8(SP)
	XORQ DI, DI

z8pair:
	MOVQ DI, CX
	SHRQ $3, CX
	MOVQ nc+48(FP), AX
	SUBQ CX, AX                  // lanes left in the block
	MOVQ kc+40(FP), BX
	SHLQ $6, BX                  // one panel's bytes
	CMPQ AX, $16
	JGT  z8mask
	XORQ BX, BX

z8mask:
	MOVL $-1, CX                 // the low min(AX, 32) bits, one per lane
	CMPQ AX, $32
	JGE  z8kmov
	MOVQ AX, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	MOVL AX, CX

z8kmov:
	KMOVW CX, K1
	SHRL  $8, CX
	KMOVW CX, K2
	SHRL  $8, CX
	KMOVW CX, K3
	SHRL  $8, CX
	KMOVW CX, K4

	MOVQ   a+8(FP), AX
	MOVQ   168(AX), R13
	AROWS
	MOVQ   144(AX), AX
	MOVQ   base-8(SP), R12
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	MOVQ   kc+40(FP), CX
	SHRQ   $1, CX
	JZ     z8klast

z8kpair:
	Z8STEP(0, 0)
	Z8STEP(64, 4)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, DX
	ADDQ $8, SI
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ $128, R12
	DECQ CX
	JNZ  z8kpair

z8klast:
	MOVQ kc+40(FP), CX
	ANDQ $1, CX
	JZ   z8store
	Z8STEP(0, 0)

z8store:
	MOVQ kc+40(FP), CX
	SHLQ $7, CX
	ADDQ CX, base-8(SP)          // the next pair's first panel
	MOVQ d+0(FP), R8
	MOVQ ld+32(FP), R9
	SHLQ $3, R9
	MOVQ rows+56(FP), R10
	MOVQ bias+24(FP), R11
	MOVQ mode+64(FP), AX
	CMPQ AX, $3
	JNE  z8row
	VMOVUPD (R11)(DI*1), K1, Z24
	VMOVUPD 64(R11)(DI*1), K2, Z25
	VMOVUPD 128(R11)(DI*1), K3, Z26
	VMOVUPD 192(R11)(DI*1), K4, Z27

z8row:
	WIDEN8
	CMPQ AX, $1
	JEQ  z8add
	CMPQ AX, $2
	JEQ  z8rowbias
	CMPQ AX, $3
	JEQ  z8colbias
	JMP  z8put

z8add:
	VADDPD (R8)(DI*1), Z20, K1, Z20
	VADDPD 64(R8)(DI*1), Z21, K2, Z21
	VADDPD 128(R8)(DI*1), Z22, K3, Z22
	VADDPD 192(R8)(DI*1), Z23, K4, Z23
	JMP    z8put

z8rowbias:
	VBROADCASTSD (R11), Z28
	VADDPD       Z28, Z20, Z20
	VADDPD       Z28, Z21, Z21
	VADDPD       Z28, Z22, Z22
	VADDPD       Z28, Z23, Z23
	ADDQ         $8, R11
	JMP          z8put

z8colbias:
	VADDPD Z24, Z20, Z20
	VADDPD Z25, Z21, Z21
	VADDPD Z26, Z22, Z22
	VADDPD Z27, Z23, Z23

z8put:
	VMOVUPD Z20, K1, (R8)(DI*1)
	VMOVUPD Z21, K2, 64(R8)(DI*1)
	VMOVUPD Z22, K3, 128(R8)(DI*1)
	VMOVUPD Z23, K4, 192(R8)(DI*1)
	NEXTROW8
	ADDQ    R9, R8
	DECQ    R10
	JNZ     z8row

	ADDQ $256, DI
	MOVQ DI, CX
	SHRQ $3, CX
	CMPQ CX, nc+48(FP)
	JLT  z8pair

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
