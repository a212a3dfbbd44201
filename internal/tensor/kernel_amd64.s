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
