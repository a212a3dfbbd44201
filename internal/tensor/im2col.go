package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution. Images are stored
// NCHW (batch, channels, height, width) and kernels OIHW.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride, Pad   int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate returns an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive dims: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("tensor: conv pad must be non-negative, got %d", g.Pad)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry yields empty output: %+v", g)
	}
	return nil
}

// Im2Col lowers a batch of NCHW images x (shape [N, C, H, W]) into a matrix
// of shape [N*OutH*OutW, C*KH*KW], so that convolution becomes one matmul
// against the reshaped kernel.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	return Im2ColInto(NewLike(x, n*g.OutH()*g.OutW(), g.InC*g.KH*g.KW), x, g)
}

// Im2ColInto is Im2Col writing into a caller-supplied (typically pooled)
// destination of shape [N*OutH*OutW, C*KH*KW]. Every element of dst is
// overwritten, so an uninitialized pooled buffer is fine. Returns dst.
func Im2ColInto(cols, x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	checkDst("Im2ColInto", cols, n*oh*ow, rowLen)

	if vol := n * oh * ow * rowLen; rowWorkers(n, vol) < 2 {
		im2colRange(cols, x, g, 0, n)
	} else {
		parallelRows(n, vol, func(lo, hi int) { im2colRange(cols, x, g, lo, hi) })
	}
	return cols
}

// im2colRange lowers images [lo, hi) of the batch. Per (oy, ox, ky) the
// in-bounds kx run [klo, khi) is computed once and shared by every channel,
// so the inner loops carry no bounds checks; runs are short (KW elements),
// so they are copied with explicit loops rather than memmove calls.
func im2colRange(cols, x *Tensor, g ConvGeom, lo, hi int) {
	oh, ow := g.OutH(), g.OutW()
	khkw := g.KH * g.KW
	rowLen := g.InC * khkw
	chLen := g.InH * g.InW
	imgLen := g.InC * chLen
	for b := lo; b < hi; b++ {
		img := x.Data[b*imgLen : (b+1)*imgLen]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((b*oh+oy)*ow+ox)*rowLen : ((b*oh+oy)*ow+ox+1)*rowLen]
				ix0 := ox*g.Stride - g.Pad
				klo, khi := 0, g.KW
				if ix0 < 0 {
					klo = -ix0
				}
				if ix0+g.KW > g.InW {
					khi = g.InW - ix0
				}
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					base := ky * g.KW
					if iy < 0 || iy >= g.InH {
						for c := 0; c < g.InC; c++ {
							r := row[c*khkw+base : c*khkw+base+g.KW]
							for kx := range r {
								r[kx] = 0
							}
						}
						continue
					}
					rowOff := iy * g.InW
					for c := 0; c < g.InC; c++ {
						r := row[c*khkw+base : c*khkw+base+g.KW]
						src := img[c*chLen+rowOff:]
						for kx := 0; kx < klo; kx++ {
							r[kx] = 0
						}
						for kx := klo; kx < khi; kx++ {
							r[kx] = src[ix0+kx]
						}
						for kx := khi; kx < g.KW; kx++ {
							r[kx] = 0
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters a columns matrix (as produced by Im2Col) back into an
// NCHW image tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used in the convolution backward pass.
func Col2Im(cols *Tensor, n int, g ConvGeom) *Tensor {
	return Col2ImInto(NewLike(cols, n, g.InC, g.InH, g.InW), cols, n, g)
}

// Col2ImInto is Col2Im writing into a caller-supplied destination of shape
// [N, InC, InH, InW]. dst is zeroed before accumulation, so a pooled
// buffer is fine. Returns dst.
func Col2ImInto(out, cols *Tensor, n int, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if out.Dims() != 4 || out.Shape[0] != n || out.Shape[1] != g.InC ||
		out.Shape[2] != g.InH || out.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: Col2ImInto destination shape %v, want [%d %d %d %d]",
			out.Shape, n, g.InC, g.InH, g.InW))
	}
	out.Zero()

	// Accumulation into overlapping pixels makes per-batch parallelism the
	// only safe fan-out (rows within one image overlap).
	if vol := n * oh * ow * rowLen; rowWorkers(n, vol) < 2 {
		col2imRange(out, cols, g, 0, n)
	} else {
		parallelRows(n, vol, func(lo, hi int) { col2imRange(out, cols, g, lo, hi) })
	}
	return out
}

// col2imRange scatters columns for images [lo, hi) of the batch, the
// mirror of im2colRange's loop structure with loads and stores swapped:
// the in-bounds kx run is computed once per output position and the
// channel-inner loops accumulate without bounds checks.
func col2imRange(out, cols *Tensor, g ConvGeom, lo, hi int) {
	oh, ow := g.OutH(), g.OutW()
	khkw := g.KH * g.KW
	rowLen := g.InC * khkw
	chLen := g.InH * g.InW
	imgLen := g.InC * chLen
	for b := lo; b < hi; b++ {
		img := out.Data[b*imgLen : (b+1)*imgLen]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((b*oh+oy)*ow+ox)*rowLen : ((b*oh+oy)*ow+ox+1)*rowLen]
				ix0 := ox*g.Stride - g.Pad
				klo, khi := 0, g.KW
				if ix0 < 0 {
					klo = -ix0
				}
				if ix0+g.KW > g.InW {
					khi = g.InW - ix0
				}
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					base := ky * g.KW
					rowOff := iy * g.InW
					for c := 0; c < g.InC; c++ {
						r := row[c*khkw+base : c*khkw+base+g.KW]
						dst := img[c*chLen+rowOff:]
						for kx := klo; kx < khi; kx++ {
							dst[ix0+kx] += r[kx]
						}
					}
				}
			}
		}
	}
}
